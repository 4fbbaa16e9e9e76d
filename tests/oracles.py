"""Test-only reference implementations, kept out of the package.

dense_evaluate_joint is the small-cell joint-coverage panel sum written as
whole-tensor einsums over per-node tensors: dense_node_tensors builds both
mixed-term families for every node, each (node, radial, angular) tensor as
one whole-array expression.  The package builds the pico family once for
r_s = 1 and scales it per node, builds the macro tensor block by block in
place and evaluates the sums block by block; the two differ only in the
order of floating-point operations (the macro tensor itself is
bit-identical).

reference_evaluate_user is the simulator's per-trial kernel written on
plain distances: abs + hypot per station, boolean masks to drop the serving
index and sum(h * d**-alpha) per link.  The package works on squared
distances in place and takes each power sum as one dot product; with the
same seed both draw the same fading, so they differ only in rounding.

Independent routes that the package does not run:

* integrate_annulus: adaptive polar quadrature over the plane minus at most
  two discs, truncated at a radius whose power-law tail bound goes into the
  error estimate; a check of the closed exterior-disc functional.
* tail_profile_quad: the tail profile C(c, alpha) by adaptive quadrature
  on the mapped half-line, against tails.tail_profile's closed form.
* nested_coverage_macro: the macro coverage evaluated the long way.  It
  conditions additionally on the nearest pico distance r_s >= d, enters
  that pico's interference explicitly and integrates the rest of the field
  beyond r_s.  Palm decomposition over the nearest point is an identity,
  so it must agree with the closed reduction of
  macro.coverage_macro_result.  With pico_exclusion=False the association
  void is dropped and pico interference comes in from radius 0: the
  baseline that the B_s -> 0 degenerate-tier limit converges to.
* j_components: the pieces of the IBFD integrand at one (r_s, r), built
  with the package's own kernels on a one-node geometry, for comparison
  with direct adaptive quadrature of the defining integrals.  The allowed
  bearing angle is computed here from (r_s, r, R_i).
"""
import functools
import math

import numpy as np
from scipy import integrate as _sciint

from hetnet import montecarlo
from hetnet.analytic import smallcell
from hetnet.analytic.distances import inner_disc_radius, joint_pdf, outer_grid
from hetnet.analytic.tails import (
    power_tail_nodes,
    shifted_functional_radius2,
    tail_profile,
)
from hetnet.core import DuplexMode, delta_m, delta_s
from hetnet.numerics import (
    IntegralResult,
    NonConvergenceError,
    QuadratureSpec,
    _leggauss,
    gauss_panel_nodes,
    integrate_1d,
)


def _clip_cos(x):
    return np.clip(x, -1.0, 1.0)


def chord_form(d2, four_rx, width, gx):
    """x^2 + r^2 + 2 x r cos(theta) at theta = width/2 (1 - gx) of each row,
    as d2 + four_rx / (1 + tan^2(theta/2)) with d2 = (x - r)^2 and
    four_rx = 4 x r: one whole-array expression (smallcell._znpow builds
    the same in blocks and takes its power in place)."""
    t = np.tan(0.25 * np.asarray(width)[..., None] * (1.0 - gx))
    return d2[..., None] + four_rx[..., None] / (1.0 + t * t)


def dense_node_tensors(params, rs, r, ri, n_rad, n_ang, n_tail):
    """smallcell._node_tensors with both mixed-term families per node,
    every (node, radial, angular) tensor built as one whole-array
    expression."""
    alpha_s, alpha_m = params.alpha_s, params.alpha_m
    gx, gw = _leggauss(n_ang)
    # angular nodes mapped later per (node, l) interval [chi_ex, pi]

    out = {"ang_w": gw}

    # --- pico-field mixed term: polar around S, exclusion B(o, r_s) ------
    knots_s = rs[:, None] * smallcell._LADDER_S[None, :]
    xs, wxs = gauss_panel_nodes(knots_s, n_rad)
    chi_ex = np.arccos(_clip_cos(xs / (2.0 * rs[:, None])))
    width = np.pi - chi_ex          # angular interval [chi_ex, pi]
    out["s_wx"] = wxs * xs          # fold the l dl Jacobian
    out["s_xnpow"] = xs ** -alpha_s
    out["s_width"] = width
    out["s_znpow"] = chord_form(
        (xs - rs[:, None]) ** 2, 4.0 * rs[:, None] * xs, width, gx) \
        ** (-alpha_s / 2.0)
    xt, wt = power_tail_nodes(rs * smallcell._LADDER_S[-1], alpha_s, n_tail)
    out["s_tw"] = wt * xt
    out["s_txnpow"] = xt ** -alpha_s

    # --- macro-field mixed term: polar around S, exclusions B(o, R_i)
    #     (angular) and B(S, r) (radial lower limit) ----------------------
    base = np.maximum(r, rs + ri)
    knots_m = np.concatenate(
        [
            r[:, None] * np.array([1.0, 1.12, 1.3, 1.6])[None, :],
            np.clip(np.abs(ri - rs), r, None)[:, None],
            np.clip(ri + rs, r, None)[:, None],
            base[:, None] * smallcell._LADDER_M[None, :],
        ],
        axis=1,
    )
    knots_m = np.sort(knots_m, axis=1)
    xm, wxm = gauss_panel_nodes(knots_m, n_rad)
    cos_in = (rs[:, None] ** 2 + xm ** 2 - ri[:, None] ** 2) \
        / np.maximum(2.0 * rs[:, None] * xm, 1e-300)
    chi_ex2 = np.arccos(_clip_cos(cos_in))
    width_m = np.pi - chi_ex2
    out["m_x"] = xm
    out["m_wx"] = wxm * xm
    out["m_xnpow"] = xm ** -alpha_m
    out["m_width"] = width_m
    out["m_znpow"] = chord_form(
        (xm - rs[:, None]) ** 2, 4.0 * rs[:, None] * xm, width_m, gx) \
        ** (-alpha_m / 2.0)
    xtm, wtm = power_tail_nodes(base * smallcell._LADDER_M[-1], alpha_m,
                                n_tail)
    out["m_tw"] = wtm * xtm
    out["m_txnpow"] = xtm ** -alpha_m

    # --- lens correction K1: user-centered shell of B(S, r) beyond R_i ---
    k1_knots = np.sort(np.stack([
        ri,
        np.clip(np.abs(rs - r), ri, rs + r),
        np.clip(np.sqrt(np.abs(rs - r) * (rs + r)), ri, rs + r),
        np.maximum(rs + r, ri),
    ], axis=1), axis=1)
    rho1, wrho1 = gauss_panel_nodes(k1_knots, max(n_rad, 6))
    width1 = 2.0 * np.arccos(_clip_cos(
        (rs[:, None] ** 2 + rho1 ** 2 - r[:, None] ** 2)
        / np.maximum(2.0 * rs[:, None] * rho1, 1e-300)))
    out["k1_w"] = wrho1 * rho1 * width1
    out["k1_xnpow"] = rho1 ** -alpha_m

    # --- lens correction K2: S-centered shell of B(o, R_i) beyond r ------
    k2_knots = np.sort(np.stack([
        r,
        np.clip(np.abs(ri - rs), r, None),
        np.clip(np.sqrt(np.clip(np.abs(ri - rs), 1e-300, None)
                        * (ri + rs)), r, None),
        np.maximum(ri + rs, r),
    ], axis=1), axis=1)
    rho2, wrho2 = gauss_panel_nodes(k2_knots, max(n_rad, 6))
    width2 = 2.0 * np.arccos(_clip_cos(
        (rs[:, None] ** 2 + rho2 ** 2 - ri[:, None] ** 2)
        / np.maximum(2.0 * rs[:, None] * rho2, 1e-300)))
    out["k2_w"] = wrho2 * rho2 * width2
    out["k2_xnpow"] = rho2 ** -alpha_m

    # --- serving-macro bearing average -----------------------------------
    # both conventions share the normalized Gauss weights: nodes are mapped
    # onto [0, U] with U = pi (circle) or U = theta_allow (arc), and the
    # 1/U density makes U cancel out of the weighted mean
    gxt, gwt = _leggauss(16)
    cos_allow = _clip_cos((ri ** 2 - rs ** 2 - r ** 2)
                          / np.maximum(2.0 * rs * r, 1e-300))
    theta_allow = np.arccos(cos_allow)
    out["g_w"] = 0.5 * gwt
    for tag, upper in (("arc", theta_allow), ("circle", np.pi)):
        # bearing theta = upper/2 (gxt + 1): the chord form's nodes at -gxt
        out["g_rmnpow_" + tag] = chord_form(
            (rs - r) ** 2, 4.0 * rs * r, upper, -gxt) ** (-alpha_m / 2.0)
    return out


@functools.lru_cache(maxsize=1)
def dense_geometry(params, level):
    """The live nodes of smallcell._geometry with dense_node_tensors, plus
    their (r_s, r, R_i); the last one built is kept."""
    g = outer_grid(params, level)
    f2w = joint_pdf(g["rs"], g["r"], params) * g["w"]
    live = f2w > (f2w.max() * 1e-15 if f2w.size else 0.0)
    rs, r, ri = g["rs"][live], g["r"][live], g["ri"][live]
    n_rad = max(level, 4)
    n_ang = n_tail = 12 if level >= 6 else 8
    geom = dense_node_tensors(params, rs, r, ri, n_rad, n_ang, n_tail)
    geom.update(f2w=f2w[live], rs=rs, r=r, ri=ri)
    return geom


def dense_sharpness(params, T_s, T_b, geom):
    """(s_1, s_2, s_1', s_2') per node (module docstring of smallcell)."""
    rs_a, r_a = geom["rs"] ** params.alpha_s, geom["r"] ** params.alpha_m
    cap = 1e280
    return (np.minimum(T_s * rs_a, cap),
            np.minimum((T_b * params.P_s / params.P_m) * r_a, cap),
            np.minimum((T_s * params.P_m / params.P_s) * rs_a, cap),
            np.minimum(T_b * r_a, cap))


def dense_mixed_term(s_cross, s_own, geom, prefix, idx):
    """The pico ("s_") or macro ("m_") mixed term of dense_geometry on the
    nodes idx, one einsum per sum."""
    xn = geom[prefix + "xnpow"][idx]
    zn = geom[prefix + "znpow"][idx]
    one_minus = 1.0 - 1.0 / (1.0 + s_cross[:, None] * xn)
    inner = np.einsum("nlk,k->nl", 1.0 / (1.0 + s_own[:, None, None] * zn),
                      geom["ang_w"])
    body = np.einsum("nl,nl->n", geom[prefix + "wx"][idx] * one_minus,
                     geom[prefix + "width"][idx] * inner)
    txn = geom[prefix + "txnpow"][idx]
    tail = np.einsum(
        "nl,nl->n", geom[prefix + "tw"][idx],
        (1.0 - 1.0 / (1.0 + s_cross[:, None] * txn))
        * (2.0 * np.pi / (1.0 + s_own[:, None] * txn)))
    return body + tail


def _dense_lens(s, geom, prefix, idx):
    return np.einsum("nl,nl->n", geom[prefix + "_w"][idx],
                     1.0 - 1.0 / (1.0 + s[:, None]
                                  * geom[prefix + "_xnpow"][idx]))


def dense_evaluate_joint(params, T_s, T_b, mode, level=6, bearing="circle"):
    """(value, number of live nodes) of smallcell.evaluate_joint, dense."""
    geom = dense_geometry(params, level)
    lam_s, lam_m = params.lambda_s, params.lambda_m
    a_s, a_m = params.alpha_s, params.alpha_m
    rs, r, ri = geom["rs"], geom["r"], geom["ri"]
    s1, s2, s1p, s2p = dense_sharpness(params, T_s, T_b, geom)
    if mode is DuplexMode.IBFD:
        beta_term = params.beta * (
            s2 if params.self_interference_convention == "ps" else s2p)
        lb = (lam_s * np.maximum(
                  shifted_functional_radius2(s1, a_s, rs ** 2),
                  shifted_functional_radius2(s2, a_s, 4.0 * rs ** 2))
              + lam_m * np.maximum(
                  shifted_functional_radius2(s1p, a_m,
                                             np.maximum(ri, rs + r) ** 2),
                  shifted_functional_radius2(s2p, a_m,
                                             np.maximum(r, rs + ri) ** 2))
              + beta_term)
    else:
        lb = (lam_s * shifted_functional_radius2(s1, a_s, rs ** 2)
              + lam_m * shifted_functional_radius2(
                  s2p, a_m, np.maximum(r, rs + ri) ** 2))
    idx = np.flatnonzero(lb < smallcell._SKIP_EXPONENT)
    if idx.size == 0:
        return 0.0, 0
    s1, s2, s1p, s2p = s1[idx], s2[idx], s1p[idx], s2p[idx]
    rs, r, ri = rs[idx], r[idx], ri[idx]
    if mode is DuplexMode.IBFD:
        J_s = (shifted_functional_radius2(s1, a_s, rs ** 2)
               + dense_mixed_term(s2, s1, geom, "s_", idx))
        J_m = (shifted_functional_radius2(s1p, a_m, ri ** 2)
               - _dense_lens(s1p, geom, "k1", idx)
               + dense_mixed_term(s2p, s1p, geom, "m_", idx))
        gbar = np.einsum(
            "nk,k->n",
            1.0 / (1.0 + s1p[:, None] * geom["g_rmnpow_" + bearing][idx]),
            geom["g_w"])
        expo = lam_s * J_s + lam_m * J_m + beta_term[idx]
        weight = geom["f2w"][idx] * gbar
    else:
        J_s = shifted_functional_radius2(s1, a_s, rs ** 2)
        J_m = (shifted_functional_radius2(s2p, a_m, r ** 2)
               - _dense_lens(s2p, geom, "k2", idx))
        expo = lam_s * J_s + lam_m * J_m
        weight = geom["f2w"][idx]
    value = float((weight * np.exp(-np.minimum(expo, 700.0))).sum())
    return value, int(idx.size)


def _distances(points, center, window):
    if points.shape[0] == 0:
        return np.empty(0)
    diff = np.abs(points - center)
    if window.wrap:
        period = 2.0 * window.half_width
        diff = np.minimum(diff, period - diff)
    return np.hypot(diff[:, 0], diff[:, 1])


def _power_sum(power, h, d, alpha):
    if d.size == 0:
        return 0.0
    return float(power * np.sum(h * d ** (-alpha)))


def reference_evaluate_user(realization, params, mode, seed, window=None,
                            tail_compensation=True):
    """montecarlo.evaluate_user on distances and masks (same signature)."""
    if window is None:
        window = montecarlo.SimulationWindow()
    if realization.macro_points.shape[0] == 0:
        raise ValueError("no station in tier: macro")
    rng = np.random.default_rng(seed)
    origin = np.zeros(2)
    m_pts, s_pts = realization.macro_points, realization.pico_points
    d_m = _distances(m_pts, origin, window)
    d_s = _distances(s_pts, origin, window)
    comp_on = tail_compensation and not window.wrap
    a_m, a_s = params.alpha_m, params.alpha_s
    sir = montecarlo._sir

    def macro_tail(center_dist):
        if not comp_on:
            return 0.0
        return montecarlo._tail_mean(params.lambda_m, params.P_m, a_m,
                                     window.half_width - center_dist)

    def pico_tail(center_dist):
        if not comp_on:
            return 0.0
        return montecarlo._tail_mean(params.lambda_s, params.P_s, a_s,
                                     window.half_width - center_dist)

    i_macro = int(np.argmin(d_m))
    x_m = float(d_m[i_macro])
    x_s = float(d_s[int(np.argmin(d_s))]) if d_s.size else math.inf
    pico_assoc = d_s.size > 0 and \
        x_m > x_s ** (a_s / a_m) / delta_m(params)

    if not pico_assoc:
        h_m = rng.exponential(size=d_m.shape)
        signal = params.P_m * float(h_m[i_macro]) * x_m ** (-a_m)
        mask = np.arange(d_m.size) != i_macro
        interference = _power_sum(params.P_m, h_m[mask], d_m[mask], a_m)
        interference += macro_tail(0.0)
        if mode is DuplexMode.IBFD:
            if d_s.size:
                h_s = rng.exponential(size=d_s.shape)
                interference += _power_sum(params.P_s, h_s, d_s, a_s)
            interference += pico_tail(0.0)
        return montecarlo.UserSample(associated_tier="macro",
                                     sir_us=math.nan, sir_sm=math.nan,
                                     sir_um=sir(signal, interference))

    i_pico = int(np.argmin(d_s))
    s_pos = s_pts[i_pico]
    r_s = float(d_s[i_pico])
    d_m_from_s = _distances(m_pts, s_pos, window)
    i_backhaul = int(np.argmin(d_m_from_s))
    r = float(d_m_from_s[i_backhaul])

    h_s_user = rng.exponential(size=d_s.shape)
    signal_us = params.P_s * float(h_s_user[i_pico]) * r_s ** (-a_s)
    mask_s = np.arange(d_s.size) != i_pico
    int_us = _power_sum(params.P_s, h_s_user[mask_s], d_s[mask_s], a_s)
    int_us += pico_tail(0.0)
    if mode is DuplexMode.IBFD:
        h_m_user = rng.exponential(size=d_m.shape)
        int_us += _power_sum(params.P_m, h_m_user, d_m, a_m)
        int_us += macro_tail(0.0)

    h_m_s = rng.exponential(size=d_m_from_s.shape)
    signal_sm = params.P_m * float(h_m_s[i_backhaul]) * r ** (-a_m)
    mask_m = np.arange(d_m_from_s.size) != i_backhaul
    int_sm = _power_sum(params.P_m, h_m_s[mask_m], d_m_from_s[mask_m], a_m)
    int_sm += macro_tail(r_s)
    if mode is DuplexMode.IBFD:
        d_s_from_s = _distances(s_pts, s_pos, window)
        h_s_s = rng.exponential(size=d_s_from_s.shape)
        int_sm += _power_sum(params.P_s, h_s_s[mask_s],
                             d_s_from_s[mask_s], a_s)
        int_sm += pico_tail(r_s)
        int_sm += params.beta * (
            params.P_s if params.self_interference_convention == "ps"
            else params.P_m)

    return montecarlo.UserSample(associated_tier="pico",
                                 sir_us=sir(signal_us, int_us),
                                 sir_sm=sir(signal_sm, int_sm),
                                 sir_um=math.nan)


# ---------------------------------------------------------------------------
# planar integral outside a union of at most two discs
# ---------------------------------------------------------------------------

def _excluded_halfwidth(rho, d, R):
    """Angular half-width (at the origin) of the chord of disc(center_dist=d,
    radius=R) cut by the circle of radius rho: 0 where the circle misses the
    disc, pi where the circle is engulfed by it."""
    rho = np.asarray(rho, dtype=float)
    if d == 0.0:
        return np.where(rho < R, np.pi, 0.0)
    arg = (rho * rho + d * d - R * R) / np.maximum(2.0 * rho * d,
                                                   np.finfo(float).tiny)
    return np.arccos(np.clip(arg, -1.0, 1.0))


def _allowed_arcs(rho, discs):
    """Angular intervals (within one period) NOT covered by the discs at
    radius rho.  Each disc is (center_angle, center_dist, radius)."""
    excluded = []
    for phi_c, d, R in discs:
        w = float(_excluded_halfwidth(np.asarray(rho), d, R))
        if w <= 0.0:
            continue
        if w >= np.pi:
            return []
        excluded.append((phi_c - w, phi_c + w))
    if not excluded:
        return [(0.0, 2.0 * np.pi)]
    two_pi = 2.0 * np.pi
    # split wrap-around intervals at the 0/2*pi seam, then merge on [0, 2*pi]
    segs = []
    for a, b in excluded:
        width = min(b - a, two_pi)
        a = a % two_pi
        if a + width <= two_pi:
            segs.append([a, a + width])
        else:
            segs.append([a, two_pi])
            segs.append([0.0, a + width - two_pi])
    segs.sort()
    merged = []
    for a, b in segs:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    allowed = []
    cursor = 0.0
    for a, b in merged:
        if a > cursor:
            allowed.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < two_pi:
        allowed.append((cursor, two_pi))
    return allowed


def integrate_annulus(f, exclusion, spec=QuadratureSpec(), angular_order=32,
                      truncation_radius=1e3):
    """Integral of f over the plane minus a union of at most two discs.

    f(radius, angle) must accept numpy arrays (same shape) and decay at
    least as fast as radius^-alpha with alpha > 2.  ``exclusion`` is a
    sequence of ((x, y), R) discs, possibly empty.  The radial integral is
    truncated at ``truncation_radius``; a power-law tail bound fitted from
    the outermost samples is added to the error estimate.
    """
    if len(exclusion) > 2:
        raise ValueError("at most two excluded discs are supported")
    discs = []
    crit = []
    for (cx, cy), R in exclusion:
        if R < 0:
            raise ValueError("disc radius must be >= 0")
        d = math.hypot(cx, cy)
        discs.append((math.atan2(cy, cx), d, R))
        crit.extend([abs(d - R), d + R])

    R_t = truncation_radius
    gx, gw = _leggauss(angular_order)
    gx_half, gw_half = _leggauss(max(angular_order // 2, 2))

    def ring(rho, nodes, wts):
        total = 0.0
        for a, b in _allowed_arcs(rho, discs):
            theta = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            total += 0.5 * (b - a) * float(
                np.sum(wts * f(np.full_like(theta, rho), theta)))
        return total

    def radial(rho):
        return rho * ring(rho, gx, gw)

    # radius below which every direction is excluded (origin-covering disc)
    r_min = 0.0
    for _, d, R in discs:
        if d < R:
            r_min = max(r_min, R - d)
    points = sorted({c for c in crit if r_min < c < R_t})
    res = _sciint.quad(
        radial, r_min, R_t,
        points=points or None,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=200, full_output=1,
    )
    value, abserr = res[0], res[1]
    quad_ok = len(res) < 4

    # angular-resolution error probe at a few radii
    probe = np.geomspace(max(r_min, 1e-3) + 1e-9, R_t, 7)
    ang_err = 0.0
    for rho in probe:
        hi = ring(float(rho), gx, gw)
        lo = ring(float(rho), gx_half, gw_half)
        ang_err = max(ang_err, abs(hi - lo))
    ang_err *= R_t  # coarse scale-up over the radial extent

    # power-law tail bound from the two outermost full rings
    r1, r2 = 0.7 * R_t, R_t
    m1 = ring(r1, gx, gw) / (2 * np.pi)
    m2 = ring(r2, gx, gw) / (2 * np.pi)
    tail = math.inf
    if m2 <= 0 or m1 <= 0:
        tail = 0.0
    else:
        alpha_hat = math.log(m1 / m2) / math.log(r2 / r1)
        if alpha_hat > 2.0:
            c_hat = m2 * r2 ** alpha_hat
            tail = (2 * np.pi * c_hat * R_t ** (2.0 - alpha_hat)
                    / (alpha_hat - 2.0))

    err = abserr + ang_err + (0.0 if math.isinf(tail) else tail)
    converged = quad_ok and math.isfinite(tail) \
        and err <= max(spec.abs_tol, spec.rel_tol * abs(value))
    return IntegralResult(value=value, error_estimate=err,
                          converged=converged)


# ---------------------------------------------------------------------------
# tail profile and macro coverage by nested quadrature
# ---------------------------------------------------------------------------

def tail_profile_quad(c, alpha, spec=QuadratureSpec()):
    """C(c, alpha) by adaptive quadrature on the mapped half-line."""
    p = alpha / 2.0
    return integrate_1d(lambda t: 1.0 / (1.0 + t ** p), c, math.inf, spec)


def nested_coverage_macro(params, T_m, mode, pico_exclusion=True):
    """macro.coverage_macro with the pico expectation conditioned on the
    nearest pico as well (module docstring)."""
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8)
    a_m, a_s = params.alpha_m, params.alpha_s
    lm, ls = params.lambda_m, params.lambda_s
    c_macro = float(tail_profile(T_m ** (-2.0 / a_m), a_m))
    a_coef = math.pi * lm * (1.0 + T_m ** (2.0 / a_m) * c_macro)
    dels = delta_s(params) if pico_exclusion else 0.0
    inner_spec = QuadratureSpec(abs_tol=spec.abs_tol * 1e-2,
                                rel_tol=spec.rel_tol * 1e-1)

    def outer(rp):
        d = dels * rp ** (a_m / a_s)
        s_s = T_m * (params.P_s / params.P_m) * rp ** a_m

        if mode is DuplexMode.FDD or ls == 0.0:
            pico_factor = math.exp(-math.pi * ls * d * d)
        else:
            def inner(r_s):
                tail = float(shifted_functional_radius2(
                    np.asarray(s_s), a_s, np.asarray(r_s * r_s)))
                nearest = 1.0 / (1.0 + s_s * r_s ** (-a_s))
                return (2.0 * math.pi * ls * r_s * nearest
                        * math.exp(-math.pi * ls * r_s * r_s - ls * tail))

            pico_factor = integrate_1d(inner, d, math.inf, inner_spec).value
        return 2.0 * math.pi * lm * rp * math.exp(-a_coef * rp * rp) \
            * pico_factor

    res = integrate_1d(outer, 0.0, math.inf, spec)
    if not res.converged:
        raise NonConvergenceError(
            f"nested macro coverage not converged "
            f"(estimate {res.error_estimate:.2e})", result=res)
    return min(max(res.value, 0.0), 1.0)


# ---------------------------------------------------------------------------
# the small-cell integrand at one (r_s, r), through the package kernels
# ---------------------------------------------------------------------------

def j_components(params, T_s, T_b, r_s, r):
    """J_s, J_m, their FDD single-link forms, the lens corrections K1 and
    K2, the serving-macro access factor gbar under both bearing conventions
    and the allowed bearing angle, at a single (r_s, r)."""
    rs = np.array([float(r_s)])
    rr = np.array([float(r)])
    ri = inner_disc_radius(rs, params)
    geom = smallcell._node_tensors(params, rs, rr, ri, n_rad=10, n_ang=24,
                                   n_tail=16)
    geom.update(rs2=rs ** 2, r2=rr ** 2, ri2=ri ** 2,
                rs_pow_as=rs ** params.alpha_s,
                r_pow_am=rr ** params.alpha_m)
    s2, s1p, s2p = smallcell._sharpness(params, T_s, T_b, geom["rs_pow_as"],
                                        geom["r_pow_am"])
    idx = np.arange(1)
    K1 = smallcell._lens_correction(s1p, geom, "k1", idx)
    K2 = smallcell._lens_correction(s2p, geom, "k2", idx)
    F_s = geom["rs2"] * shifted_functional_radius2(T_s, params.alpha_s, 1.0)
    J_s = F_s + smallcell._pico_mixed_term(T_s, s2 / geom["rs_pow_as"],
                                           geom["rs2"], geom)
    J_m = (shifted_functional_radius2(s1p, params.alpha_m, geom["ri2"])
           - K1 + smallcell._mixed_term(s2p, s1p, geom, idx))
    gbar = {
        tag: float(((1.0 / (1.0 + s1p[:, None] * geom["g_rmnpow_" + tag]))
                    @ geom["g_w"])[0])
        for tag in ("arc", "circle")
    }
    J_m_fdd = (shifted_functional_radius2(s2p, params.alpha_m, geom["r2"])
               - K2)
    return {
        "J_s": float(J_s[0]), "J_m": float(J_m[0]),
        "J_s_fdd": float(F_s[0]),
        "J_m_fdd": float(J_m_fdd[0]),
        "K1": float(K1[0]), "K2": float(K2[0]),
        "gbar_arc": gbar["arc"], "gbar_circle": gbar["circle"],
        # bearings of the serving macro that keep it outside B(o, R_i)
        "theta_allow": float(np.arccos(_clip_cos(
            (ri[0] ** 2 - rs[0] ** 2 - rr[0] ** 2)
            / max(2.0 * rs[0] * rr[0], 1e-300)))),
    }
