"""Test-only reference implementations, kept out of the package.

dense_evaluate_joint is the small-cell joint-coverage panel sum written as
whole-tensor einsums over per-node tensors: dense_node_tensors builds both
mixed-term families for every node, each (node, radial, angular) tensor by
the same elementwise expression over every node (in node blocks, to bound
the memory of its temporaries), and can build one table family at a time
(FAMILIES), so a test can compare and drop each before the next.  The
package builds the pico family as one row, for r_s = 1, and scales it per
node, builds the macro tensor block by block in place and evaluates the
sums block by block; the two differ only in the order of floating-point
operations (the macro tensor itself is bit-identical).

reference_evaluate_user is the simulator's per-trial kernel written on
plain distances: abs + hypot per station, boolean masks to drop the serving
index, sum(h * d**-alpha) per link and, for each IBFD candidate link, the
other tier's sum over all of its stations.  The package works on squared
distances in place, takes each power sum as one einsum and forms the
other tier's sum as its rest plus its serving term; from generators of
the same seed both draw the same fading, so they differ only in rounding.

reference_tally is the simulator's tally written as a loop over trials,
one scalar tier decision and SIR at a time with the same cap rule; the
package decides every tier and forms every SIR column with numpy, and the
two must agree exactly.

estimate_metrics is a tally of a one-mode pass drawn for the call alone,
the short form that the statistical checks use.

Independent routes that the package does not run:

* integrate_1d: scipy's adaptive quadpack on finite or semi-infinite
  intervals, with a QuadratureSpec tolerance; the nested routes below are
  built from it.
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
  macro.coverage_macro_batch.  With pico_exclusion=False the association
  void is dropped and pico interference comes in from radius 0: the
  baseline that the B_s -> 0 degenerate-tier limit converges to.
* j_components: the pieces of the IBFD integrand at one (r_s, r), built
  with the package's own kernels on a one-node geometry, for comparison
  with direct adaptive quadrature of the defining integrals.  The allowed
  bearing angle is computed here from (r_s, r, R_i).
"""
import math
import warnings
from dataclasses import dataclass

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
from hetnet.core import DuplexMode, band_shares, delta_m, delta_s
from hetnet.numerics import (
    IntegralResult,
    NonConvergenceError,
    _leggauss,
    gauss_panel_nodes,
)


# ---------------------------------------------------------------------------
# adaptive 1-D quadrature (quadpack), the base of the nested routes
# ---------------------------------------------------------------------------

# subinterval budget of the adaptive pass in integrate_1d
_MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute and relative tolerances of one adaptive integral."""

    abs_tol: float = 1e-7
    rel_tol: float = 1e-5

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")


def _tolerance(spec: QuadratureSpec, value: float) -> float:
    return max(spec.abs_tol, spec.rel_tol * abs(value))


def integrate_1d(f, lower, upper, spec=QuadratureSpec()):
    """Integrate f on [lower, upper]; upper may be math.inf / np.inf.

    Semi-infinite domains are mapped to (0, 1) with t = lower + u/(1-u)
    (Jacobian 1/(1-u)^2) before the adaptive pass, so no truncation of the
    domain occurs.  Non-convergence is reported through ``converged``;
    the value is still returned so the caller can decide.
    """
    points = None
    if math.isinf(upper):
        a = float(lower)

        def g(u):
            om = 1.0 - u
            if om <= 0.0:
                return 0.0  # u = 1 is the image of t = inf; integrand limit
            return f(a + u / om) / (om * om)

        lo, hi, fn = 0.0, 1.0, g
        if a > 10.0:
            # a large lower bound squeezes the image of scales t ~ O(a)
            # against u = 1, invisible to the initial global rule.  A few
            # breakpoints bracketing t - a ~ a locate the bulk; adaptive
            # bisection then follows the tail on its own.  (More points
            # would force evaluations deep into the Jacobian blow-up and
            # cost accuracy through cancellation.)
            t_shift = a * 2.0 ** np.array([-3.0, 0.0, 3.0])
            u_pts = t_shift / (1.0 + t_shift)
            points = [float(u) for u in u_pts if 1e-12 < u < 1.0 - 1e-14]
    else:
        lo, hi, fn = float(lower), float(upper), f

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", _sciint.IntegrationWarning)
        value, abserr = _sciint.quad(
            fn, lo, hi,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=_MAX_SUBDIVISIONS if points is None
            else max(_MAX_SUBDIVISIONS, len(points) + 50),
            points=points,
        )
    warned = any(issubclass(w.category, _sciint.IntegrationWarning)
                 for w in caught)
    converged = (not warned) and abserr <= _tolerance(spec, value)
    return IntegralResult(value=value, error_estimate=abserr,
                          converged=converged)


def _clip_cos(x):
    return np.clip(x, -1.0, 1.0)


def chord_form(d2, four_rx, width, gx):
    """x^2 + r^2 + 2 x r cos(theta) at theta = width/2 (1 - gx) of each row,
    as d2 + four_rx / (1 + tan^2(theta/2)) with d2 = (x - r)^2 and
    four_rx = 4 x r: one whole-array expression (smallcell._znpow builds
    the same in blocks and takes its power in place)."""
    t = np.tan(0.25 * np.asarray(width)[..., None] * (1.0 - gx))
    return d2[..., None] + four_rx[..., None] / (1.0 + t * t)


def _blocked_znpow(d2, four_rx, width, gx, alpha, block=256):
    """chord_form(d2, four_rx, width, gx) ** (-alpha / 2), built block by
    block over nodes (the first axis) into one preallocated array.  Every
    operation is elementwise, so the result is bit-identical to the
    whole-array expression, whose temporaries would each be as large as
    the result."""
    out = np.empty(d2.shape + gx.shape)
    for lo in range(0, d2.shape[0], block):
        rows = slice(lo, lo + block)
        out[rows] = chord_form(d2[rows], four_rx[rows], width[rows], gx) \
            ** (-alpha / 2.0)
    return out


# the table families of dense_node_tensors, by key prefix: the pico and
# macro mixed terms, the two lens shells and the bearing average
FAMILIES = ("s_", "m_", "k1_", "k2_", "g_")


def dense_node_tensors(params, rs, r, ri, n_rad, n_ang, n_tail,
                       families=FAMILIES):
    """smallcell._node_tensors with both mixed-term families per node,
    every (node, radial, angular) tensor built by one elementwise
    expression over all nodes (_blocked_znpow).  Only the table families
    named in families (FAMILIES) are built."""
    alpha_s, alpha_m = params.alpha_s, params.alpha_m
    gx, gw = _leggauss(n_ang)
    # angular nodes mapped later per (node, l) interval [chi_ex, pi]

    out = {"ang_w": gw}

    # --- pico-field mixed term: polar around S, exclusion B(o, r_s) ------
    if "s_" in families:
        knots_s = rs[:, None] * smallcell._LADDER_S[None, :]
        xs, wxs = gauss_panel_nodes(knots_s, n_rad)
        chi_ex = np.arccos(_clip_cos(xs / (2.0 * rs[:, None])))
        width = np.pi - chi_ex          # angular interval [chi_ex, pi]
        out["s_wx"] = wxs * xs          # fold the l dl Jacobian
        out["s_xnpow"] = xs ** -alpha_s
        out["s_width"] = width
        out["s_znpow"] = _blocked_znpow(
            (xs - rs[:, None]) ** 2, 4.0 * rs[:, None] * xs, width, gx,
            alpha_s)
        xt, wt = power_tail_nodes(rs * smallcell._LADDER_S[-1], alpha_s,
                                  n_tail)
        out["s_tw"] = wt * xt
        out["s_txnpow"] = xt ** -alpha_s

    # --- macro-field mixed term: polar around S, exclusions B(o, R_i)
    #     (angular) and B(S, r) (radial lower limit) ----------------------
    if "m_" in families:
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
        out["m_znpow"] = _blocked_znpow(
            (xm - rs[:, None]) ** 2, 4.0 * rs[:, None] * xm, width_m, gx,
            alpha_m)
        xtm, wtm = power_tail_nodes(base * smallcell._LADDER_M[-1], alpha_m,
                                    n_tail)
        out["m_tw"] = wtm * xtm
        out["m_txnpow"] = xtm ** -alpha_m

    # --- lens correction K1: user-centered shell of B(S, r) beyond R_i ---
    if "k1_" in families:
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
    if "k2_" in families:
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
    if "g_" in families:
        gxt, gwt = _leggauss(16)
        # the allowed bearing is pi minus the arc of the circle of radius r
        # about S inside B(o, R_i), as for the macro widths above
        theta_allow = np.pi - np.arccos(_clip_cos(
            (rs ** 2 + r ** 2 - ri ** 2) / np.maximum(2.0 * rs * r, 1e-300)))
        out["g_w"] = 0.5 * gwt
        for tag, upper in (("arc", theta_allow), ("circle", np.pi)):
            # bearing theta = upper/2 (gxt + 1): the chord form's nodes at
            # -gxt
            out["g_rmnpow_" + tag] = chord_form(
                (rs - r) ** 2, 4.0 * rs * r, upper, -gxt) \
                ** (-alpha_m / 2.0)
    return out


# the last dense geometry built, by (params, level, families); at level 10
# all families hold about 412 MB, so it is dropped before the next one is
# built, and by release_dense_geometry once the tests that use it are done
_DENSE_HELD: dict = {}


def dense_geometry(params, level, families=FAMILIES):
    """The live nodes of smallcell._geometry with dense_node_tensors of the
    table families named in families, plus their (r_s, r, R_i) and f2w;
    the last one built is held (_DENSE_HELD)."""
    key = (params, level, tuple(families))
    if key not in _DENSE_HELD:
        _DENSE_HELD.clear()
        _DENSE_HELD[key] = _dense_geometry(params, level, families)
    return _DENSE_HELD[key]


def release_dense_geometry():
    _DENSE_HELD.clear()


def _dense_geometry(params, level, families):
    g = outer_grid(params, level)
    f2w = joint_pdf(g["rs"], g["r"], params) * g["w"]
    live = f2w > (f2w.max() * 1e-15 if f2w.size else 0.0)
    rs, r, ri = g["rs"][live], g["r"][live], g["ri"][live]
    n_rad = max(level, 4)
    n_ang = n_tail = 12 if level >= 6 else 8
    geom = dense_node_tensors(params, rs, r, ri, n_rad, n_ang, n_tail,
                              families)
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
    one_minus = 1.0 - 1.0 / (1.0 + s_cross[:, None] * xn)
    # the angular sum node block by node block (_blocked_znpow's reason)
    inner = np.empty(xn.shape)
    for lo in range(0, idx.size, 256):
        rows = slice(lo, lo + 256)
        zn = geom[prefix + "znpow"][idx[rows]]
        inner[rows] = np.einsum("nlk,k->nl",
                                1.0 / (1.0 + s_own[rows, None, None] * zn),
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


def dense_evaluate_joint(params, T_s, T_b, mode, level=6, bearing="circle",
                         skip_mass=smallcell._SKIP_MASS):
    """(value, number of live nodes) of smallcell.evaluate_joint, dense.

    A node is live while its exponent lower bound is below
    log(f2w N / skip_mass), N the node count; skip_mass = 0 keeps every
    node whose bound is finite."""
    geom = dense_geometry(params, level)
    f2w = geom["f2w"]
    skip = (np.log(f2w * (f2w.size / skip_mass)) if skip_mass
            else np.full(f2w.size, np.inf))
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
    idx = np.flatnonzero(lb < skip)
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


def _distances(points, center):
    if points.shape[0] == 0:
        return np.empty(0)
    diff = np.abs(points - center)
    return np.hypot(diff[:, 0], diff[:, 1])


@np.errstate(divide="ignore")
def _path_gain(d, alpha):
    """d ** -alpha in numpy, so a zero distance gives inf."""
    return float(np.float64(d) ** -alpha)


def _power_sum(power, h, d, alpha):
    if d.size == 0:
        return 0.0
    return float(power * np.sum(h * d ** (-alpha)))


def reference_evaluate_user(macro_points, pico_points, params, modes, rng,
                            window=montecarlo.SimulationWindow()):
    """montecarlo.evaluate_user on distances and masks (same signature,
    record and draw order: macros and picos at the user, macros at the
    nearest pico S, then, with IBFD in modes, picos at S)."""
    if macro_points.shape[0] == 0:
        raise ValueError("no station in tier: macro")
    w = window.half_width
    ibfd = DuplexMode.IBFD in modes
    macro = (params.P_m, params.alpha_m, montecarlo._tail_mean(
        params.lambda_m, params.P_m, params.alpha_m, w))
    pico = (params.P_s, params.alpha_s, montecarlo._tail_mean(
        params.lambda_s, params.P_s, params.alpha_s, w))

    def links(tier, d):
        """(nearest station's distance, its received power, every other
        station's power sum plus the tail, every station's power sum plus
        the tail)."""
        power, alpha, tail = tier
        h = rng.exponential(size=d.shape)
        near = int(np.argmin(d))
        mask = np.arange(d.size) != near
        with np.errstate(divide="ignore"):
            whole = _power_sum(power, h, d, alpha) + tail
        return (float(d[near]),
                power * float(h[near]) * _path_gain(d[near], alpha),
                _power_sum(power, h[mask], d[mask], alpha) + tail, whole)

    x_m, signal_m, int_m, all_m = links(macro,
                                        _distances(macro_points, np.zeros(2)))
    if pico_points.shape[0] == 0:
        interference = {DuplexMode.FDD: (int_m, math.nan, math.nan)}
        if ibfd:
            interference[DuplexMode.IBFD] = (int_m + pico[2], math.nan,
                                             math.nan)
        return x_m, math.inf, (signal_m, math.nan, math.nan), interference

    d_s = _distances(pico_points, np.zeros(2))
    x_s, signal_s, int_s, all_s = links(pico, d_s)
    s_pos = pico_points[int(np.argmin(d_s))]
    _, signal_b, int_b, _ = links(macro, _distances(macro_points, s_pos))
    interference = {DuplexMode.FDD: (int_m, int_s, int_b)}
    if ibfd:
        # S is the nearest pico to itself, at distance 0
        int_b_cross = links(pico, _distances(pico_points, s_pos))[2]
        interference[DuplexMode.IBFD] = (int_m + all_s, int_s + all_m,
                                         int_b + int_b_cross)
    return x_m, x_s, (signal_m, signal_s, signal_b), interference


def estimate_metrics(params, th, mode=DuplexMode.IBFD, n_trials=20_000,
                     window=montecarlo.SimulationWindow(), master_seed=0):
    """montecarlo.tally_metrics of a one-mode pass drawn for this call
    alone."""
    run = montecarlo.simulate_pass(params, (mode,), n_trials, window,
                                   master_seed)
    return montecarlo.tally_metrics(run, params, th, mode)


def _scalar_sir(signal, interference):
    """montecarlo._sir of one trial, on Python floats."""
    if interference <= 0.0:
        return montecarlo._SIR_CAP
    return min(signal / interference, montecarlo._SIR_CAP)


def _binomial(hits, n):
    p = hits / n
    return montecarlo.EstimateWithCI(p, math.sqrt(p * (1.0 - p) / n), n)


def reference_tally(run, params, th, mode):
    """montecarlo.tally_metrics as a loop over the trials of a
    SimulationPass: the tier decision and one scalar SIR at a time
    (_scalar_sir)."""
    n_assoc_s = hits_s = hits_m = 0
    rates = []
    access_share, backhaul_share, macro_share = band_shares(params, mode)
    residual = montecarlo._self_interference(params, mode)
    exponent = params.alpha_s / params.alpha_m
    for x_m, x_s, (s_m, s_a, s_b), (i_m, i_a, i_b) in zip(
            run.x_m.tolist(), run.x_s.tolist(), run.signal.tolist(),
            run.interference[mode].tolist()):
        if x_m > x_s ** exponent / delta_m(params):
            n_assoc_s += 1
            sir_a = _scalar_sir(s_a, i_a)
            sir_sm = _scalar_sir(s_b, i_b + residual)
            if sir_a > th.T_s and sir_sm > th.T_b:
                hits_s += 1
                rates.append(min(access_share * math.log2(1.0 + sir_a),
                                 backhaul_share * math.log2(1.0 + sir_sm)))
        elif (sir_m := _scalar_sir(s_m, i_m)) > th.T_m:
            hits_m += 1
            rates.append(macro_share * math.log2(1.0 + sir_m))
    n_trials = len(run.x_m)
    out = {
        "p_total": _binomial(hits_s + hits_m, n_trials),
        "p_smallcell_joint": _binomial(hits_s, n_trials),
        "p_macro_joint": _binomial(hits_m, n_trials),
        "p_assoc_s": _binomial(n_assoc_s, n_trials),
    }
    n_cov = len(rates)
    if n_cov:
        mean = math.fsum(rates) / n_cov
        var = math.fsum((v - mean) ** 2 for v in rates) / max(n_cov - 1, 1)
        out["rate_total"] = montecarlo.EstimateWithCI(
            mean, math.sqrt(var / n_cov), n_cov)
    return out


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
            f"(estimate {res.error_estimate:.2e})")
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
    # the pico field on its r_s = 1 row, where s_1 = T_s
    J_s = F_s + geom["rs2"] * smallcell._mixed_term(
        s2 / geom["rs_pow_as"], np.array([float(T_s)]), geom, "s_",
        np.zeros(1, dtype=np.intp), idx)
    J_m = (shifted_functional_radius2(s1p, params.alpha_m, geom["ri2"])
           - K1 + smallcell._mixed_term(s2p, s1p, geom, "m_", idx, idx))
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
