"""Joint coverage of the pico access link and its wireless backhaul.

For a user served by a pico S (access distance r_s) whose backhaul runs to
the nearest macro M (distance r), coverage requires both links up at once:
access SIR at the user above T_s and backhaul SIR at S above T_b.  With
Rayleigh fading every interferer contributes a product of two independent
Laplace factors g(s, x) = 1/(1 + s x^{-alpha}), one per link, and the PPP
expectation turns the interferer fields into exponential functionals:

  Pr = Int f(r_s, r) * exp(-l_s J_s - l_m J_m - beta_term) * Gbar dr dr_s

  J_s over the pico field (outside the user's nearest-pico disc B(o, r_s)):
      integrand 1 - g(s_1, |z|) g(s_2, |z - S|),
      s_1 = T_s r_s^a_s (access), s_2 = T_b (P_s/P_m) r^a_m (backhaul).
  J_m over the macro field (outside B(o, R_i) and B(S, r)):
      integrand 1 - g(s_1', |z|) g(s_2', |z - S|),
      s_1' = T_s (P_m/P_s) r_s^a_s, s_2' = T_b r^a_m.
  beta_term: residual self-interference of the full-duplex pico,
      beta * s_2 (own-power convention, default) or beta * s_2'.
  Gbar: the serving macro M itself interferes with the access link, as an
      average of g(s_1', r_m) with r_m^2 = r_s^2 + r^2 + 2 r_s r cos(t)
      over the bearing t of M seen from S.  Two bearing conventions are
      implemented.  bearing="circle" (default) averages t uniformly over
      the whole circle, decoupling the bearing from the association
      geometry; this is the convention behind the reference curves the
      figure presets regress against.  bearing="arc" restricts t to the
      arc where r_m >= R_i -- the exact conditional law given that no
      macro sits inside the user's exclusion disc -- and is what the
      Monte Carlo estimator converges to.  The two differ visibly when
      the inner disc is large relative to the backhaul distance (sparse
      pico deployments); "circle" then admits impossible close bearings
      and reads low.

FDD separates the tiers into orthogonal bands: J_s keeps only its access
part, J_m only its backhaul part, and there is no self-interference or
serving-macro factor (the bearing convention is moot).

Numerical layout: each J splits as 1 - g1 g2 = (1 - g1) + g1 (1 - g2).
The (1 - g1) parts reduce to the closed-form exterior-disc functional
(tails.shifted_functional_radius2) minus a 1-D lens correction; the mixed
parts are integrated in polar coordinates around S, where both exclusion
discs subtend simple angular intervals.  Everything is vectorized over a
panelized (r_s, r) grid with panel edges pinned to the geometric case
boundaries, all distance powers precomputed and reused across thresholds
(rate integrals re-evaluate at many thresholds on one grid).
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

from ..core import DuplexMode, NetworkParams
from ..numerics import (
    IntegralResult,
    NonConvergenceError,
    QuadratureSpec,
    _leggauss,
    gauss_panel_nodes,
)
from .distances import inner_disc_radius, joint_pdf, outer_grid
from .tails import power_tail_nodes, shifted_functional_radius2

__all__ = [
    "coverage_smallcell",
    "coverage_smallcell_result",
    "evaluate_joint",
    "intersection_given_coverage",
    "j_components",
]

# exponent above which a node's contribution e^{-E} is treated as zero
_SKIP_EXPONENT = 45.0
# default accuracy targets for the panelized 2-D coverage integral
_COV_ABS_TOL = 5e-5
_COV_REL_TOL = 2e-4

# radial panel ladders, in units of the natural per-node scale; the wide
# span keeps the grid threshold-independent (the 1-g sigmoid may sit
# anywhere below ~10^3 scale units; beyond that the skip guard fires first)
_LADDER_S = np.array([0.0, 0.02, 0.08, 0.2, 0.45, 0.8, 1.3, 2.0, 3.2,
                      5.5, 10.0, 20.0, 40.0, 100.0, 300.0, 1000.0])
_LADDER_M = np.array([1.4, 2.0, 3.0, 5.0, 8.0, 14.0, 25.0, 50.0,
                      120.0, 300.0, 1000.0])


def _clip_cos(x: np.ndarray) -> np.ndarray:
    return np.clip(x, -1.0, 1.0)


def _node_tensors(params: NetworkParams, rs: np.ndarray, r: np.ndarray,
                  ri: np.ndarray, n_rad: int, n_ang: int,
                  n_tail: int) -> dict:
    """Threshold-independent quadrature tensors for a batch of (r_s, r).

    Returns per-node radial nodes/weights (weights absorb the Jacobian
    factor l dl), cached negative distance powers, angular half-widths and
    the angular Gauss rule, for the three 1-D/2-D corrections described in
    the module docstring.
    """
    alpha_s, alpha_m = params.alpha_s, params.alpha_m
    N = rs.size
    gx, gw = _leggauss(n_ang)
    # angular nodes mapped later per (node, l) interval [chi_ex, pi]

    out: dict = {"ang_x": gx, "ang_w": gw}

    # --- pico-field mixed term: polar around S, exclusion B(o, r_s) ------
    knots_s = rs[:, None] * _LADDER_S[None, :]
    xs, wxs = gauss_panel_nodes(knots_s, n_rad)
    chi_ex = np.arccos(_clip_cos(xs / (2.0 * rs[:, None])))
    half = 0.5 * (np.pi - chi_ex)
    chi = chi_ex[..., None] + half[..., None] * (gx + 1.0)
    z2 = (rs[:, None, None] ** 2 + xs[..., None] ** 2
          - 2.0 * rs[:, None, None] * xs[..., None] * np.cos(chi))
    out["s_x"] = xs
    out["s_wx"] = wxs * xs          # fold the l dl Jacobian
    out["s_xnpow"] = xs ** -alpha_s
    out["s_half"] = half
    out["s_znpow"] = np.maximum(z2, 1e-300) ** (-alpha_s / 2.0)
    xt, wt = power_tail_nodes(rs * _LADDER_S[-1], alpha_s, n_tail)
    out["s_tx"] = xt
    out["s_tw"] = wt
    out["s_txnpow"] = xt ** -alpha_s

    # --- macro-field mixed term: polar around S, exclusions B(o, R_i)
    #     (angular) and B(S, r) (radial lower limit) ----------------------
    base = np.maximum(r, rs + ri)
    knots_m = np.concatenate(
        [
            r[:, None] * np.array([1.0, 1.12, 1.3, 1.6])[None, :],
            np.clip(np.abs(ri - rs), r, None)[:, None],
            np.clip(ri + rs, r, None)[:, None],
            base[:, None] * _LADDER_M[None, :],
        ],
        axis=1,
    )
    knots_m = np.sort(knots_m, axis=1)
    xm, wxm = gauss_panel_nodes(knots_m, n_rad)
    cos_in = (rs[:, None] ** 2 + xm ** 2 - ri[:, None] ** 2) \
        / np.maximum(2.0 * rs[:, None] * xm, 1e-300)
    chi_ex2 = np.arccos(_clip_cos(cos_in))
    half2 = 0.5 * (np.pi - chi_ex2)
    chi2 = chi_ex2[..., None] + half2[..., None] * (gx + 1.0)
    z2m = (rs[:, None, None] ** 2 + xm[..., None] ** 2
           - 2.0 * rs[:, None, None] * xm[..., None] * np.cos(chi2))
    out["m_x"] = xm
    out["m_wx"] = wxm * xm
    out["m_xnpow"] = xm ** -alpha_m
    out["m_half"] = half2
    out["m_znpow"] = np.maximum(z2m, 1e-300) ** (-alpha_m / 2.0)
    xtm, wtm = power_tail_nodes(base * _LADDER_M[-1], alpha_m, n_tail)
    out["m_tx"] = xtm
    out["m_tw"] = wtm
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
    out["k1_x"] = rho1
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
    out["k2_x"] = rho2
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
    out["g_w"] = np.broadcast_to(0.5 * gwt, (N, gwt.size))
    for tag, upper in (("arc", theta_allow[:, None]), ("circle", np.pi)):
        theta = 0.5 * upper * (gxt + 1.0)
        rm2 = rs[:, None] ** 2 + r[:, None] ** 2 \
            + 2.0 * rs[:, None] * r[:, None] * np.cos(theta)
        # the circle convention reaches bearings with r_m ~ |r_s - r|; the
        # floor only guards the r_s = r cancellation (g -> 0 there anyway)
        out["g_rmnpow_" + tag] = np.maximum(rm2, 1e-60) ** (-alpha_m / 2.0)
    out["theta_allow"] = theta_allow
    return out


# geometry cache: rebuilt when the geometric parameters or level change;
# the lock makes each lookup and each insert-with-eviction atomic, since
# threaded sweeps share the cache
_GEOM_CACHE: OrderedDict = OrderedDict()
_GEOM_CACHE_MAX = 6
_GEOM_LOCK = threading.Lock()


def _geometry_key(params: NetworkParams, level: int) -> tuple:
    return (level, params.lambda_m, params.lambda_s, params.P_m, params.P_s,
            params.B_m, params.B_s, params.alpha_m, params.alpha_s)


def _geometry(params: NetworkParams, level: int) -> dict:
    """Outer (r_s, r) panel grid + per-node tensors, cached.

    level is the Gauss order per outer panel; inner orders scale with it.
    """
    key = _geometry_key(params, level)
    with _GEOM_LOCK:
        hit = _GEOM_CACHE.get(key)
        if hit is not None:
            _GEOM_CACHE.move_to_end(key)
            return hit

    g = outer_grid(params, level)
    f2 = joint_pdf(g["rs"], g["r"], params)
    f2w = f2 * g["w"]
    live = f2w > (f2w.max() * 1e-15 if f2w.size else 0.0)
    rs, r, ri = g["rs"][live], g["r"][live], g["ri"][live]
    nu_lo, nu_hi = g["nu_lo"][live], g["nu_hi"][live]
    f2w = f2w[live]

    n_rad = max(level, 4)
    n_ang = 12 if level >= 6 else 8
    n_tail = 12 if level >= 6 else 8
    geom = _node_tensors(params, rs, r, ri, n_rad, n_ang, n_tail)
    geom.update(
        rs=rs, r=r, ri=ri, f2w=f2w,
        case_b=(r > nu_lo) & (r < nu_hi),
        rs_pow_as=rs ** params.alpha_s,
        r_pow_am=r ** params.alpha_m,
        ri2=ri ** 2, rs2=rs ** 2, r2=r ** 2,
        reach_o2=np.maximum(ri, rs + r) ** 2,   # disc around o covering both voids
        reach_s2=np.maximum(r, rs + ri) ** 2,   # disc around S covering both voids
    )
    with _GEOM_LOCK:
        _GEOM_CACHE[key] = geom
        if len(_GEOM_CACHE) > _GEOM_CACHE_MAX:
            _GEOM_CACHE.popitem(last=False)
    return geom


def _mixed_term(s_cross, s_own, geom: dict, prefix: str) -> np.ndarray:
    """Sum_l w_l (1-g(s_cross, l)) * 2*half*Sum_chi w_chi g(s_own, |z|).

    prefix selects the pico ("s_") or macro ("m_") tensor family; s_own is
    the access-link sharpness entering through |z| (distance to the user),
    s_cross the backhaul-link sharpness entering radially from S.
    """
    xn = geom[prefix + "xnpow"]
    zn = geom[prefix + "znpow"]
    wl = geom[prefix + "wx"]
    half = geom[prefix + "half"]
    aw = geom["ang_w"]
    one_minus = 1.0 - 1.0 / (1.0 + s_cross[:, None] * xn)
    inner = np.einsum("nlk,k->nl", 1.0 / (1.0 + s_own[:, None, None] * zn), aw)
    body = np.einsum("nl,nl->n", wl * one_minus, 2.0 * half * inner)
    # radial tail: the two discs subtend vanishing angles, g(s_own) -> along
    # the ray, so the angular factor collapses to 2*pi*g(s_own, l)
    txn = geom[prefix + "txnpow"]
    tw = geom[prefix + "tw"]
    tx = geom[prefix + "tx"]
    tail = np.einsum(
        "nl,nl->n",
        tw * tx,
        (1.0 - 1.0 / (1.0 + s_cross[:, None] * txn))
        * (2.0 * np.pi / (1.0 + s_own[:, None] * txn)),
    )
    return body + tail


def _lens_correction(s, geom: dict, prefix: str) -> np.ndarray:
    """K-type correction: integral of (1 - g(s, rho)) over a lens shell."""
    xn = geom[prefix + "_xnpow"]
    w = geom[prefix + "_w"]
    return np.einsum("nl,nl->n", w, 1.0 - 1.0 / (1.0 + s[:, None] * xn))


def _sharpness(params: NetworkParams, T_s: float, T_b: float, geom: dict):
    cap = 1e280
    s1 = np.minimum(T_s * geom["rs_pow_as"], cap)
    s2 = np.minimum((T_b * params.P_s / params.P_m) * geom["r_pow_am"], cap)
    s1p = np.minimum((T_s * params.P_m / params.P_s) * geom["rs_pow_as"], cap)
    s2p = np.minimum(T_b * geom["r_pow_am"], cap)
    return s1, s2, s1p, s2p


def evaluate_joint(params: NetworkParams, T_s: float, T_b: float,
                   mode: DuplexMode, level: int = 6,
                   case_b_only: bool = False,
                   bearing: str = "circle") -> float:
    """Single-level evaluation of the joint access+backhaul probability.

    This is the raw panel sum without error control; coverage_smallcell
    wraps it with a two-level estimate.  With ``case_b_only`` the outer
    mass is restricted to lens-intersection geometries (the Bayes
    numerator of intersection_given_coverage).  ``bearing`` selects the
    serving-macro bearing convention (module docstring).
    """
    if not (T_s > 0.0 and T_b > 0.0):
        raise ValueError("thresholds must be strictly positive")
    if bearing not in ("circle", "arc"):
        raise ValueError("bearing must be 'circle' or 'arc'")
    if not (math.isfinite(T_s) and math.isfinite(T_b)):
        return 0.0
    geom = _geometry(params, level)
    if geom["rs"].size == 0:
        return 0.0
    lam_s, lam_m = params.lambda_s, params.lambda_m
    alpha_s, alpha_m = params.alpha_s, params.alpha_m
    s1, s2, s1p, s2p = _sharpness(params, T_s, T_b, geom)

    if mode is DuplexMode.IBFD:
        beta_term = params.beta * (
            s2 if params.self_interference_convention == "ps" else s2p)
        exponent_lb = (
            lam_s * np.maximum(
                shifted_functional_radius2(s1, alpha_s, geom["rs2"]),
                shifted_functional_radius2(s2, alpha_s, 4.0 * geom["rs2"]))
            + lam_m * np.maximum(
                shifted_functional_radius2(s1p, alpha_m, geom["reach_o2"]),
                shifted_functional_radius2(s2p, alpha_m, geom["reach_s2"]))
            + beta_term
        )
    else:
        beta_term = None
        exponent_lb = (
            lam_s * shifted_functional_radius2(s1, alpha_s, geom["rs2"])
            + lam_m * shifted_functional_radius2(s2p, alpha_m,
                                                 geom["reach_s2"])
        )
    keep = exponent_lb < _SKIP_EXPONENT
    if case_b_only:
        keep = keep & geom["case_b"]
    if not np.any(keep):
        return 0.0
    idx = np.flatnonzero(keep)
    sub = _restrict(geom, idx) if idx.size < 0.7 * keep.size else geom
    if sub is not geom:
        s1, s2, s1p, s2p = s1[idx], s2[idx], s1p[idx], s2p[idx]
        if beta_term is not None:
            beta_term = beta_term[idx]
        mask = None
    else:
        mask = keep if idx.size < keep.size or case_b_only else None
        if case_b_only and mask is None:
            mask = geom["case_b"]

    if mode is DuplexMode.IBFD:
        J_s = (shifted_functional_radius2(s1, alpha_s, sub["rs2"])
               + _mixed_term(s2, s1, sub, "s_"))
        J_m = (shifted_functional_radius2(s1p, alpha_m, sub["ri2"])
               - _lens_correction(s1p, sub, "k1")
               + _mixed_term(s2p, s1p, sub, "m_"))
        gbar = np.einsum(
            "nk,nk->n", sub["g_w"],
            1.0 / (1.0 + s1p[:, None] * sub["g_rmnpow_" + bearing]))
        expo = lam_s * J_s + lam_m * J_m + beta_term
        weight = sub["f2w"] * gbar
    else:
        J_s = shifted_functional_radius2(s1, alpha_s, sub["rs2"])
        J_m = (shifted_functional_radius2(s2p, alpha_m, sub["r2"])
               - _lens_correction(s2p, sub, "k2"))
        expo = lam_s * J_s + lam_m * J_m
        weight = sub["f2w"]

    contrib = weight * np.exp(-np.minimum(expo, 700.0))
    if mask is not None:
        contrib = np.where(mask, contrib, 0.0)
    return float(contrib.sum())


def _restrict(geom: dict, idx: np.ndarray) -> dict:
    sub = {}
    for k, v in geom.items():
        if k == "ang_w" or k == "ang_x":
            sub[k] = v
        elif isinstance(v, np.ndarray) and v.shape[:1] == geom["rs"].shape:
            sub[k] = v[idx]
        else:
            sub[k] = v
    return sub


def coverage_smallcell_result(
    params: NetworkParams, T_s: float, T_b: float,
    mode: DuplexMode = DuplexMode.IBFD,
    spec: Optional[QuadratureSpec] = None,
    bearing: str = "circle",
) -> IntegralResult:
    """Joint probability with a two-level panel error estimate.

    The value is the fine-level sum; the error estimate is the difference
    against a coarser panel order.  One escalation to a finer pair is
    attempted before reporting non-convergence.
    """
    if params.lambda_s <= 0.0:  # empty pico tier: the joint event is null
        return IntegralResult(value=0.0, error_estimate=0.0, converged=True)
    abs_tol = _COV_ABS_TOL if spec is None else max(spec.abs_tol, 1e-9)
    rel_tol = _COV_REL_TOL if spec is None else spec.rel_tol
    pairs = ((6, 3), (10, 6))
    value = err = math.nan
    for fine, coarse in pairs:
        v_f = evaluate_joint(params, T_s, T_b, mode, level=fine,
                             bearing=bearing)
        v_c = evaluate_joint(params, T_s, T_b, mode, level=coarse,
                             bearing=bearing)
        value, err = v_f, abs(v_f - v_c)
        if err <= max(abs_tol, rel_tol * abs(v_f)):
            return IntegralResult(value=min(max(value, 0.0), 1.0),
                                  error_estimate=err, converged=True)
    return IntegralResult(value=min(max(value, 0.0), 1.0),
                          error_estimate=err, converged=False)


def coverage_smallcell(params: NetworkParams, T_s: float, T_b: float,
                       mode: DuplexMode = DuplexMode.IBFD,
                       bearing: str = "circle") -> float:
    """Pr{pico association, access SIR > T_s, backhaul SIR > T_b}."""
    res = coverage_smallcell_result(params, T_s, T_b, mode, bearing=bearing)
    if not res.converged:
        raise NonConvergenceError(
            f"joint coverage panel grid not converged "
            f"(estimate {res.error_estimate:.2e})",
            level="smallcell outer (r_s, r) grid", result=res)
    return res.value


def intersection_given_coverage(params: NetworkParams, T_s: float,
                                T_b: float,
                                mode: DuplexMode = DuplexMode.IBFD,
                                bearing: str = "circle") -> float:
    """Probability that the two exclusion discs intersect, conditioned on
    the user being pico-associated and jointly covered (Bayes quotient of
    the lens-restricted and full coverage integrals)."""
    full = evaluate_joint(params, T_s, T_b, mode, level=6, bearing=bearing)
    if full <= 0.0:
        raise ValueError("conditioning event has zero probability")
    part = evaluate_joint(params, T_s, T_b, mode, level=6, case_b_only=True,
                          bearing=bearing)
    return min(max(part / full, 0.0), 1.0)


def j_components(params: NetworkParams, T_s: float, T_b: float,
                 r_s: float, r: float) -> dict:
    """Diagnostic: the pieces of the IBFD integrand at a single (r_s, r).

    Returns J_s, J_m, the serving-macro access factor gbar, and the lens
    corrections, computed through the same vectorized machinery on a
    one-node batch (used by tests to cross-check against direct adaptive
    quadrature of the defining integrals).
    """
    rs = np.array([float(r_s)])
    rr = np.array([float(r)])
    ri = inner_disc_radius(rs, params)
    geom = _node_tensors(params, rs, rr, ri, n_rad=10, n_ang=24, n_tail=16)
    geom.update(rs2=rs ** 2, r2=rr ** 2, ri2=ri ** 2,
                rs_pow_as=rs ** params.alpha_s,
                r_pow_am=rr ** params.alpha_m)
    s1, s2, s1p, s2p = _sharpness(params, T_s, T_b, geom)
    K1 = _lens_correction(s1p, geom, "k1")
    K2 = _lens_correction(s2p, geom, "k2")
    J_s = (shifted_functional_radius2(s1, params.alpha_s, geom["rs2"])
           + _mixed_term(s2, s1, geom, "s_"))
    J_m = (shifted_functional_radius2(s1p, params.alpha_m, geom["ri2"])
           - K1 + _mixed_term(s2p, s1p, geom, "m_"))
    gbar = {
        tag: float(np.einsum(
            "nk,nk->n", geom["g_w"],
            1.0 / (1.0 + s1p[:, None] * geom["g_rmnpow_" + tag]))[0])
        for tag in ("arc", "circle")
    }
    J_m_fdd = (shifted_functional_radius2(s2p, params.alpha_m, geom["r2"])
               - K2)
    return {
        "J_s": float(J_s[0]), "J_m": float(J_m[0]),
        "J_s_fdd": float(shifted_functional_radius2(
            s1, params.alpha_s, geom["rs2"])[0]),
        "J_m_fdd": float(J_m_fdd[0]),
        "K1": float(K1[0]), "K2": float(K2[0]),
        "gbar_arc": gbar["arc"], "gbar_circle": gbar["circle"],
        "theta_allow": float(geom["theta_allow"][0]),
    }
