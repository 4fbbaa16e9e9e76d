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
boundaries, all distance powers precomputed and cached per geometry
(rate integrals re-evaluate at many thresholds on one grid).  The pico
field is seen from S with the exclusion disc B(o, r_s), so every length
in J_s scales with r_s: its tables are built once, for r_s = 1, with no
node axis, and a call forms their angular sum once and scales each node's
radial sum by r_s^2 (likewise the access functional F_s).  The macro
field depends on r and R_i as well, so its (node, radial, angular) tensor
is per node; it is built _BLOCK nodes at a time in place in its own
storage (_znpow) and is the bulk of a geometry: 36 MB of 49 MB at level
6 and 166 MB of 223 MB at level 10, at the default parameters.  Each
distance to the user that is built from polar coordinates (x, theta)
around S -- |z| in both mixed terms, r_m in the bearing average, with
theta measured from the ray pointing away from the user (pi - chi, or
the bearing t) -- comes from the half-angle chord form of the law of
cosines, (x - r_s)^2 + 4 r_s x / (1 + tan^2(theta/2)) (_znpow).  It is a
sum of non-negative terms, so it keeps full relative accuracy where a
near interferer makes |z| small, and it needs tan, which numpy runs as an
AVX-512 loop where the CPU has one, instead of cos, which numpy runs
through scalar libm.  A call first drops the nodes whose exponent lower
bound already makes them negligible, then indexes only the live ones.
The macro mixed term runs _BLOCK live nodes at a time: each block is
gathered from the cached tensor into one scratch buffer, turned into
Rayleigh factors in place and reduced over the angular rule by a
matrix-vector product, so no full-size temporary is built.  All scratch
belongs to the call, never to the module: threaded sweeps share the
cached geometries, and the cache is read-only.

evaluate_joint takes K threshold pairs (one rate t-panel) and equals K
scalar calls.  The skip bound grows with both thresholds, so it runs over
all nodes once at the smallest pair; each pair re-applies its own bound to
those candidates only.  What depends on T_s alone (s_1', the J_m access
part, K1, gbar, the macro angular sum) is formed once per (node, T_s).
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
    QuadratureSpec,
    _leggauss,
    gauss_panel_nodes,
)
from .distances import joint_pdf, outer_grid
from .tails import power_tail_nodes, shifted_functional_radius2

__all__ = ["coverage_smallcell_result", "evaluate_joint"]

# exponent above which a node's contribution e^{-E} is treated as zero
_SKIP_EXPONENT = 45.0
# default accuracy targets for the panelized 2-D coverage integral
_COV_ABS_TOL = 5e-5
_COV_REL_TOL = 2e-4
# nodes per block of the macro tensor build and of the mixed-term kernel: a
# block's (node, radial, angular) slab, about 0.6 MB at level 6, stays in
# cache through its passes
_BLOCK = 64

# radial panel ladders, in units of the natural per-node scale; the wide
# span keeps the grid threshold-independent (the 1-g sigmoid may sit
# anywhere below ~10^3 scale units; beyond that the skip guard fires first)
_LADDER_S = np.array([0.0, 0.02, 0.08, 0.2, 0.45, 0.8, 1.3, 2.0, 3.2,
                      5.5, 10.0, 20.0, 40.0, 100.0, 300.0, 1000.0])
_LADDER_M = np.array([1.4, 2.0, 3.0, 5.0, 8.0, 14.0, 25.0, 50.0,
                      120.0, 300.0, 1000.0])


def _clip_cos(x: np.ndarray) -> np.ndarray:
    return np.clip(x, -1.0, 1.0)


def _znpow(d2: np.ndarray, four_rx: np.ndarray, width: np.ndarray,
           gx: np.ndarray, alpha: float) -> np.ndarray:
    """|z|^-alpha with |z|^2 = x^2 + r^2 + 2 x r cos(theta), at the angular
    nodes theta = width/2 (1 - gx) of each row, from the per-row
    d2 = (x - r)^2 and four_rx = 4 x r.

    With t = tan(theta/2), 1 + cos(theta) = 2 / (1 + t^2), so
    |z|^2 = d2 + four_rx / (1 + t^2): the law of cosines as a sum of
    non-negative terms.  It does not cancel where x ~ r and theta ~ pi
    (|z| -> 0), and it calls no cos.  numpy's float64 cos is a scalar libm
    loop, while on a CPU with AVX-512 numpy dispatches tan to an SVML loop
    (17 ns against 2.8 ns per element on a 2-core x86-64 VM, numpy 2.4);
    without AVX-512 np.tan falls back to libm too, and the form keeps only
    its accuracy.

    Built _BLOCK rows at a time in place in the output, with the operations
    of the whole-array expression in its order (so bit-identical to it): no
    temporary the size of the output is ever allocated.
    """
    quarter, gx1 = 0.25 * width, 1.0 - gx
    zn = np.empty(d2.shape + gx.shape)
    for lo in range(0, zn.shape[0], _BLOCK):
        b = slice(lo, lo + _BLOCK)
        z = zn[b]
        np.multiply(quarter[b, ..., None], gx1, out=z)
        np.tan(z, out=z)
        z *= z
        z += 1.0
        np.divide(four_rx[b, ..., None], z, out=z)
        z += d2[b, ..., None]
        z **= -alpha / 2.0
    return zn


def _node_tensors(params: NetworkParams, rs: np.ndarray, r: np.ndarray,
                  ri: np.ndarray, n_rad: int, n_ang: int,
                  n_tail: int) -> dict:
    """Threshold-independent quadrature tensors for a batch of (r_s, r).

    Returns radial weights (which absorb the Jacobian factor l dl), cached
    negative distance powers, angular widths and the angular Gauss weights,
    for the three 1-D/2-D corrections described in the module docstring.
    The pico family ("s_") is one node-free table for r_s = 1 (see
    _pico_mixed_term); every other family is per node.
    """
    alpha_s, alpha_m = params.alpha_s, params.alpha_m
    gx, gw = _leggauss(n_ang)
    # angular nodes mapped later per (node, l) interval [chi_ex, pi]

    out: dict = {"ang_w": gw}

    # --- pico-field mixed term: polar around S, exclusion B(o, 1) --------
    xs, wxs = gauss_panel_nodes(_LADDER_S, n_rad)
    chi_ex = np.arccos(_clip_cos(0.5 * xs))
    out["s_wx"] = wxs * xs          # fold the l dl Jacobian
    out["s_xnpow"] = xs ** -alpha_s
    out["s_width"] = np.pi - chi_ex  # angular interval [chi_ex, pi]
    out["s_znpow"] = _znpow((xs - 1.0) ** 2, 4.0 * xs, out["s_width"], gx,
                            alpha_s)
    xt, wt = power_tail_nodes(_LADDER_S[-1], alpha_s, n_tail)
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
            base[:, None] * _LADDER_M[None, :],
        ],
        axis=1,
    )
    knots_m = np.sort(knots_m, axis=1)
    xm, wxm = gauss_panel_nodes(knots_m, n_rad)
    wxm *= xm
    out["m_wx"] = wxm
    out["m_xnpow"] = xm ** -alpha_m
    chi_ex2 = np.arccos(_clip_cos(
        (rs[:, None] ** 2 + xm ** 2 - ri[:, None] ** 2)
        / np.maximum(2.0 * rs[:, None] * xm, 1e-300)))
    out["m_width"] = np.pi - chi_ex2
    out["m_znpow"] = _znpow((xm - rs[:, None]) ** 2, 4.0 * rs[:, None] * xm,
                            out["m_width"], gx, alpha_m)
    xtm, wtm = power_tail_nodes(base * _LADDER_M[-1], alpha_m, n_tail)
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
    # r_m^2 = r_s^2 + r^2 + 2 r_s r cos(theta) in the chord form of _znpow;
    # its nodes theta = U/2 (1 - x) at x = -gxt are the Gauss nodes on [0, U]
    d2, four_rsr = (rs - r) ** 2, 4.0 * rs * r
    for tag, upper in (("arc", theta_allow),
                       ("circle", np.full_like(rs, np.pi))):
        out["g_rmnpow_" + tag] = _znpow(d2, four_rsr, upper, -gxt, alpha_m)
    return out


# geometry cache: rebuilt when the geometric parameters or level change;
# the lock makes each lookup and each insert-with-eviction atomic, since
# threaded sweeps share the cache.  The bound counts entries, not bytes: at
# the default parameters a geometry holds 6.5 MB at level 3, 49 MB at
# level 6 and 223 MB at level 10 (the macro tensor m_znpow is 4.0, 35.8 and
# 165.5 MB of that), so a full cache of level-10 geometries holds ~1.3 GB
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
    f2w = f2w[live]

    n_rad = max(level, 4)
    n_ang = 12 if level >= 6 else 8
    n_tail = 12 if level >= 6 else 8
    geom = _node_tensors(params, rs, r, ri, n_rad, n_ang, n_tail)
    geom.update(
        f2w=f2w,
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


def _by_rows(fn, n: int) -> np.ndarray:
    """fn(rows) on 16 _BLOCK rows at a time, bounding its temporaries."""
    out = np.empty(n)
    for lo in range(0, n, 16 * _BLOCK):
        b = slice(lo, lo + 16 * _BLOCK)
        out[b] = fn(b)
    return out


def _pico_mixed_term(T_s: float, c: np.ndarray, rs2: np.ndarray,
                     geom: dict) -> np.ndarray:
    """The pico-field mixed term of J_s from the r_s = 1 tables.

    Every length of this term scales with r_s: with z = r_s z', the access
    sharpness s_1 |z|^-a_s = T_s |z'|^-a_s no longer depends on the node,
    the backhaul sharpness s_2 l^-a_s = c l'^-a_s with c = s_2 r_s^-a_s,
    and the area element gives a factor rs2.  So the angular inner sum is
    formed once per call and each node costs one radial dot product.
    """
    inner = (1.0 / (1.0 + T_s * geom["s_znpow"])) @ geom["ang_w"]
    body_w = geom["s_wx"] * geom["s_width"] * inner
    # radial tail: both discs subtend vanishing angles, so the angular
    # factor collapses to 2*pi*g(s_1, l)
    xn, txn = geom["s_xnpow"], geom["s_txnpow"]
    tail_w = geom["s_tw"] * (2.0 * np.pi / (1.0 + T_s * txn))
    return rs2 * _by_rows(
        lambda b: ((1.0 - 1.0 / (1.0 + c[b, None] * xn)) @ body_w
                   + (1.0 - 1.0 / (1.0 + c[b, None] * txn)) @ tail_w),
        c.size)


def _mixed_term(s_cross, s_own, geom: dict, idx: np.ndarray,
                acc: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum_l w_l (1-g(s_cross, l)) * width*Sum_chi w_chi g(s_own, |z|).

    The macro-field mixed term of J_m: s_own is the access-link sharpness
    entering through |z| (distance to the user), s_cross the backhaul-link
    sharpness entering radially from S.  s_own is given per access pair
    (node idx, one T_s), s_cross per entry, whose access pair is acc
    (non-decreasing; default: one each); angular sums are per pair.
    """
    zn = geom["m_znpow"]
    xn, wl, width = geom["m_xnpow"], geom["m_wx"], geom["m_width"]
    txn, tw = geom["m_txnpow"], geom["m_tw"]
    aw = geom["ang_w"]
    if acc is None:
        acc = np.arange(idx.size)
    out = np.empty(acc.size)
    scratch = np.empty((min(idx.size, _BLOCK),) + zn.shape[1:])
    for lo in range(0, idx.size, _BLOCK):
        ib = idx[lo:lo + _BLOCK]
        so = s_own[lo:lo + ib.size, None]
        g = scratch[:ib.size]
        np.take(zn, ib, axis=0, out=g, mode="clip")
        g *= so[..., None]
        g += 1.0
        np.reciprocal(g, out=g)
        inner = (g.reshape(-1, zn.shape[2]) @ aw).reshape(ib.size, -1)
        inner *= width[ib]
        # radial tail: the two discs subtend vanishing angles, g(s_own) ->
        # along the ray, so the angular factor collapses to 2*pi*g(s_own, l)
        own_tail = tw[ib] * (2.0 * np.pi / (1.0 + so * txn[ib]))
        b = slice(*np.searchsorted(acc, (lo, lo + ib.size)))
        if b.stop - b.start > ib.size:  # else acc[b] - lo is the identity
            j = acc[b] - lo
            ib, inner, own_tail = ib[j], inner[j], own_tail[j]
        sc = s_cross[b, None]
        out[b] = (np.einsum("nl,nl->n",
                            wl[ib] * (1.0 - 1.0 / (1.0 + sc * xn[ib])), inner)
                  + np.einsum("nl,nl->n", own_tail,
                              1.0 - 1.0 / (1.0 + sc * txn[ib])))
    return out


def _lens_correction(s, geom: dict, prefix: str,
                     idx: np.ndarray) -> np.ndarray:
    """K-type correction: integral of (1 - g(s, rho)) over a lens shell."""
    xn, w = geom[prefix + "_xnpow"], geom[prefix + "_w"]
    return _by_rows(lambda b: np.einsum(
        "nl,nl->n", w[idx[b]], 1.0 - 1.0 / (1.0 + s[b, None] * xn[idx[b]])),
        idx.size)


def _sharpness(params: NetworkParams, T_s, T_b, rs_pow_as, r_pow_am):
    # (s2, s1p, s2p); s_1 = T_s r_s^a_s is never formed: J_s takes it at
    # r_s = 1 and scales by rs2 (F_s, _pico_mixed_term)
    cap = 1e280
    return (np.minimum((T_b * params.P_s / params.P_m) * r_pow_am, cap),
            np.minimum((T_s * params.P_m / params.P_s) * rs_pow_as, cap),
            np.minimum(T_b * r_pow_am, cap))


def _exponent_bound(params: NetworkParams, mode: DuplexMode, T_s, T_b,
                    geom: dict, nodes) -> np.ndarray:
    """Lower bound on the exponent of each threshold pair (rows) at each of
    the nodes (columns); access terms are formed once per distinct T_s."""
    a_s, a_m = params.alpha_s, params.alpha_m
    ts_u, u_of = np.unique(T_s, return_inverse=True)
    rs2 = geom["rs2"][nodes]
    F_s = (rs2 * shifted_functional_radius2(ts_u, a_s, 1.0)[:, None])[u_of]
    s2, s1p, s2p = _sharpness(params, ts_u[:, None], T_b[:, None],
                              geom["rs_pow_as"][nodes],
                              geom["r_pow_am"][nodes])
    via_s = shifted_functional_radius2(s2p, a_m, geom["reach_s2"][nodes])
    if mode is DuplexMode.FDD:
        return params.lambda_s * F_s + params.lambda_m * via_s
    via_o = shifted_functional_radius2(s1p, a_m, geom["reach_o2"][nodes])
    return (params.lambda_s * np.maximum(
                F_s, shifted_functional_radius2(s2, a_s, 4.0 * rs2))
            + params.lambda_m * np.maximum(via_o[u_of], via_s)
            + params.beta * (
                s2 if params.self_interference_convention == "ps" else s2p))


def evaluate_joint(params: NetworkParams, T_s, T_b, mode: DuplexMode,
                   level: int = 6, bearing: str = "circle"):
    """Single-level evaluation of the joint access+backhaul probability.

    This is the raw panel sum without error control;
    coverage_smallcell_result wraps it with a two-level estimate.  T_s and
    T_b are scalars (the result is a float) or 1-D arrays of one length K
    (K values; a scalar broadcasts); an infinite threshold gives 0.
    ``bearing`` selects the serving-macro bearing convention (module
    docstring).
    """
    T_s, T_b = np.broadcast_arrays(np.asarray(T_s, dtype=float),
                                   np.asarray(T_b, dtype=float))
    if T_s.ndim > 1:
        raise ValueError("thresholds must be scalars or 1-D arrays")
    if not (np.all(T_s > 0.0) and np.all(T_b > 0.0)):
        raise ValueError("thresholds must be strictly positive")
    if bearing not in ("circle", "arc"):
        raise ValueError("bearing must be 'circle' or 'arc'")
    out = np.zeros(T_s.size)
    ks = np.flatnonzero(np.isfinite(T_s) & np.isfinite(T_b))
    if ks.size and (geom := _geometry(params, level))["f2w"].size:
        out[ks] = _joint_batch(params, T_s.ravel()[ks], T_b.ravel()[ks],
                               mode, geom, bearing)[0]
    return float(out[0]) if T_s.ndim == 0 else out


def _joint_batch(params: NetworkParams, T_s: np.ndarray, T_b: np.ndarray,
                 mode: DuplexMode, geom: dict, bearing: str) -> tuple:
    """evaluate_joint for K finite threshold pairs (module docstring):
    (K values, K live-node counts)."""
    lam_s, lam_m = params.lambda_s, params.lambda_m
    # the bound at the smallest thresholds keeps every node any pair keeps
    # (the slack absorbs rounding); each pair then applies its own bound
    lb = _exponent_bound(params, mode, T_s.min(keepdims=True),
                         T_b.min(keepdims=True), geom, slice(None))[0]
    cand = np.flatnonzero(lb < _SKIP_EXPONENT * (1.0 + 1e-12))
    live = (lb[None, cand] if T_s.size == 1 else _exponent_bound(
        params, mode, T_s, T_b, geom, cand)) < _SKIP_EXPONENT
    # (threshold k, node) pairs, node-major and grouped by access threshold
    # u within a node; each distinct (node, u) is one access pair
    ts_u, u_of = np.unique(T_s, return_inverse=True)
    order = np.argsort(u_of, kind="stable")
    pos, j = np.nonzero(live[order].T)
    k = order[j]
    u, node = u_of[k], cand[pos]
    new = (np.diff(node, prepend=-1) != 0) | (np.diff(u, prepend=-1) != 0)
    acc = np.cumsum(new) - 1
    node_a, u_a = node[new], u[new]

    s2, s1p, s2p = _sharpness(params, ts_u[u_a], T_b[k],  # s1p per pair
                              geom["rs_pow_as"][node_a],
                              geom["r_pow_am"][node])
    # exterior-disc functional of the access link, part of J_s exactly; like
    # the pico mixed term it is rs2 times its value at r_s = 1
    rs2 = geom["rs2"][node]
    F_s = rs2 * shifted_functional_radius2(ts_u, params.alpha_s, 1.0)[u]
    if mode is DuplexMode.IBFD:
        c = s2 / geom["rs_pow_as"][node]
        J_s = F_s.copy()
        for i in np.unique(u):
            m = u == i
            J_s[m] += _pico_mixed_term(ts_u[i], c[m], rs2[m], geom)
        J_m = ((shifted_functional_radius2(s1p, params.alpha_m,
                                           geom["ri2"][node_a])
                - _lens_correction(s1p, geom, "k1", node_a))[acc]
               + _mixed_term(s2p, s1p, geom, node_a, acc))
        rm = geom["g_rmnpow_" + bearing]
        gbar = _by_rows(lambda b: (1.0 / (1.0 + s1p[b, None] * rm[node_a[b]]))
                        @ geom["g_w"], node_a.size)
        beta = params.beta * (
            s2 if params.self_interference_convention == "ps" else s2p)
        expo = lam_s * J_s + lam_m * J_m + beta
        weight = geom["f2w"][node] * gbar[acc]
    else:
        J_m = (shifted_functional_radius2(s2p, params.alpha_m,
                                          geom["r2"][node])
               - _lens_correction(s2p, geom, "k2", node))
        expo = lam_s * F_s + lam_m * J_m
        weight = geom["f2w"][node]

    contrib = weight * np.exp(-np.minimum(expo, 700.0))
    # one pairwise sum per threshold pair, over its nodes in grid order
    return (np.array([contrib[k == i].sum() for i in range(T_s.size)]),
            np.bincount(k, minlength=T_s.size))


def coverage_smallcell_result(
    params: NetworkParams, T_s: float, T_b: float,
    mode: DuplexMode = DuplexMode.IBFD,
    spec: Optional[QuadratureSpec] = None,
    bearing: str = "circle",
) -> IntegralResult:
    """Pr{pico association, access SIR > T_s, backhaul SIR > T_b} with a
    two-level panel error estimate.

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
