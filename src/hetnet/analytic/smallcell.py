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
(tails.shifted_functional_radius2) minus a 1-D correction over a lens
shell (_lens_shell builds both, K1 and K2); the mixed parts are integrated
in polar coordinates around S, where both exclusion discs subtend angular
intervals.  Each such angle comes from core.chord_angle, and every
Rayleigh complement 1 - g from _one_minus_g.  Everything is vectorized
over a panelized (r_s, r) grid with panel edges pinned to the geometric
case boundaries, all distance powers precomputed and cached per geometry
(rate integrals re-evaluate at many thresholds on one grid).

Both mixed terms run through one kernel, _mixed_term, on tables in one
layout that _field builds: a row per (r_s, R_i), with radial nodes,
angular widths and a (radial, angular) block of distances to the user.
The pico field is seen from S with the exclusion disc B(o, r_s), so every
length in J_s scales with r_s: its tables are a single row, the node
r_s = R_i = 1, where the access sharpness s_1 is T_s itself.  A call
forms that row's angular sum once per distinct T_s, and each node costs
one radial sum, scaled by r_s^2 (likewise the access functional F_s).
The macro field depends on r and R_i as well, so it has a row per node,
and its (node, radial, angular) tensor is the bulk of a geometry (34 MB
of 47 MB allocated at level 6, 158 MB of 214 MB at level 10, at the
default parameters).  _znpow builds it, and every distance to the user
taken from polar coordinates around S, in place from the half-angle
chord form of the law of cosines.  For each threshold pair a call first
drops the nodes whose exponent lower bound reaches their skip exponent
log(f2w N / _SKIP_MASS), N the node count: such a node adds at most
_SKIP_MASS / N (Gbar <= 1), so an evaluation drops at most _SKIP_MASS,
which the coverage and rate error estimates include (docs/DECISIONS.md,
entry 11).  It then indexes only the live nodes.  The radial tables of
both fields are filled on first use, only in the rows a call keeps
(_build_rows, run by _mixed_term), so a geometry holds only the rows its
calls kept: after figure fig9, 29 % of the level-10 macro rows and 68 %
of the level-6 ones; FDD calls build none.  The kernel forms the angular
sums of _BLOCK access pairs (a table row with one T_s) at a time in one
scratch buffer and the radial sums 16 _BLOCK entries (a threshold pair at
a node) at a time in another, so no full-size temporary is built.  All scratch
belongs to the call, never to the module.  A held geometry changes only
where _build_rows fills an unbuilt row, with the values a build of every
row at once would give.

evaluate_joint takes K threshold pairs and equals K scalar calls: one
level of the coverage ladder for every cell of a sweep batch, or one
round of a batch's rate t-panels (coverage_smallcell_result,
rates.rate_smallcell_term_result).  It evaluates each distinct pair once.
The skip bound grows with both thresholds, so it runs over all nodes once
at the smallest pair; each pair re-applies its own bound to those
candidates only, _CHUNK (pair, node) entries at a time, so no temporary
grows with K.  What depends on T_s alone (s_1', the J_m access part, K1,
gbar, the macro angular sum) is formed once per (node, T_s), the pico
angular sum once per T_s and chunk.  Each pair's value is one pairwise
sum over its live nodes in grid order, whatever the batch
(docs/DECISIONS.md, entry 15, gives the one last-bit caveat).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import DuplexMode, NetworkParams, chord_angle
from ..numerics import IntegralResult, _leggauss, gauss_panel_nodes
from .distances import joint_pdf, outer_grid
from .tails import power_tail_nodes, shifted_functional_radius2

__all__ = ["coverage_smallcell_result", "evaluate_joint"]

# probability one evaluation may drop: a node is skipped for a threshold
# pair once its exponent lower bound reaches its skip exponent (_geometry)
_SKIP_MASS = 1e-9
# accuracy targets for the panelized 2-D coverage integral
_COV_ABS_TOL = 5e-5
_COV_REL_TOL = 2e-4
# nodes per block of the macro tensor build and of the mixed-term kernel: a
# block's (node, radial, angular) slab, about 0.6 MB at level 6, stays in
# cache through its passes
_BLOCK = 64
# (threshold pair, node) entries per chunk of a batched call: _joint_batch
# takes the candidate nodes in chunks of at most this many entries, which
# bounds its temporaries whatever the number of pairs
_CHUNK = 512 * _BLOCK

# radial panel ladders, in units of the natural per-node scale; the wide
# span keeps the grid threshold-independent (the 1-g sigmoid may sit
# anywhere below ~10^3 scale units; beyond that the skip guard fires first)
_LADDER_S = np.array([0.0, 0.02, 0.08, 0.2, 0.45, 0.8, 1.3, 2.0, 3.2,
                      5.5, 10.0, 20.0, 40.0, 100.0, 300.0, 1000.0])
_LADDER_M = np.array([1.4, 2.0, 3.0, 5.0, 8.0, 14.0, 25.0, 50.0,
                      120.0, 300.0, 1000.0])


def _znpow(d2: np.ndarray, four_rx: np.ndarray, width: np.ndarray,
           gx: np.ndarray, alpha: float,
           out: Optional[np.ndarray] = None) -> np.ndarray:
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

    Built _BLOCK rows at a time in place in the output (out, if given),
    with the operations of the whole-array expression in its order (so
    bit-identical to it): no temporary the size of the output is ever
    allocated.
    """
    quarter, gx1 = 0.25 * width, 1.0 - gx
    zn = np.empty(d2.shape + gx.shape) if out is None else out
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

    Returns the angular Gauss rule and, per family, radial weights
    (which absorb the Jacobian factor l dl), cached negative distance
    powers and angular widths, for the three 1-D/2-D corrections described
    in the module docstring.  Both mixed-term families come from _field in
    one layout, a row per node, whose radial tables _mixed_term fills on
    first use; the pico family ("s_") has a single row, the node
    r_s = R_i = 1, which every node scales (module docstring).
    """
    alpha_s, alpha_m = params.alpha_s, params.alpha_m
    gx, gw = _leggauss(n_ang)

    out: dict = {"ang_x": gx, "ang_w": gw}

    # --- pico-field mixed term: exclusion B(o, r_s), whose lengths all
    #     scale with r_s; one row, at r_s = 1 ------------------------------
    one = np.ones(1)
    _field(out, "s_", _LADDER_S[None, :], one, one, one * _LADDER_S[-1],
           n_ang, alpha_s, n_rad, n_tail)

    # --- macro-field mixed term: exclusions B(o, R_i) (angular) and
    #     B(S, r) (radial lower limit); one row per node -------------------
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
    knots_m.sort(axis=1)
    _field(out, "m_", knots_m, rs, ri, base * _LADDER_M[-1], n_ang, alpha_m,
           n_rad, n_tail)

    # --- lens corrections: K1, the user-centered shell of B(S, r) beyond
    #     R_i, and K2, the S-centered shell of B(o, R_i) beyond r ---------
    for tag, lo, far in (("k1", ri, r), ("k2", r, ri)):
        out[tag + "_w"], out[tag + "_xnpow"] = _lens_shell(
            rs, lo, far, max(n_rad, 6), alpha_m)

    # --- serving-macro bearing average -----------------------------------
    # both conventions share the normalized Gauss weights: nodes are mapped
    # onto [0, U] with U = pi (circle) or U = theta_allow (arc), and the
    # 1/U density makes U cancel out of the weighted mean
    gxt, gwt = _leggauss(16)
    theta_allow = np.pi - chord_angle(rs, r, ri)
    out["g_w"] = 0.5 * gwt
    # r_m^2 = r_s^2 + r^2 + 2 r_s r cos(theta) in the chord form of _znpow;
    # its nodes theta = U/2 (1 - x) at x = -gxt are the Gauss nodes on [0, U]
    d2, four_rsr = (rs - r) ** 2, 4.0 * rs * r
    for tag, upper in (("arc", theta_allow),
                       ("circle", np.full_like(rs, np.pi))):
        out["g_rmnpow_" + tag] = _znpow(d2, four_rsr, upper, -gxt, alpha_m)
    return out


def _field(out: dict, prefix: str, knots: np.ndarray, rs: np.ndarray,
           ri: np.ndarray, far: np.ndarray, n_ang: int, alpha: float,
           n_rad: int, n_tail: int) -> None:
    """Tables of one field's mixed term into out, under prefix: a row per
    (r_s, R_i), in polar coordinates around S.  The radial rule runs over
    the panels knots, then a power tail beyond far; at radius l the arc
    outside B(o, R_i) is [chi_ex, pi], chi_ex = chord_angle(r_s, l, R_i),
    and its angular nodes are mapped onto it per (row, l).

    The tail tables are built here.  The radial ones (wx, xnpow, width,
    znpow) are only allocated: _build_rows fills a row on its first use,
    from the inputs kept here (knot rows, r_s, R_i, alpha) and marks it in
    the built-row mask."""
    n_l = (knots.shape[1] - 1) * n_rad
    out.update({prefix + "knots": knots, prefix + "rs": rs,
                prefix + "ri": ri, prefix + "alpha": np.float64(alpha),
                prefix + "built": np.zeros(knots.shape[0], dtype=bool)})
    for k in ("wx", "xnpow", "width"):
        out[prefix + k] = np.empty((knots.shape[0], n_l))
    out[prefix + "znpow"] = np.empty((knots.shape[0], n_l, n_ang))
    xt, wt = power_tail_nodes(far, alpha, n_tail)
    out[prefix + "tw"] = wt * xt
    out[prefix + "txnpow"] = xt ** -alpha


def _build_rows(geom: dict, prefix: str, idx: np.ndarray) -> None:
    """Fill the rows idx of the prefix field's radial tables (_field) that
    are not built yet, each once, in place: runs of consecutive rows, 16
    _BLOCK rows at a time.  Every entry comes from the same elementwise
    operations as a whole-table build, so it does not depend on which rows
    are built together or when."""
    built = geom[prefix + "built"]
    missing = idx[~built[idx]]
    if not missing.size:
        return
    need = np.zeros_like(built)
    need[missing] = True
    knots, rs, ri = (geom[prefix + k] for k in ("knots", "rs", "ri"))
    alpha = float(geom[prefix + "alpha"])
    n_rad = geom[prefix + "wx"].shape[1] // (knots.shape[1] - 1)  # per panel
    edges = np.flatnonzero(np.diff(need, prepend=False, append=False))
    for start, stop in edges.reshape(-1, 2):
        for lo in range(start, stop, 16 * _BLOCK):
            rows = slice(lo, min(lo + 16 * _BLOCK, stop))
            r_s, r_i = rs[rows, None], ri[rows, None]
            x, wx = gauss_panel_nodes(knots[rows], n_rad)
            wx *= x                 # fold the l dl Jacobian
            geom[prefix + "wx"][rows] = wx
            geom[prefix + "xnpow"][rows] = x ** -alpha
            width = geom[prefix + "width"][rows]
            np.subtract(np.pi, chord_angle(r_s, x, r_i), out=width)
            _znpow((x - r_s) ** 2, 4.0 * r_s * x, width, geom["ang_x"],
                   alpha, out=geom[prefix + "znpow"][rows])
    built |= need


def _lens_shell(rs, lo, far, n: int, alpha: float) -> tuple:
    """(weights, rho^-alpha) of a radial rule over the disc of radius far,
    centered r_s away, beyond radius lo; the weights fold in rho drho and
    the width 2 chord_angle of each circle in the disc.  Knots where that
    arc opens (|r_s - far|) and closes (r_s + far), and at the root of
    their product."""
    gap, reach = np.abs(rs - far), rs + far
    knots = np.sort(np.stack([
        lo, np.maximum(gap, lo), np.maximum(np.sqrt(gap * reach), lo),
        np.maximum(reach, lo)], axis=1), axis=1)
    rho, w = gauss_panel_nodes(knots, n)
    width = 2.0 * chord_angle(rs[:, None], rho, far[:, None])
    return w * rho * width, rho ** -alpha


# the geometries of one network and biases, by level, in this process (the
# package runs no threads).  A call at another point drops them all before
# it builds: no command comes back to an earlier one (docs/DECISIONS.md,
# entry 10), so a process holds at most one point's ladder, which at the
# default point allocates 6.3, 47 and 214 MB at levels 3, 6 and 10
_HELD: dict = {}


def _geometry(params: NetworkParams, level: int) -> dict:
    """Outer (r_s, r) panel grid + per-node tensors, held per network and
    biases (the grid's disc radii read them).

    level is the Gauss order per outer panel; inner orders scale with it.
    """
    key = (params.network, params.B_m, params.B_s)
    if key not in _HELD:
        _HELD.clear()
    held = _HELD.setdefault(key, {})
    if level in held:
        return held[level]

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
        skip=np.log(f2w * (f2w.size / _SKIP_MASS)),  # module docstring
        rs_pow_as=rs ** params.alpha_s,
        r_pow_am=r ** params.alpha_m,
        ri2=ri ** 2, rs2=rs ** 2, r2=r ** 2,
        reach_o2=np.maximum(ri, rs + r) ** 2,   # disc around o covering both voids
        reach_s2=np.maximum(r, rs + ri) ** 2,   # disc around S covering both voids
    )
    held[level] = geom
    return geom


def _by_rows(fn, n: int) -> np.ndarray:
    """fn(rows) on 16 _BLOCK rows at a time, bounding its temporaries."""
    out = np.empty(n)
    for lo in range(0, n, 16 * _BLOCK):
        b = slice(lo, lo + 16 * _BLOCK)
        out[b] = fn(b)
    return out


def _one_minus_g(s, xn, out=None):
    """1 - g(s, x) = 1 - 1/(1 + s x^-alpha), from xn = x^-alpha, formed in
    place in out (which may be xn) when it is given.

    This form cancels where s xn is small (about 11 digits left at 1e-5;
    the radial tails reach xn = 4e-15).  s xn/(1 + s xn) does not, but it
    moves small-cell values past the tolerances of bench/reference/fig9.csv
    (docs/DECISIONS.md, entry 6)."""
    out = np.multiply(s, xn, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return np.subtract(1.0, out, out=out)


def _mixed_term(s_cross, s_own, geom: dict, prefix: str, idx: np.ndarray,
                acc: np.ndarray) -> np.ndarray:
    """Sum_l w_l (1-g(s_cross, l)) * width*Sum_chi w_chi g(s_own, |z|).

    The mixed term of the pico ("s_") or macro ("m_") field: s_own is the
    access-link sharpness entering through |z| (distance to the user),
    s_cross the backhaul-link sharpness entering radially from S.  s_own
    is given per access pair (table row idx, one T_s), s_cross per entry,
    whose access pair is acc (non-decreasing, every pair at least once).
    The rows of idx are built first (_build_rows).  Angular sums are per
    pair, _BLOCK pairs at a time in one scratch buffer; radial sums run 16
    _BLOCK entries at a time in another, and read the pairs' angular sums
    in place when each pair has one entry or the chunk has one pair.
    """
    _build_rows(geom, prefix, idx)
    zn, xn, txn = (geom[prefix + k] for k in ("znpow", "xnpow", "txnpow"))
    wl, width, tw = (geom[prefix + k] for k in ("wx", "width", "tw"))
    aw = geom["ang_w"]
    out = np.empty(acc.size)
    scratch = np.empty((min(idx.size, _BLOCK),) + zn.shape[1:])
    radial = np.empty((2, min(acc.size, 16 * _BLOCK), zn.shape[1]))
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
        inner *= wl[ib]
        # radial tail: the two discs subtend vanishing angles, g(s_own) ->
        # along the ray, so the angular factor collapses to 2*pi*g(s_own, l)
        own_tail = tw[ib] * (2.0 * np.pi / (1.0 + so * txn[ib]))
        start, stop = np.searchsorted(acc, (lo, lo + ib.size))
        for c in range(start, stop, 16 * _BLOCK):
            b = slice(c, min(c + 16 * _BLOCK, stop))
            j = acc[b] - lo
            rows, sc = ib[j], s_cross[b, None]
            cross = radial[0, :j.size]
            cross = _one_minus_g(
                sc, np.take(xn, rows, axis=0, out=cross, mode="clip"),
                out=cross)
            if stop - start == ib.size or j[0] == j[-1]:
                # an entry per pair, or one pair: its sums, not copies
                # (copies made fig14's warm IBFD rate terms 8% slower)
                j = slice(j[0], j[-1] + 1)
                pair_inner = inner[j]
            else:
                pair_inner = np.take(inner, j, axis=0,
                                     out=radial[1, :j.size], mode="clip")
            out[b] = (np.einsum("nl,nl->n", cross, pair_inner)
                      + np.einsum("nl,nl->n", own_tail[j],
                                  _one_minus_g(sc, txn[rows])))
    return out


def _lens_correction(s, geom: dict, prefix: str,
                     idx: np.ndarray) -> np.ndarray:
    """K-type correction: integral of (1 - g(s, rho)) over a lens shell."""
    xn, w = geom[prefix + "_xnpow"], geom[prefix + "_w"]
    return _by_rows(lambda b: np.einsum(
        "nl,nl->n", w[idx[b]], _one_minus_g(s[b, None], xn[idx[b]])),
        idx.size)


def _sharpness(params: NetworkParams, T_s, T_b, rs_pow_as, r_pow_am):
    # (s2, s1p, s2p); s_1 = T_s r_s^a_s is never formed: J_s takes it at
    # r_s = 1, where it is T_s, and scales by rs2 (F_s and the pico row of
    # _mixed_term)
    cap = 1e280
    return (np.minimum((T_b * params.P_s / params.P_m) * r_pow_am, cap),
            np.minimum((T_s * params.P_m / params.P_s) * rs_pow_as, cap),
            np.minimum(T_b * r_pow_am, cap))


def _self_interference(params: NetworkParams, s2, s2p):
    """beta_term of the exponent (module docstring)."""
    return params.beta * (
        s2 if params.self_interference_convention == "ps" else s2p)


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
            + _self_interference(params, s2, s2p))


def evaluate_joint(params: NetworkParams, T_s, T_b, mode: DuplexMode,
                   level: int = 6, bearing: str = "circle"):
    """Single-level evaluation of the joint access+backhaul probability.

    This is the raw panel sum without error control;
    coverage_smallcell_result builds a two-level estimate from it.  T_s and
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
        # each distinct pair once
        pairs, same = np.unique(np.stack([T_s.ravel()[ks], T_b.ravel()[ks]]),
                                axis=1, return_inverse=True)
        out[ks] = _joint_batch(params, pairs[0], pairs[1], mode, geom,
                               bearing)[0][same.ravel()]
    return float(out[0]) if T_s.ndim == 0 else out


def _joint_batch(params: NetworkParams, T_s: np.ndarray, T_b: np.ndarray,
                 mode: DuplexMode, geom: dict, bearing: str) -> tuple:
    """evaluate_joint for K distinct finite threshold pairs (module
    docstring): (K values, K live-node counts)."""
    # the bound at the smallest thresholds keeps every node any pair keeps
    # (the slack absorbs rounding, and is never negative); each pair then
    # applies its own bound
    skip = geom["skip"]
    lb = _exponent_bound(params, mode, T_s.min(keepdims=True),
                         T_b.min(keepdims=True), geom, slice(None))[0]
    cand = np.flatnonzero(lb < skip + 1e-12 * np.abs(skip))
    ts_u, u_of = np.unique(T_s, return_inverse=True)
    by_u = np.argsort(u_of, kind="stable")
    # each pair's contributions, chunk by chunk in grid order
    parts: list = [[] for _ in range(T_s.size)]
    n_live = np.zeros(T_s.size, dtype=np.intp)
    step = max(1, _CHUNK // T_s.size)
    for lo in range(0, cand.size, step):
        nodes = cand[lo:lo + step]
        # K = 1 reuses lb; recomputing it made a warm L6 FDD call 1.5, not
        # 1.2 ms
        live = (lb[None, nodes] if T_s.size == 1 else _exponent_bound(
            params, mode, T_s, T_b, geom, nodes)) < skip[nodes]
        # (threshold k, node) entries, node-major and grouped by access
        # threshold u within a node
        pos, j = np.nonzero(live[by_u].T)
        if not pos.size:
            continue
        k = by_u[j]
        contrib = _contributions(params, mode, geom, bearing, ts_u,
                                 u_of[k], T_b[k], nodes[pos])
        # a stable sort by pair keeps each pair's entries in grid order
        counts = np.bincount(k, minlength=T_s.size)
        ends = np.cumsum(counts)
        contrib = contrib[np.argsort(k, kind="stable")]
        for i in np.flatnonzero(counts):
            parts[i].append(contrib[ends[i] - counts[i]:ends[i]])
        n_live += counts
    # one pairwise sum per threshold pair, over its nodes in grid order
    return (np.array([np.concatenate(part).sum() if part else 0.0
                      for part in parts]), n_live)


def _contributions(params: NetworkParams, mode: DuplexMode, geom: dict,
                   bearing: str, ts_u: np.ndarray, u: np.ndarray,
                   T_b: np.ndarray, node: np.ndarray) -> np.ndarray:
    """f2w Gbar e^-E of each (threshold pair, node) entry, given its node,
    its backhaul threshold and the index u of its access threshold in
    ts_u; the entries are node-major and grouped by u within a node, so
    each distinct (node, u) is one access pair."""
    lam_s, lam_m = params.lambda_s, params.lambda_m
    new = (np.diff(node, prepend=-1) != 0) | (np.diff(u, prepend=-1) != 0)
    acc = np.cumsum(new) - 1
    node_a, u_a = node[new], u[new]

    s2, s1p, s2p = _sharpness(params, ts_u[u_a], T_b,  # s1p per pair
                              geom["rs_pow_as"][node_a],
                              geom["r_pow_am"][node])
    # exterior-disc functional of the access link, part of J_s exactly; like
    # the pico mixed term it is rs2 times its value at r_s = 1
    rs2 = geom["rs2"][node]
    F_s = rs2 * shifted_functional_radius2(ts_u, params.alpha_s, 1.0)[u]
    if mode is DuplexMode.IBFD:
        # the pico field on its r_s = 1 row: an access pair per T_s that
        # has a live node, with s_1 = T_s and s_2 = s2 r_s^-a_s
        live_u, pair = np.unique(u, return_inverse=True)
        by_u = np.argsort(pair, kind="stable")
        mixed_s = np.empty(node.size)
        mixed_s[by_u] = _mixed_term(
            (s2 / geom["rs_pow_as"][node])[by_u], ts_u[live_u], geom, "s_",
            np.zeros(live_u.size, dtype=np.intp), pair[by_u])
        J_s = F_s + rs2 * mixed_s
        J_m = ((shifted_functional_radius2(s1p, params.alpha_m,
                                           geom["ri2"][node_a])
                - _lens_correction(s1p, geom, "k1", node_a))[acc]
               + _mixed_term(s2p, s1p, geom, "m_", node_a, acc))
        rm = geom["g_rmnpow_" + bearing]
        gbar = _by_rows(lambda b: (1.0 / (1.0 + s1p[b, None] * rm[node_a[b]]))
                        @ geom["g_w"], node_a.size)
        expo = lam_s * J_s + lam_m * J_m + _self_interference(params, s2, s2p)
        weight = geom["f2w"][node] * gbar[acc]
    else:
        J_m = (shifted_functional_radius2(s2p, params.alpha_m,
                                          geom["r2"][node])
               - _lens_correction(s2p, geom, "k2", node))
        expo = lam_s * F_s + lam_m * J_m
        weight = geom["f2w"][node]
    return weight * np.exp(-np.minimum(expo, 700.0))


def coverage_smallcell_result(
    params: NetworkParams, T_s, T_b,
    mode: DuplexMode = DuplexMode.IBFD,
    bearing: str = "circle",
):
    """Pr{pico association, access SIR > T_s, backhaul SIR > T_b} with a
    two-level panel error estimate.

    T_s and T_b are scalars (one IntegralResult) or 1-D arrays of one
    length K (a list of K results; a scalar broadcasts).  The ladder walks
    levels 3, 6 and 10 with one evaluate_joint call per level, the one at
    level 10 only at the pairs that (6,3) left unconverged, so each pair
    is evaluated at most once per level.  The value is the finest level
    reached; the error estimate is its difference against the level below,
    plus the _SKIP_MASS its skipped nodes may hold.  One escalation, (6,3)
    to (10,6), on the level gap alone, is attempted before reporting
    non-convergence.  Each pair's result equals its scalar call.
    """
    T_s, T_b = np.broadcast_arrays(np.asarray(T_s, dtype=float),
                                   np.asarray(T_b, dtype=float))
    pairs = np.atleast_1d(T_s), np.atleast_1d(T_b)
    value, gap = np.zeros(T_s.size), np.zeros(T_s.size)
    converged, skipped = np.ones(T_s.size, dtype=bool), 0.0
    if params.lambda_s > 0.0:  # else the pico tier is empty: a null event
        skipped, todo = _SKIP_MASS, np.arange(T_s.size)
        coarse = evaluate_joint(params, *pairs, mode, level=3,
                                bearing=bearing)
        for level in (6, 10):
            fine = evaluate_joint(params, *(t[todo] for t in pairs), mode,
                                  level=level, bearing=bearing)
            value[todo], gap[todo] = fine, np.abs(fine - coarse[todo])
            converged[todo] = gap[todo] <= np.maximum(
                _COV_ABS_TOL, _COV_REL_TOL * np.abs(fine))
            coarse[todo] = fine
            todo = todo[~converged[todo]]
            if not todo.size:
                break
    results = [IntegralResult(value=min(max(v, 0.0), 1.0),
                              error_estimate=e + skipped, converged=c)
               for v, e, c in zip(value.tolist(), gap.tolist(),
                                  converged.tolist())]
    return results[0] if T_s.ndim == 0 else results
