"""Test-only reference implementations, kept out of the package.

dense_evaluate_joint is the small-cell joint-coverage panel sum written as
whole-tensor einsums over the live nodes of the cached geometry: every
(node, radial, angular) intermediate is materialized at once.  The package
evaluates the same sums block by block in place; the two differ only in the
order of floating-point summation.

reference_evaluate_user is the simulator's per-trial kernel written on
plain distances: abs + hypot per station, boolean masks to drop the serving
index and sum(h * d**-alpha) per link.  The package works on squared
distances in place and takes each power sum as one dot product; with the
same seed both draw the same fading, so they differ only in rounding.
"""
import math

import numpy as np

from hetnet import montecarlo
from hetnet.analytic import smallcell
from hetnet.analytic.tails import shifted_functional_radius2
from hetnet.core import DuplexMode, delta_m


def dense_mixed_term(s_cross, s_own, geom, prefix, idx):
    """smallcell._mixed_term on the nodes idx, one einsum per sum."""
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


def dense_evaluate_joint(params, T_s, T_b, mode, level=6, case_b_only=False,
                         bearing="circle"):
    """(value, number of live nodes) of smallcell.evaluate_joint, dense."""
    geom = smallcell._geometry(params, level)
    lam_s, lam_m = params.lambda_s, params.lambda_m
    a_s, a_m = params.alpha_s, params.alpha_m
    s1, s2, s1p, s2p = smallcell._sharpness(params, T_s, T_b, geom)
    if mode is DuplexMode.IBFD:
        beta_term = params.beta * (
            s2 if params.self_interference_convention == "ps" else s2p)
        lb = (lam_s * np.maximum(
                  shifted_functional_radius2(s1, a_s, geom["rs2"]),
                  shifted_functional_radius2(s2, a_s, 4.0 * geom["rs2"]))
              + lam_m * np.maximum(
                  shifted_functional_radius2(s1p, a_m, geom["reach_o2"]),
                  shifted_functional_radius2(s2p, a_m, geom["reach_s2"]))
              + beta_term)
    else:
        lb = (lam_s * shifted_functional_radius2(s1, a_s, geom["rs2"])
              + lam_m * shifted_functional_radius2(s2p, a_m,
                                                   geom["reach_s2"]))
    keep = lb < smallcell._SKIP_EXPONENT
    if case_b_only:
        keep = keep & geom["case_b"]
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return 0.0, 0
    s1, s2, s1p, s2p = s1[idx], s2[idx], s1p[idx], s2p[idx]
    if mode is DuplexMode.IBFD:
        J_s = (shifted_functional_radius2(s1, a_s, geom["rs2"][idx])
               + dense_mixed_term(s2, s1, geom, "s_", idx))
        J_m = (shifted_functional_radius2(s1p, a_m, geom["ri2"][idx])
               - _dense_lens(s1p, geom, "k1", idx)
               + dense_mixed_term(s2p, s1p, geom, "m_", idx))
        gbar = np.einsum(
            "nk,k->n",
            1.0 / (1.0 + s1p[:, None] * geom["g_rmnpow_" + bearing][idx]),
            geom["g_w"])
        expo = lam_s * J_s + lam_m * J_m + beta_term[idx]
        weight = geom["f2w"][idx] * gbar
    else:
        J_s = shifted_functional_radius2(s1, a_s, geom["rs2"][idx])
        J_m = (shifted_functional_radius2(s2p, a_m, geom["r2"][idx])
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
