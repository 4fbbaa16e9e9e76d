"""Test-only reference implementations, kept out of the package.

dense_evaluate_joint is the small-cell joint-coverage panel sum written as
whole-tensor einsums over the live nodes of the cached geometry: every
(node, radial, angular) intermediate is materialized at once.  The package
evaluates the same sums block by block in place; the two differ only in the
order of floating-point summation.
"""
import numpy as np

from hetnet.analytic import smallcell
from hetnet.analytic.tails import shifted_functional_radius2
from hetnet.core import DuplexMode


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
