"""Covered rate: expected spectral efficiency given coverage.

Every rate is an expectation of a positive variable, computed as the
integral over t > 0 of its survival function.  The macro-user rate is
eta_bar * log2(1 + SIR_um) on the macro access share of the band; the
pico-path rate is the min of the access rate and the per-pico backhaul
share (eta/n of the macro band, n = lambda_s/lambda_m picos per macro).
Conditioning on coverage floors each SIR at its threshold, so the survival
probability is constant until the rate variable's own threshold overtakes
the floor and decays thereafter:

  macro:  prefactor * Int_0^inf Pr(SIR_um > max(2^t - 1, T_m)) dt
  pico:   Int_0^inf Pr(SIR_us > max(2^{t/k_a} - 1, T_s),
                       SIR_sm > max(2^{n t/(eta k_b)} - 1, T_b)) dt

Band shares: IBFD runs everything on the whole band (k_a = k_b = 1,
prefactor eta_bar).  FDD orthogonalizes the tiers: the pico tier's access
gets kappa of the band, the macro band gets the rest, so k_a = kappa,
k_b = 1 - kappa, prefactor (1 - kappa) * eta_bar.

Quadrature: the integrand is exactly constant below the smallest floor
breakpoint and smooth between/after breakpoints, so the t-axis is paneled
at the floor breakpoints and then geometrically; each panel is evaluated
at two Gauss orders for an error estimate, and paneling stops once a
panel's contribution falls below the tail tolerance (the integrand decays
at least as fast as 2^{-t/(k_a alpha_s)} there, so the remainder is
bounded by a geometric series).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ..core import DuplexMode, NetworkParams, Thresholds
from ..numerics import IntegralResult, NonConvergenceError, _leggauss
from .macro import coverage_macro, coverage_macro_result
from .smallcell import coverage_smallcell, evaluate_joint

__all__ = [
    "RateBreakdown",
    "rate_covered",
    "rate_macro_term",
    "rate_macro_term_result",
    "rate_smallcell_term",
    "rate_smallcell_term_result",
]

# exponent beyond which 2^x - 1 exceeds any SIR the model resolves
_EXP_CAP = 50.0
# absolute tail tolerance for the t-integral
_TAIL_TOL = 1e-8
_GEOM_WIDTH0 = 0.6
_GEOM_RATIO = 1.7
_GEOM_WIDTH_MAX = 2.0
_MAX_PANELS = 80


def _band_shares(params: NetworkParams, mode: DuplexMode):
    """(k_access, k_backhaul, macro_prefactor) for the duplexing mode."""
    eta_bar = 1.0 - params.eta
    if mode is DuplexMode.FDD:
        return params.kappa, 1.0 - params.kappa, (1.0 - params.kappa) * eta_bar
    return 1.0, 1.0, eta_bar


def _survival_integral(survival, breakpoints) -> IntegralResult:
    """Integrate a smooth-between-breakpoints survival function over t>0.

    breakpoints: sorted positive floats where max(...) floors switch off;
    below the first one the function is constant.
    """
    t1 = breakpoints[0]
    head = t1 * survival(0.5 * t1)  # constant stretch, any node works
    value, err = head, 0.0

    def panel(lo: float, hi: float, fine: int, coarse: int):
        acc = []
        for order in (fine, coarse):
            gx, gw = _leggauss(order)
            half = 0.5 * (hi - lo)
            nodes = lo + half * (gx + 1.0)
            acc.append(half * sum(w * survival(t)
                                  for t, w in zip(nodes, gw)))
        return acc[0], abs(acc[0] - acc[1])

    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi > lo:
            v, e = panel(lo, hi, 10, 5)
            value += v
            err += e
    lo = breakpoints[-1]
    width = _GEOM_WIDTH0
    converged = False
    for _ in range(_MAX_PANELS):
        v, e = panel(lo, lo + width, 10, 5)
        value += v
        err += e
        lo += width
        width = min(width * _GEOM_RATIO, _GEOM_WIDTH_MAX)
        if abs(v) < _TAIL_TOL:
            # contributions shrink at least geometrically from here (the
            # integrand decays exponentially while widths are capped)
            err += 2.0 * abs(v)
            converged = True
            break
    return IntegralResult(value=value, error_estimate=err,
                          converged=converged)


def rate_macro_term_result(params: NetworkParams, th: Thresholds,
                           mode: DuplexMode = DuplexMode.IBFD) -> IntegralResult:
    prefactor = _band_shares(params, mode)[2]
    if prefactor == 0.0 or not math.isfinite(th.T_m):
        # no access bandwidth, or an unsatisfiable floor
        return IntegralResult(value=0.0, error_estimate=0.0, converged=True)

    def survival(t: float) -> float:
        if t > 200.0:
            return 0.0
        T = max(2.0 ** t - 1.0, th.T_m)
        return coverage_macro_result(params, T, mode).value

    t_star = math.log2(1.0 + th.T_m)
    res = _survival_integral(survival, [t_star])
    return IntegralResult(value=prefactor * res.value,
                          error_estimate=prefactor * res.error_estimate,
                          converged=res.converged)


def rate_smallcell_term_result(params: NetworkParams, th: Thresholds,
                               mode: DuplexMode = DuplexMode.IBFD,
                               bearing: str = "circle") -> IntegralResult:
    if params.eta == 0.0 or params.lambda_s == 0.0 \
            or not (math.isfinite(th.T_s) and math.isfinite(th.T_b)):
        # no backhaul bandwidth (the backhaul exponent blows up for every
        # t > 0), no pico tier at all, or an unsatisfiable floor
        return IntegralResult(value=0.0, error_estimate=0.0, converged=True)
    k_a, k_b, _ = _band_shares(params, mode)
    n = params.picos_per_macro

    def survival(t: float) -> float:
        e_a = t / k_a
        e_b = n * t / (params.eta * k_b)
        if max(e_a, e_b) > _EXP_CAP:
            return 0.0
        T_s = max(2.0 ** e_a - 1.0, th.T_s)
        T_b = max(2.0 ** e_b - 1.0, th.T_b)
        return evaluate_joint(params, T_s, T_b, mode, bearing=bearing)

    t_a = k_a * math.log2(1.0 + th.T_s)
    t_b = (params.eta * k_b / n) * math.log2(1.0 + th.T_b)
    return _survival_integral(survival, sorted((min(t_a, t_b),
                                                max(t_a, t_b))))


def rate_macro_term(params: NetworkParams, th: Thresholds,
                    mode: DuplexMode = DuplexMode.IBFD) -> float:
    """Unnormalized macro addend of the covered rate (bits/s/Hz)."""
    res = rate_macro_term_result(params, th, mode)
    if not res.converged:
        raise NonConvergenceError(
            "macro rate tail integral not converged",
            level="macro rate t-axis", result=res)
    return res.value


def rate_smallcell_term(params: NetworkParams, th: Thresholds,
                        mode: DuplexMode = DuplexMode.IBFD,
                        bearing: str = "circle") -> float:
    """Unnormalized pico-path addend of the covered rate (bits/s/Hz)."""
    res = rate_smallcell_term_result(params, th, mode, bearing=bearing)
    if not res.converged:
        raise NonConvergenceError(
            "pico rate tail integral not converged",
            level="pico rate t-axis", result=res)
    return res.value


@dataclass(frozen=True)
class RateBreakdown:
    """Covered-rate decomposition; the two terms are pre-normalization."""

    rate_total: float
    rate_macro_term: float
    rate_smallcell_term: float
    coverage_used: float


def rate_covered(params: NetworkParams, th: Thresholds,
                 mode: DuplexMode = DuplexMode.IBFD,
                 bearing: str = "circle") -> RateBreakdown:
    """E[rate | coverage]: tier addends normalized by total coverage
    (the p_total of coverage_total, without its per-link conditionals)."""
    macro = rate_macro_term(params, th, mode)
    small = rate_smallcell_term(params, th, mode, bearing=bearing)
    p_cov = min(max(coverage_smallcell(params, th.T_s, th.T_b, mode,
                                       bearing=bearing)
                    + coverage_macro(params, th.T_m, mode), 0.0), 1.0)
    if p_cov <= 0.0:
        raise ValueError("conditioning event has zero probability")
    return RateBreakdown(rate_total=(macro + small) / p_cov,
                         rate_macro_term=macro,
                         rate_smallcell_term=small,
                         coverage_used=p_cov)
