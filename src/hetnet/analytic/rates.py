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
                       SIR_sm > max(2^{t/k_bh} - 1, T_b)) dt

Band shares (core.band_shares): IBFD runs everything on the whole band
(k_a = k_b = 1, prefactor eta_bar).  FDD orthogonalizes the tiers: the
pico tier's access gets kappa of the band, the macro band gets the rest,
so k_a = kappa, k_b = 1 - kappa, prefactor (1 - kappa) * eta_bar.  The
per-pico backhaul share is k_bh = eta k_b / n.

Both terms are unnormalized: experiments.evaluate_point divides their sum
by the total coverage it integrates once for the same point.

Quadrature: the integrand is constant below the smallest floor breakpoint
(one node times its length) and smooth between and after the breakpoints.
A panel between breakpoints takes the G10 and G5 rules, the tail beyond
the last one, t_b, G10/K21 Gauss-Kronrod panels: a graded panel
t = t_b + _TAIL_GRADE u^2, u in [0, 1], then plain panels of doubling
width until one adds less than _TAIL_TOL.  The difference of each pair is
the panel's error; the last panel counts twice more for the remainder
(the survival is non-increasing and decays exponentially).  The pico term
adds the probability each evaluate_joint call may skip (smallcell
_SKIP_MASS) times the length of t it integrates.  The rule is a generator
that yields each panel's t nodes and takes the survival there, so
_lockstep can run several integrals side by side: the pico terms of a
list of points that differ only in eta and kappa (one small-cell
geometry) share one evaluate_joint call per round, for the panels of
every integral still running; the macro term of one point makes one
coverage_macro_batch call per panel.
"""
from __future__ import annotations

import math

import numpy as np

from ..core import DuplexMode, NetworkParams, Thresholds, band_shares
from ..numerics import IntegralResult, _leggauss, kronrod_panel
from .macro import coverage_macro_batch
from .smallcell import _SKIP_MASS, evaluate_joint

__all__ = ["rate_macro_term_result", "rate_smallcell_term_result"]

# exponent beyond which 2^x - 1 exceeds any SIR the model resolves
_EXP_CAP = 50.0
# absolute tail tolerance for the t-integral
_TAIL_TOL = 1e-8
# length of the graded first tail panel
_TAIL_GRADE = 6.0
_MAX_PANELS = 40


def _survival_integral(breakpoints, abs_error: float = 0.0):
    """Integrate a smooth-between-breakpoints survival function over t>0.

    A generator: it yields the t array of each panel and takes the survival
    values there (send), first for the head node and the panel between the
    breakpoints, then per tail panel; it returns the IntegralResult
    (_lockstep drives it).  breakpoints: one or two sorted positive floats
    where max(...) floors switch off; below the first one the function is
    constant.  abs_error bounds the survival's own error at any t; times
    the length of the t-range the panels cover, it joins the error
    estimate.
    """
    t1, t_b = breakpoints[0], breakpoints[-1]
    rules = (_leggauss(10), _leggauss(5))
    half = 0.5 * (t_b - t1)
    f = yield np.concatenate([[0.5 * t1]] + [
        t1 + half * (gx + 1.0) for gx, _ in rules if t_b > t1])
    value, err = t1 * f[0], 0.0  # constant stretch, any node works
    if t_b > t1:
        fine, coarse = (half * sum(w * v for w, v in zip(gw, part))
                        for (_, gw), part in zip(rules, (f[1:11], f[11:])))
        value += fine
        err += abs(fine - coarse)

    # graded first panel t = t_b + L u^2, then [t_b + (2^k - 1) L,
    # t_b + (2^(k+1) - 1) L] for k = 1, 2, ...
    u, w_k, w_g = kronrod_panel(0.0, 1.0)
    jacobian = 2.0 * _TAIL_GRADE * u
    t, w_k, w_g = (t_b + _TAIL_GRADE * u * u, jacobian * w_k,
                   jacobian * w_g)
    for k in range(1, _MAX_PANELS + 1):
        f = yield t
        fine = f @ w_k
        value += fine
        err += abs(fine - f @ w_g)
        if abs(fine) < _TAIL_TOL:
            err += 2.0 * abs(fine)
            break
        t, w_k, w_g = kronrod_panel(*(t_b + _TAIL_GRADE * (
            2.0 ** np.array([k, k + 1]) - 1.0)))
    # panel k ends at t_b + (2^k - 1) L
    err += abs_error * (t_b + _TAIL_GRADE * (2.0 ** k - 1.0))
    return IntegralResult(value=value, error_estimate=err,
                          converged=bool(abs(fine) < _TAIL_TOL))


def _lockstep(integrals: dict, survival) -> dict:
    """Run _survival_integral generators side by side, by key.  Each round
    makes one survival call: it maps the {key: t array} of the integrals
    still running to their values, a list in that order.  Returns
    {key: IntegralResult}."""
    t = {key: next(integral) for key, integral in integrals.items()}
    done = {}
    while t:
        for key, f in zip(list(t), survival(t)):
            try:
                t[key] = integrals[key].send(f)
            except StopIteration as stop:
                done[key] = stop.value
                del t[key]
    return done


def rate_macro_term_result(params: NetworkParams, th: Thresholds,
                           mode: DuplexMode = DuplexMode.IBFD) -> IntegralResult:
    """Unnormalized macro addend of the covered rate (bits/s/Hz)."""
    prefactor = band_shares(params, mode)[2]
    if prefactor == 0.0 or not math.isfinite(th.T_m):
        # no access bandwidth, or an unsatisfiable floor
        return IntegralResult(value=0.0, error_estimate=0.0, converged=True)
    worst = [0.0, True]  # of the coverage values: relative error, converged

    def survival(ts: np.ndarray) -> np.ndarray:
        out = np.zeros_like(ts)
        live = ts <= 200.0  # beyond, the threshold is out of reach
        out[live], err, ok = coverage_macro_batch(
            params, np.maximum(2.0 ** ts[live] - 1.0, th.T_m), mode)
        worst[:] = (max(worst[0], np.max(err / out[live], initial=0.0)),
                    worst[1] and ok.all())
        return out

    res = _lockstep(
        {0: _survival_integral([math.log2(1.0 + th.T_m)])},
        lambda t: [survival(t[0])])[0]
    # the coverage errors add at most their worst relative share
    error = res.error_estimate + worst[0] * abs(res.value)
    return IntegralResult(value=prefactor * res.value,
                          error_estimate=prefactor * error,
                          converged=bool(res.converged and worst[1]))


def rate_smallcell_term_result(params, th, mode: DuplexMode = DuplexMode.IBFD,
                               bearing: str = "circle") -> list:
    """Unnormalized pico-path addend of the covered rate (bits/s/Hz) at
    each point of the equal-length lists params and th, whose params
    differ only in eta and kappa: a list of IntegralResults.

    The integrals run in lockstep: each round makes one evaluate_joint
    call at the panels of every integral still running.  Each point's
    result equals its one-point call.
    """
    points = list(zip(params, th, strict=True))
    if len({p.joint_key for p, _ in points}) > 1:
        raise ValueError("batched points must differ only in eta and kappa")
    floors, integrals = {}, {}
    for i, (p, t) in enumerate(points):
        if p.eta == 0.0 or p.lambda_s == 0.0 \
                or not (math.isfinite(t.T_s) and math.isfinite(t.T_b)):
            # no backhaul bandwidth (the backhaul exponent blows up for
            # every t > 0), no pico tier at all, or an unsatisfiable floor:
            # the term is 0
            continue
        k_a, k_bh, _ = band_shares(p, mode)
        floors[i] = ((k_a, t.T_s), (k_bh, t.T_b))
        integrals[i] = _survival_integral(
            sorted((k_a * math.log2(1.0 + t.T_s),
                    k_bh * math.log2(1.0 + t.T_b))), _SKIP_MASS)

    def threshold(t: np.ndarray, share: float, floor: float) -> np.ndarray:
        e = t / share
        # past the cap the threshold is out of reach: inf gives 0 at no cost
        return np.where(e > _EXP_CAP, np.inf, np.maximum(
            2.0 ** np.minimum(e, _EXP_CAP) - 1.0, floor))

    def survival(ts: dict) -> list:
        T_s, T_b = zip(*([threshold(t, *floor) for floor in floors[i]]
                         for i, t in ts.items()))
        values = evaluate_joint(points[0][0], np.concatenate(T_s),
                                np.concatenate(T_b), mode, bearing=bearing)
        return np.split(values, np.cumsum([a.size for a in T_s])[:-1])

    done = _lockstep(integrals, survival)
    return [done.get(i, IntegralResult(0.0, 0.0, True))
            for i in range(len(points))]
