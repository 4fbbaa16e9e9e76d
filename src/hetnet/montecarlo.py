"""Brute-force estimator: sampled realizations, per-link SIR, empirical rates.

This route shares nothing with the analytic machinery: stations are sampled
in a finite window, fading is drawn per link, interference is summed over
actual points, and events are counted.  Construction mirrors the model
definition exactly:

 - association by biased nearest power: pico iff the nearest macro sits
   beyond delta_m^{-1} * x_s^{a_s/a_m} (ties to macro);
 - pico access SIR at the user: serving pico signal over all other picos,
   all other macros, plus the backhauling macro's own explicit term;
 - backhaul SIR at the serving pico: its nearest macro's signal over all
   other macros, all other picos (shared band), and the residual
   self-interference beta * P (own or macro power by convention);
 - macro access SIR: nearest macro over all other macros plus every pico;
 - FDD keeps only same-tier interferers on each link and no residual term.

Finite-window bias control: by default the expected interference of the
field outside the sampling square is added to every denominator (the
fading-averaged tail is deterministic: intensity * P * integral of
|z|^{-alpha} beyond the square, computed with the exact square-boundary
angular profile, offset by the receiver's displacement from center).  A
torus option wraps distances instead; zero-interference links are capped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .analytic.rates import _band_shares
from .core import DuplexMode, NetworkParams, Thresholds, delta_m

__all__ = [
    "EstimateWithCI",
    "NetworkRealization",
    "SimulationWindow",
    "UserSample",
    "estimate_metrics",
    "evaluate_user",
    "sample_ppp",
]

# stand-in for an interference-free link, keeping rate samples finite
_SIR_CAP = 1e12
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SimulationWindow:
    """Sampling region [-half_width, half_width]^2, optionally a torus."""

    half_width: float = 30.0
    wrap: bool = False

    def __post_init__(self) -> None:
        if not self.half_width > 0:
            raise ValueError("half_width must be > 0")

    @property
    def area(self) -> float:
        return 4.0 * self.half_width ** 2


@dataclass(frozen=True)
class NetworkRealization:
    """One sampled network: station coordinates of both tiers."""

    macro_points: np.ndarray  # shape (N_m, 2)
    pico_points: np.ndarray  # shape (N_s, 2)


@dataclass(frozen=True)
class EstimateWithCI:
    mean: float
    std_error: float
    n_trials: int
    ci95_low: float
    ci95_high: float

    @staticmethod
    def from_mean_se(mean: float, se: float, n: int) -> "EstimateWithCI":
        return EstimateWithCI(mean=mean, std_error=se, n_trials=n,
                              ci95_low=mean - _Z95 * se,
                              ci95_high=mean + _Z95 * se)


@dataclass(frozen=True)
class UserSample:
    """Per-trial outcome for the user at the origin.

    associated_tier is "pico" or "macro"; the SIR fields of the other
    tier's links are nan.
    """

    associated_tier: str
    sir_us: float
    sir_sm: float
    sir_um: float


def sample_ppp(intensity: float, window: SimulationWindow, seed,
               fixed_count: bool = False) -> np.ndarray:
    """Points of a homogeneous process in the window, shape (N, 2).

    seed: anything numpy's default_rng accepts (int or SeedSequence).
    fixed_count replaces the Poisson draw with round(intensity * area),
    reproducing fixed-node-budget setups (a binomial process).
    """
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    rng = np.random.default_rng(seed)
    if fixed_count:
        n = int(round(intensity * window.area))
    else:
        n = int(rng.poisson(intensity * window.area))
    w = window.half_width
    return rng.uniform(-w, w, size=(n, 2))


@lru_cache(maxsize=None)
def _square_tail_angular_factor(alpha: float) -> float:
    """Integral over angle of (boundary radius / w)^{2-alpha} for a square.

    The square's boundary along angle theta sits at w / max(|cos|, |sin|),
    so the fading-averaged interference from outside the square is
    intensity * P * w^{2-alpha}/(alpha-2) * this factor.
    """
    theta, wq = np.polynomial.legendre.leggauss(32)
    theta = 0.125 * math.pi * (theta + 1.0)
    wq = 0.125 * math.pi * wq
    return float(8.0 * np.sum(wq * np.cos(theta) ** (alpha - 2.0)))


def _tail_mean(intensity: float, power: float, alpha: float,
               w_eff: float) -> float:
    """Expected interference from the un-sampled field beyond the window."""
    if intensity == 0.0 or w_eff <= 0.0:
        return 0.0
    return intensity * power * w_eff ** (2.0 - alpha) / (alpha - 2.0) \
        * _square_tail_angular_factor(alpha)


def _distances(points: np.ndarray, center: np.ndarray,
               window: SimulationWindow) -> np.ndarray:
    if points.shape[0] == 0:
        return np.empty(0)
    diff = np.abs(points - center)
    if window.wrap:
        period = 2.0 * window.half_width
        diff = np.minimum(diff, period - diff)
    return np.hypot(diff[:, 0], diff[:, 1])


def _power_sum(power: float, h: np.ndarray, d: np.ndarray,
               alpha: float) -> float:
    if d.size == 0:
        return 0.0
    return float(power * np.sum(h * d ** (-alpha)))


def _sir(signal: float, interference: float) -> float:
    if interference <= 0.0:
        return _SIR_CAP
    return min(signal / interference, _SIR_CAP)


def evaluate_user(realization: NetworkRealization, params: NetworkParams,
                  mode: DuplexMode, seed,
                  window: Optional[SimulationWindow] = None,
                  tail_compensation: bool = True) -> UserSample:
    """SIR outcome for the typical user at the origin of one realization.

    seed drives the fading draws only (i.i.d. unit-mean exponential per
    station per receiving link).  The window is needed for torus metrics
    and edge compensation; it defaults to the desk-scale window.
    """
    if window is None:
        window = SimulationWindow()
    if realization.macro_points.shape[0] == 0:
        raise ValueError("no station in tier: macro")
    rng = np.random.default_rng(seed)
    origin = np.zeros(2)
    m_pts, s_pts = realization.macro_points, realization.pico_points
    d_m = _distances(m_pts, origin, window)
    d_s = _distances(s_pts, origin, window)
    comp_on = tail_compensation and not window.wrap
    a_m, a_s = params.alpha_m, params.alpha_s

    def macro_tail(center_dist: float) -> float:
        if not comp_on:
            return 0.0
        return _tail_mean(params.lambda_m, params.P_m, a_m,
                          window.half_width - center_dist)

    def pico_tail(center_dist: float) -> float:
        if not comp_on:
            return 0.0
        return _tail_mean(params.lambda_s, params.P_s, a_s,
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
        return UserSample(associated_tier="macro", sir_us=math.nan,
                          sir_sm=math.nan,
                          sir_um=_sir(signal, interference))

    i_pico = int(np.argmin(d_s))
    s_pos = s_pts[i_pico]
    r_s = float(d_s[i_pico])
    d_m_from_s = _distances(m_pts, s_pos, window)
    i_backhaul = int(np.argmin(d_m_from_s))
    r = float(d_m_from_s[i_backhaul])

    # access link, receiver at the user
    h_s_user = rng.exponential(size=d_s.shape)
    signal_us = params.P_s * float(h_s_user[i_pico]) * r_s ** (-a_s)
    mask_s = np.arange(d_s.size) != i_pico
    int_us = _power_sum(params.P_s, h_s_user[mask_s], d_s[mask_s], a_s)
    int_us += pico_tail(0.0)
    if mode is DuplexMode.IBFD:
        # every macro interferes, the backhauling one via its own term
        h_m_user = rng.exponential(size=d_m.shape)
        int_us += _power_sum(params.P_m, h_m_user, d_m, a_m)
        int_us += macro_tail(0.0)

    # backhaul link, receiver at the serving pico
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

    return UserSample(associated_tier="pico",
                      sir_us=_sir(signal_us, int_us),
                      sir_sm=_sir(signal_sm, int_sm),
                      sir_um=math.nan)


def _iter_samples(params: NetworkParams, mode: DuplexMode, n_trials: int,
                  window: SimulationWindow, master_seed: int,
                  fixed_count: bool, tail_compensation: bool):
    """Yield one UserSample per trial, independently seeded per trial.

    Each trial gets its own SeedSequence child, split again into the two
    point-process draws and the fading draw, so results are reproducible
    and independent of evaluation order.
    """
    if n_trials <= 0:
        raise ValueError("n_trials must be >= 1")
    children = np.random.SeedSequence(master_seed).spawn(n_trials)
    for child in children:
        seed_m, seed_s, seed_fading = child.spawn(3)
        realization = NetworkRealization(
            macro_points=sample_ppp(params.lambda_m, window, seed_m,
                                    fixed_count=fixed_count),
            pico_points=sample_ppp(params.lambda_s, window, seed_s,
                                   fixed_count=fixed_count),
        )
        yield evaluate_user(realization, params, mode, seed_fading,
                            window=window,
                            tail_compensation=tail_compensation)


def _is_covered(sample: UserSample, th: Thresholds) -> bool:
    if sample.associated_tier == "pico":
        return sample.sir_us > th.T_s and sample.sir_sm > th.T_b
    return sample.sir_um > th.T_m


def _binomial_estimate(hits: int, n: int) -> EstimateWithCI:
    p = hits / n
    se = math.sqrt(p * (1.0 - p) / n)
    return EstimateWithCI.from_mean_se(p, se, n)


def _rate_sample(sample: UserSample, params: NetworkParams,
                 mode: DuplexMode) -> float:
    k_a, k_b, macro_prefactor = _band_shares(params, mode)
    if sample.associated_tier == "macro":
        return macro_prefactor * math.log2(1.0 + sample.sir_um)
    n_ratio = params.lambda_s / params.lambda_m
    access = k_a * math.log2(1.0 + sample.sir_us)
    backhaul = params.eta * k_b / n_ratio * math.log2(1.0 + sample.sir_sm)
    return min(access, backhaul)


def estimate_metrics(params: NetworkParams, th: Thresholds,
                     mode: DuplexMode = DuplexMode.IBFD,
                     n_trials: int = 20_000,
                     window: Optional[SimulationWindow] = None,
                     master_seed: int = 0,
                     fixed_count: bool = False,
                     tail_compensation: bool = True,
                     ) -> dict[str, EstimateWithCI]:
    """Every simulated metric at one point, from one batch of trials.

    Coverage keys: p_total, p_smallcell_joint, p_macro_joint, p_assoc_s.
    The tier components count trials that both associate with that tier
    and clear its thresholds, so p_total = p_smallcell_joint +
    p_macro_joint exactly.

    rate_total, present when at least one trial is covered, is the mean
    throughput over covered trials (conditional on coverage; its n_trials
    is the covered count).  Macro users get the macro band share of
    log2(1 + SIR_um); pico users get the lesser of their access share and
    the backhaul share split across the lambda_s/lambda_m picos per
    macro.  Summation uses fsum so the estimate does not depend on
    accumulation order.
    """
    if window is None:
        window = SimulationWindow()
    hits_s = hits_m = n_assoc_s = 0
    rates = []
    for sample in _iter_samples(params, mode, n_trials, window, master_seed,
                                fixed_count, tail_compensation):
        covered = _is_covered(sample, th)
        if sample.associated_tier == "pico":
            n_assoc_s += 1
            hits_s += covered
        else:
            hits_m += covered
        if covered:
            rates.append(_rate_sample(sample, params, mode))
    out = {
        "p_total": _binomial_estimate(hits_s + hits_m, n_trials),
        "p_smallcell_joint": _binomial_estimate(hits_s, n_trials),
        "p_macro_joint": _binomial_estimate(hits_m, n_trials),
        "p_assoc_s": _binomial_estimate(n_assoc_s, n_trials),
    }
    n_cov = len(rates)
    if n_cov:
        mean = math.fsum(rates) / n_cov
        var = math.fsum((v - mean) ** 2 for v in rates) / max(n_cov - 1, 1)
        out["rate_total"] = EstimateWithCI.from_mean_se(
            mean, math.sqrt(var / n_cov), n_cov)
    return out
