"""Brute-force estimator: sampled realizations, per-link SIR, empirical rates.

This route shares nothing with the analytic machinery: stations are sampled
in a finite window, fading is drawn per link, interference is summed over
actual points, and events are counted.  Construction mirrors the model
definition exactly:

 - association by biased nearest power: pico iff the nearest macro sits
   beyond delta_m^{-1} * x_s^{a_s/a_m} (ties to macro), decided in the
   tally from the two distances;
 - pico access SIR at the user: nearest pico signal over all other picos,
   all other macros, plus the backhauling macro's own explicit term;
 - backhaul SIR at that pico: its nearest macro's signal over all other
   macros, all other picos (shared band), and the residual
   self-interference beta * P_s or beta * P_m, which the tally adds;
 - macro access SIR: nearest macro over all other macros plus every pico;
 - FDD keeps only same-tier interferers on each link and no residual term.

Finite-window bias control: the expected interference of the field
outside the sampling square is added to every denominator (the
fading-averaged tail is deterministic: intensity * P * integral of
|z|^{-alpha} beyond the square, computed with the exact square-boundary
angular profile from its center, for every receiver); zero-interference
links are capped.

Per-trial kernel: neither candidate link, nor the backhaul, reads the
biases, so every trial records all three.  One fade per station per
receiver: each tier at the user gives its nearest station's power and
the rest of its power sum, which both the macro and the pico access link
read.  A power sum turns fresh squared distances into path gains in
place and is P * einsum("i,i->", h, g): numpy's own loop, not a BLAS dot
product, whose result depends on the BLAS thread count.  The FDD links
read their own tier's sums; IBFD adds the other tier's, drawn last at the
backhaul, so one draw serves both modes.

Pass and tally: simulate_pass returns a SimulationPass, per-trial columns
of distances and link powers that read only NetworkParams.network.
tally_metrics, its one reader, decides each trial's tier, adds the
residual self-interference to the backhaul's interference, forms every
SIR with _sir's cap and counts the trials against the thresholds.  Trial
i draws (sample_ppp, evaluate_user) from one generator seeded by
SeedSequence(master_seed, spawn_key=(i,)), so a pass splits into ranges
of trials over the usable CPUs (fanout.fan_out), joined in trial order:
bit-identical for any split.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import SeedSequence, default_rng

from .core import DuplexMode, NetworkParams, Thresholds, band_shares, delta_m
from .fanout import fan_out, process_count

__all__ = [
    "EstimateWithCI",
    "SimulationPass",
    "SimulationWindow",
    "evaluate_user",
    "sample_ppp",
    "simulate_pass",
    "tally_metrics",
]

# stand-in for an interference-free link, keeping rate samples finite
_SIR_CAP = 1e12
_Z95 = 1.959963984540054
# a pass is split only into ranges of at least this many trials
_MIN_CHUNK_TRIALS = 250


@dataclass(frozen=True)
class SimulationWindow:
    """How the simulator samples a network.

    The region is [-half_width, half_width]^2.  Each tier's station
    count is Poisson.
    """

    half_width: float = 30.0

    def __post_init__(self) -> None:
        if not self.half_width > 0:
            raise ValueError("half_width must be > 0")
        if not math.isfinite(4.0 * self.half_width * self.half_width):
            raise ValueError(
                f"half_width {self.half_width!r} is too large: the window "
                f"area is not finite")

    @property
    def area(self) -> float:
        return 4.0 * self.half_width ** 2


@dataclass(frozen=True)
class EstimateWithCI:
    mean: float
    std_error: float
    n_trials: int

    ci95_low = property(lambda self: self.mean - _Z95 * self.std_error)
    ci95_high = property(lambda self: self.mean + _Z95 * self.std_error)


@dataclass(frozen=True, eq=False)
class SimulationPass:
    """Per-trial candidate links of the user at the origin, in trial order.

    x_m and x_s are the distances to the nearest macro and pico (inf with
    no pico), from which tally_metrics decides the tier.  signal is an
    (n, 3) array of the (macro, pico access, backhaul) signals, the pico
    links nan with no pico; interference maps each mode to the same
    links' (n, 3) interference, the backhaul's without the residual
    self-interference, which tally_metrics adds.
    """

    x_m: np.ndarray
    x_s: np.ndarray
    signal: np.ndarray
    interference: dict


def sample_ppp(intensity: float, window: SimulationWindow,
               rng: np.random.Generator) -> np.ndarray:
    """Points of a homogeneous process in the window, shape (N, 2), drawn
    from rng: a Poisson count of mean intensity * area, then its uniform
    positions.
    """
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    n = int(rng.poisson(intensity * window.area))
    w = window.half_width
    # rng.uniform(-w, w, (n, 2)) bit for bit, in less time
    points = rng.random((n, 2))
    points *= 2.0 * w
    points += -w
    return points


@lru_cache(maxsize=None)
def _square_tail_angular_factor(alpha: float) -> float:
    """Integral over angle of (boundary radius / w)^{2-alpha} for a square.

    The square's boundary along angle theta sits at w / max(|cos|, |sin|),
    so the fading-averaged interference from outside the square is
    intensity * P * w^{2-alpha}/(alpha-2) * this factor.
    """
    theta, wq = leggauss(32)
    theta = 0.125 * math.pi * (theta + 1.0)
    wq = 0.125 * math.pi * wq
    return float(8.0 * np.sum(wq * np.cos(theta) ** (alpha - 2.0)))


def _tail_mean(intensity: float, power: float, alpha: float,
               half_width: float) -> float:
    """Expected interference from the un-sampled field beyond the window,
    seen from its center: every link's tail (docs/DECISIONS.md, entry 13)."""
    return intensity * power * half_width ** (2.0 - alpha) / (alpha - 2.0) \
        * _square_tail_angular_factor(alpha)


def _sq_distances(points: np.ndarray, center) -> np.ndarray:
    """Squared distances from center, as a fresh array."""
    # per coordinate: an (N, 2) form is 3-11x slower at 3,600-72,000 points
    d2 = points[:, 0] - center[0]
    d2 *= d2
    dy = points[:, 1] - center[1]
    dy *= dy
    d2 += dy
    return d2


@np.errstate(divide="ignore", invalid="ignore")
def _sir(signal: np.ndarray, interference: np.ndarray) -> np.ndarray:
    """signal / interference, capped at _SIR_CAP, and the cap if it is <= 0."""
    ratio = np.minimum(np.divide(signal, interference), _SIR_CAP)
    return np.where(interference > 0.0, ratio, _SIR_CAP)


# one error state per trial, not one per power sum
@np.errstate(divide="ignore")
def evaluate_user(macro_points: np.ndarray, pico_points: np.ndarray,
                  params: NetworkParams, modes: tuple,
                  rng: np.random.Generator,
                  window: SimulationWindow = SimulationWindow()) -> tuple:
    """(x_m, x_s, signal, {mode: interference}) of the user at the origin
    of one sampled network (its stations' (N, 2) coordinates by tier): one
    trial of a SimulationPass.  signal and each interference are (macro,
    pico access, backhaul) triples, the pico links nan and x_s inf with no
    pico; the dict holds FDD and, with IBFD in modes, IBFD.

    rng draws the fades, one unit-mean exponential per station and
    receiver: macros, then picos at the user, macros at the nearest pico
    S, then, in IBFD only, picos at S.  A zero distance raises no warning:
    a station at the user gives an infinite signal, which the tally caps.
    """
    if macro_points.shape[0] == 0:
        raise ValueError("no station in tier: macro")
    w = window.half_width
    macro = (params.P_m, params.alpha_m,
             _tail_mean(params.lambda_m, params.P_m, params.alpha_m, w))
    pico = (params.P_s, params.alpha_s,
            _tail_mean(params.lambda_s, params.P_s, params.alpha_s, w))

    def field(tier, d2, serve):
        """(station serve's power, the rest of tier's power sum plus its
        tail); tier is (power, alpha, tail).  d2 becomes the gains
        d^{-alpha}, so a coincident interferer gives an infinite sum."""
        power, alpha, tail = tier
        gain = float(np.sqrt(d2[serve]) ** -alpha)
        h = rng.standard_exponential(size=d2.shape)
        if alpha == 4.0:
            np.multiply(d2, d2, out=d2)
            np.reciprocal(d2, out=d2)
        else:
            np.power(d2, -0.5 * alpha, out=d2)
        d2[serve] = 0.0
        return (power * float(h[serve]) * gain,
                power * float(np.einsum("i,i->", h, d2)) + tail)

    d2_m = _sq_distances(macro_points, (0.0, 0.0))
    d2_s = _sq_distances(pico_points, (0.0, 0.0))
    i_m = int(np.argmin(d2_m))
    x_m = math.sqrt(d2_m[i_m])
    signal_m, rest_m = field(macro, d2_m, i_m)
    ibfd = DuplexMode.IBFD in modes
    if d2_s.size == 0:
        # the pico field reduces to its tail
        interference = {DuplexMode.FDD: (rest_m, math.nan, math.nan)}
        if ibfd:
            interference[DuplexMode.IBFD] = (rest_m + pico[2], math.nan,
                                             math.nan)
        return x_m, math.inf, (signal_m, math.nan, math.nan), interference

    # each candidate link's IBFD interference adds the other tier's whole
    # sum at the user; the backhaul's adds every pico but S
    i_s = int(np.argmin(d2_s))
    x_s = math.sqrt(d2_s[i_s])
    signal_s, rest_s = field(pico, d2_s, i_s)
    d2_m_at_s = _sq_distances(macro_points, pico_points[i_s])
    signal_b, rest_b = field(macro, d2_m_at_s, int(np.argmin(d2_m_at_s)))
    interference = {DuplexMode.FDD: (rest_m, rest_s, rest_b)}
    if ibfd:
        interference[DuplexMode.IBFD] = (
            rest_m + (rest_s + signal_s), rest_s + (rest_m + signal_m),
            rest_b + field(pico, _sq_distances(pico_points, pico_points[i_s]),
                           i_s)[1])
    return x_m, x_s, (signal_m, signal_s, signal_b), interference


def _self_interference(params: NetworkParams, mode: DuplexMode) -> float:
    """beta * P_s ("ps") or beta * P_m ("pm") in IBFD, 0.0 in FDD."""
    if mode is DuplexMode.FDD:
        return 0.0
    own = params.self_interference_convention == "ps"
    return params.beta * (params.P_s if own else params.P_m)


def _binomial_estimate(hit: np.ndarray) -> EstimateWithCI:
    """The share of the trials marked in hit, with its standard error."""
    n = hit.size
    p = int(np.count_nonzero(hit)) / n
    return EstimateWithCI(p, math.sqrt(p * (1.0 - p) / n), n)


def _chunk_samples(params: NetworkParams, modes: tuple,
                   window: SimulationWindow, master_seed: int, start: int,
                   stop: int) -> list:
    """The evaluate_user results of trials start..stop-1.  Trial i draws
    its macros, then its picos, then its fades from one generator seeded
    by SeedSequence(master_seed, spawn_key=(i,)): child i of
    SeedSequence(master_seed), rebuilt from its spawn key."""
    samples = []
    for i in range(start, stop):
        rng = default_rng(SeedSequence(master_seed, spawn_key=(i,)))
        # bound to locals, not passed as temporaries: the last trial's
        # arrays then live until this trial's are drawn, so the allocator
        # keeps their pages instead of returning them to the OS and
        # faulting them in again (docs/DECISIONS.md, entry 12)
        macro_points = sample_ppp(params.lambda_m, window, rng)
        pico_points = sample_ppp(params.lambda_s, window, rng)
        samples.append(evaluate_user(macro_points, pico_points, params,
                                     modes, rng, window=window))
    return samples


def simulate_pass(params: NetworkParams, modes: tuple, n_trials: int,
                  window: SimulationWindow,
                  master_seed: int) -> SimulationPass:
    """The SimulationPass of n_trials seeded trials, in trial order, run
    in one range per usable CPU (none shorter than _MIN_CHUNK_TRIALS)."""
    if n_trials <= 0:
        raise ValueError("n_trials must be >= 1")
    n_chunks = max(1, min(process_count(), n_trials // _MIN_CHUNK_TRIALS))
    bounds = [n_trials * k // n_chunks for k in range(n_chunks + 1)]
    trials = [trial for chunk in fan_out(_chunk_samples, [
        (params, modes, window, master_seed, start, stop)
        for start, stop in zip(bounds, bounds[1:])]) for trial in chunk]
    x_m, x_s, signal, interference = zip(*trials)
    return SimulationPass(
        np.array(x_m), np.array(x_s), np.array(signal),
        {mode: np.array([links[mode] for links in interference])
         for mode in modes})


def tally_metrics(run: SimulationPass, params: NetworkParams, th: Thresholds,
                  mode: DuplexMode) -> dict[str, EstimateWithCI]:
    """Every simulated metric of one mode of a pass (simulate_pass) at th.

    A trial's user takes the pico tier iff x_m > x_s^(alpha_s/alpha_m) /
    delta_m (ties to macro), so only the tally reads the biases.
    Coverage keys: p_total, p_smallcell_joint, p_macro_joint, p_assoc_s.
    The tier components count trials that both associate with that tier
    and clear its thresholds, so p_total = p_smallcell_joint +
    p_macro_joint exactly.  rate_total, present when a trial is covered,
    is the mean throughput over covered trials (its n_trials is the
    covered count): the macro band share of math.log2(1 + SIR) for macro
    users, the lesser of the access and per-pico backhaul share's for pico
    users, summed with fsum in trial order.
    """
    access_share, backhaul_share, macro_share = band_shares(params, mode)
    pico = run.x_m > run.x_s ** (params.alpha_s / params.alpha_m) \
        / delta_m(params)
    sir = _sir(run.signal, run.interference[mode]
               + [0.0, 0.0, _self_interference(params, mode)])
    hit_s = pico & (sir[:, 1] > th.T_s) & (sir[:, 2] > th.T_b)
    hit_m = ~pico & (sir[:, 0] > th.T_m)
    covered = hit_s | hit_m
    rates = [min(access_share * math.log2(1.0 + a),
                 backhaul_share * math.log2(1.0 + b)) if is_pico
             else macro_share * math.log2(1.0 + m)
             for is_pico, (m, a, b) in zip(pico[covered].tolist(),
                                           sir[covered].tolist())]
    out = {
        "p_total": _binomial_estimate(covered),
        "p_smallcell_joint": _binomial_estimate(hit_s),
        "p_macro_joint": _binomial_estimate(hit_m),
        "p_assoc_s": _binomial_estimate(pico),
    }
    n_cov = len(rates)
    if n_cov:
        mean = math.fsum(rates) / n_cov
        var = math.fsum((v - mean) ** 2 for v in rates) / max(n_cov - 1, 1)
        out["rate_total"] = EstimateWithCI(mean, math.sqrt(var / n_cov),
                                           n_cov)
    return out
