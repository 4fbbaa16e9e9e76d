"""Tests for the sampled-network estimator route.

Structural checks use hand-built realizations where the interferer sets
are small enough to reason about exactly; statistical checks pin seeds
and compare against the analytic route at 3-sigma.
"""
import functools
import math
import multiprocessing
import os
import pathlib
import resource
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np
import pytest
from numpy.random import SeedSequence
from oracles import estimate_metrics, reference_evaluate_user, reference_tally

from hetnet import fanout, montecarlo
from hetnet.analytic import association_probability
from hetnet.core import DuplexMode, NetworkParams, Thresholds, delta_m
from hetnet.experiments import evaluate_point
from hetnet.montecarlo import (
    EstimateWithCI,
    SimulationWindow,
    evaluate_user,
    sample_ppp,
    simulate_pass,
    tally_metrics,
)

TH = Thresholds(T_s=0.1, T_b=0.1, T_m=0.1)


def no_tail(*args) -> float:
    """Stand-in for montecarlo._tail_mean: raw power sums, no tail."""
    return 0.0


@pytest.fixture
def raw_sums(monkeypatch):
    """evaluate_user and its oracle without the out-of-window tail (both
    look montecarlo._tail_mean up at call time)."""
    monkeypatch.setattr(montecarlo, "_tail_mean", no_tail)


class Trial(NamedTuple):
    """One mode's links of one evaluate_user trial: the distances to the
    nearest macro and pico, then the (macro, pico access, backhaul)
    signals and interference, the pico links nan with no pico."""

    x_m: float
    x_s: float
    signal: tuple
    interference: tuple


def user(rel, params, mode, seed, kernel=evaluate_user, **kw) -> Trial:
    """The trial of kernel (evaluate_user or its oracle) for one mode,
    its fades drawn from a generator seeded by seed."""
    x_m, x_s, signal, interference = kernel(
        *rel, params, (mode,), np.random.default_rng(seed), **kw)
    return Trial(x_m, x_s, signal, interference[mode])


def is_pico(trial, params) -> bool:
    """The tier that tally_metrics decides for the trial."""
    return trial.x_m > trial.x_s ** (params.alpha_s / params.alpha_m) \
        / delta_m(params)


def sirs(trial, params, mode) -> tuple:
    """The (macro, pico access, backhaul) SIRs as tally_metrics forms
    them."""
    residual = montecarlo._self_interference(params, mode)
    return tuple(montecarlo._sir(np.array(trial.signal),
                                 np.array(trial.interference)
                                 + [0.0, 0.0, residual]).tolist())


def realization(macros, picos) -> tuple:
    """(macro_points, pico_points), the station arrays of evaluate_user."""
    return tuple(np.asarray(points, dtype=float).reshape(-1, 2)
                 for points in (macros, picos))


def replay(master_seed, i, params, modes, window=SimulationWindow()) -> tuple:
    """Trial i of a pass seeded by master_seed, drawn by the pass's rule:
    one generator seeded by SeedSequence(master_seed, spawn_key=(i,))
    draws the macros, then the picos, then evaluate_user's fades."""
    rng = np.random.default_rng(SeedSequence(master_seed, spawn_key=(i,)))
    macro_points = sample_ppp(params.lambda_m, window, rng)
    pico_points = sample_ppp(params.lambda_s, window, rng)
    return evaluate_user(macro_points, pico_points, params, modes, rng,
                         window=window)


class TestSamplePpp:
    def test_deterministic_for_fixed_seed(self):
        w = SimulationWindow(half_width=10.0)
        a = sample_ppp(3.0, w, np.random.default_rng(123))
        b = sample_ppp(3.0, w, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)
        c = sample_ppp(3.0, w, np.random.default_rng(124))
        assert a.shape != c.shape or not np.array_equal(a, c)

    def test_points_inside_window(self):
        w = SimulationWindow(half_width=4.0)
        pts = sample_ppp(5.0, w, np.random.default_rng(5))
        assert pts.shape[1] == 2
        assert np.all(np.abs(pts) <= w.half_width)

    def test_mean_count_matches_intensity(self):
        w = SimulationWindow(half_width=5.0)
        counts = [sample_ppp(2.0, w, np.random.default_rng(s)).shape[0]
                  for s in range(300)]
        total, expected = sum(counts), 300 * 2.0 * w.area
        assert abs(total - expected) < 4.0 * math.sqrt(expected)

    @pytest.mark.parametrize("half_width", [0.5, 3.0, 30.0, 123.456])
    def test_points_are_the_uniform_draw(self, half_width):
        # the seeded positions are rng.uniform(-w, w, (n, 2)) bit for bit
        w = SimulationWindow(half_width=half_width)
        for seed in (0, 1, 7, 2024, SeedSequence(5, spawn_key=(3, 1))):
            got = sample_ppp(2.0, w, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            n = int(rng.poisson(2.0 * w.area))
            expected = rng.uniform(-half_width, half_width, (n, 2))
            assert got.shape == (n, 2)
            assert np.array_equal(got, expected)

    def test_zero_intensity_gives_empty(self):
        assert sample_ppp(0.0, SimulationWindow(),
                          np.random.default_rng(1)).shape == (0, 2)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            sample_ppp(-1.0, SimulationWindow(), np.random.default_rng(1))

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            SimulationWindow(half_width=0.0)

    def test_window_is_its_half_width_only(self):
        # no setting replaces the Poisson count by a fixed one
        assert [f.name for f in fields(SimulationWindow)] == ["half_width"]
        with pytest.raises(TypeError):
            SimulationWindow(half_width=5.0, fixed_count=True)

    @pytest.mark.parametrize("intensity, half_width",
                             [(2.0, 5.0), (0.05, 3.0), (1e-3, 30.0)])
    def test_count_variance_equals_its_mean(self, intensity, half_width):
        # a Poisson count: its variance is its mean, where a fixed count
        # of round(intensity * area) would have none
        w = SimulationWindow(half_width=half_width)
        n, mean = 400, intensity * w.area
        counts = np.array([sample_ppp(intensity, w,
                                      np.random.default_rng(s)).shape[0]
                           for s in range(n)])
        # the sample variance of n Poisson draws has standard error
        # sqrt((mean + 2 mean^2) / (n - 1))
        se = math.sqrt((mean + 2.0 * mean ** 2) / (n - 1))
        assert abs(counts.var(ddof=1) - mean) < 4.0 * se
        assert abs(counts.mean() - mean) < 4.0 * math.sqrt(mean / n)


class TestEvaluateUser:
    def test_deterministic_for_fixed_seed(self):
        w = SimulationWindow(half_width=8.0)
        rel = realization(sample_ppp(1.0, w, np.random.default_rng(1)),
                          sample_ppp(4.0, w, np.random.default_rng(2)))
        p = NetworkParams()
        a = user(rel, p, DuplexMode.IBFD, seed=7, window=w)
        b = user(rel, p, DuplexMode.IBFD, seed=7, window=w)
        assert a == b

    def test_empty_macro_tier_rejected(self):
        rel = realization(np.empty((0, 2)), [[0.5, 0.0]])
        with pytest.raises(ValueError, match="no station in tier"):
            user(rel, NetworkParams(), DuplexMode.IBFD, seed=0)

    def test_candidate_links_and_nan_pattern(self):
        # lone distant macro, nearby pico: both candidate links and the
        # backhaul are recorded, and the tally picks the pico
        p = NetworkParams()
        rel = realization([[5.0, 0.0]], [[0.4, 0.0]])
        s = user(rel, p, DuplexMode.IBFD, seed=3)
        assert (s.x_m, s.x_s) == (5.0, 0.4) and is_pico(s, p)
        assert all(value > 0 for value in s.signal + s.interference)
        # no pico at all: macro association, with no pico link
        rel = realization([[1.0, 0.0]], np.empty((0, 2)))
        s = user(rel, p, DuplexMode.IBFD, seed=3)
        assert s.x_s == math.inf and not is_pico(s, p)
        assert all(map(math.isnan, s.signal[1:] + s.interference[1:]))
        assert s.signal[0] > 0 and sirs(s, p, DuplexMode.IBFD)[0] > 0

    @pytest.mark.parametrize("modes", [(DuplexMode.FDD,), tuple(DuplexMode)],
                             ids=["fdd", "both"])
    @pytest.mark.parametrize("macros, picos", [
        ([[5.0, 0.0]], [[0.0, 0.0]]), ([[0.0, 0.0]], np.empty((0, 2)))],
        ids=["pico", "lone-macro"])
    def test_serving_station_at_the_user_gives_the_cap(self, macros, picos,
                                                       modes):
        # a zero serving distance is an infinite signal, which the tally
        # caps: no ZeroDivisionError and no warning, in the kernel and in
        # its oracle
        p, rel = NetworkParams(), realization(macros, picos)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_m, x_s, signal, interference = evaluate_user(
                *rel, p, modes, np.random.default_rng(1))
            ref = reference_evaluate_user(*rel, p, modes,
                                          np.random.default_rng(1))
        served = 1 if len(picos) else 0
        assert signal[served] == math.inf
        assert all(map(close, (x_m, x_s, *signal), (*ref[:2], *ref[2])))
        assert list(interference) == list(ref[3])
        for mode in modes:
            trial = Trial(x_m, x_s, signal, interference[mode])
            assert is_pico(trial, p) == bool(served)
            assert sirs(trial, p, mode)[served] == 1e12
            assert all(map(close, interference[mode], ref[3][mode]))

    def test_association_boundary(self):
        # the tally decides the tier: with the pico and the macro at unit
        # distance, the pico wins once delta_m exceeds 1.  delta_m is
        # (P_s B_s / (P_m B_m))^(1/alpha_m), so B_s places the cut, and
        # one pass serves both sides of it
        p = NetworkParams()
        x_m, x_s, signal, interference = evaluate_user(
            *realization([[1.0, 0.0]], [[0.0, 1.0]]), p, tuple(DuplexMode),
            np.random.default_rng(0))
        run = montecarlo.SimulationPass(
            np.array([x_m]), np.array([x_s]), np.array([signal]),
            {mode: np.array([links]) for mode, links in interference.items()})
        shares = []
        for scale in (0.98, 1.02):
            q = replace(p, B_s=scale ** p.alpha_m * p.P_m * p.B_m / p.P_s)
            assert delta_m(q) == pytest.approx(scale, rel=1e-12)
            shares.append([tally_metrics(run, q, TH, mode)["p_assoc_s"].mean
                           for mode in DuplexMode])
        assert shares == [[0.0, 0.0], [1.0, 1.0]]

    @pytest.mark.usefixtures("raw_sums")
    def test_interferer_sets_by_mode(self):
        # one macro + one pico, beta = 0: FDD links see no interferer; in
        # IBFD each candidate link sees the other tier's station, and the
        # backhaul sees none
        p = NetworkParams(beta=0.0)
        rel = realization([[6.0, 0.0]], [[0.3, 0.0]])
        ibfd = user(rel, p, DuplexMode.IBFD, seed=9)
        fdd = user(rel, p, DuplexMode.FDD, seed=9)
        signal_m, signal_s, _ = ibfd.signal
        assert fdd.signal == ibfd.signal
        assert fdd.interference == (0.0, 0.0, 0.0)
        assert ibfd.interference == (signal_s, signal_m, 0.0)
        # interference-free caps
        assert sirs(fdd, p, DuplexMode.FDD) == (1e12, 1e12, 1e12)
        assert sirs(ibfd, p, DuplexMode.IBFD)[2] == 1e12
        assert max(sirs(ibfd, p, DuplexMode.IBFD)[:2]) < 1e10
        # the record does not read beta; only the IBFD tally adds it
        q = replace(p, beta=2.0)
        for mode, sample in ((DuplexMode.IBFD, ibfd), (DuplexMode.FDD, fdd)):
            assert user(rel, q, mode, seed=9) == sample
        assert sirs(ibfd, q, DuplexMode.IBFD)[2] < 1e10
        assert sirs(fdd, q, DuplexMode.FDD)[2] == 1e12

    @pytest.mark.usefixtures("raw_sums")
    def test_residual_self_interference_scales(self):
        # lone macro-pico pair: the backhaul denominator is exactly the
        # residual term, so conventions differ by the power ratio
        p_ps = NetworkParams(beta=2.0, self_interference_convention="ps")
        p_pm = NetworkParams(beta=2.0, self_interference_convention="pm")
        rel = realization([[6.0, 0.0]], [[0.3, 0.0]])
        s_ps = user(rel, p_ps, DuplexMode.IBFD, seed=4)
        s_pm = user(rel, p_pm, DuplexMode.IBFD, seed=4)
        assert s_ps == s_pm  # the convention enters the tally only
        sir_ps = sirs(s_ps, p_ps, DuplexMode.IBFD)[2]
        sir_pm = sirs(s_pm, p_pm, DuplexMode.IBFD)[2]
        assert sir_ps == pytest.approx(sir_pm * p_ps.P_m / p_ps.P_s,
                                       rel=1e-12)
        # each convention's residual is beta times its power
        assert sir_ps == pytest.approx(s_ps.signal[2] / (2.0 * p_ps.P_s),
                                       rel=1e-12)
        assert sir_pm == pytest.approx(s_pm.signal[2] / (2.0 * p_pm.P_m),
                                       rel=1e-12)

    @pytest.mark.parametrize("mode", list(DuplexMode))
    @pytest.mark.parametrize("picos", [[[0.3, 0.4], [2.0, 2.0]], []],
                             ids=["picos", "no-pico"])
    def test_tail_compensation_follows_the_window(self, picos, mode,
                                                  monkeypatch):
        # each tier's tail beyond the window is taken once per trial, seen
        # from the window's center, and every link adds the tails of the
        # tiers it sums: its own in FDD, both in IBFD, whether it ends at
        # the user or at the pico S.  The backhaul's tails go into its
        # interference record, beside which the tally adds the residual
        # self-interference
        calls = []
        real = montecarlo._tail_mean

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(montecarlo, "_tail_mean", spy)
        p = NetworkParams()
        rel = realization([[6.0, 0.0], [-7.0, 1.0]], picos)
        flat = SimulationWindow(half_width=10.0)
        s = user(rel, p, mode, seed=1, window=flat)
        macro = (p.lambda_m, p.P_m, p.alpha_m, 10.0)
        pico = (p.lambda_s, p.P_s, p.alpha_s, 10.0)
        assert calls == [macro, pico]
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_tail_mean", no_tail)
            raw = user(rel, p, mode, seed=1, window=flat)
        assert np.array_equal(s.signal, raw.signal, equal_nan=True)
        tail_m, tail_s = real(*macro), real(*pico)
        tails = ((tail_m, tail_s, tail_m) if mode is DuplexMode.FDD
                 else (tail_m + tail_s,) * 3)
        links = 3 if picos else 1
        assert s.interference[:links] == pytest.approx(
            [r + t for r, t in zip(raw.interference, tails)][:links],
            rel=1e-12)
        assert all(map(math.isnan, s.interference[links:]))

    def test_huge_residual_kills_backhaul(self):
        p = NetworkParams(beta=1e15)
        rel = realization([[6.0, 0.0]], [[0.3, 0.0]])
        s = user(rel, p, DuplexMode.IBFD, seed=4)
        assert sirs(s, p, DuplexMode.IBFD)[2] < 1e-6


def close(got: float, ref: float) -> bool:
    """Equal up to rounding: 1e-12 relative, both infinite, or both nan."""
    if math.isnan(ref):
        return math.isnan(got)
    return got == ref or abs(got - ref) <= 1e-12 * abs(ref)


def assert_matches_oracle(rel, p, mode, seed, **kw):
    got = user(rel, p, mode, seed, **kw)
    ref = user(rel, p, mode, seed, kernel=reference_evaluate_user, **kw)
    for field, a, b in zip(("x_m", "x_s", "signal", "signal", "signal",
                            "interference", "interference", "interference"),
                           (*got[:2], *got.signal, *got.interference),
                           (*ref[:2], *ref.signal, *ref.interference)):
        assert close(a, b), (field, a, b)
    assert is_pico(got, p) == is_pico(ref, p)
    return got


class TestKernelMatchesOracle:
    """The squared-distance, in-place kernel against the distance-and-mask
    reference: same distances, and every signal and interference equal up
    to rounding."""

    @staticmethod
    def build(case, window, seed):
        # a sampled field plus one station by the user that fixes the tier
        macros = sample_ppp(1.0, window, np.random.default_rng(seed))
        picos = sample_ppp(4.0, window, np.random.default_rng(seed + 1))
        if case == "pico":
            picos = np.vstack([[[0.05, -0.02]], picos])
        elif case == "macro":
            macros = np.vstack([[[0.02, 0.01]], macros])
        else:
            picos = np.empty((0, 2))
        return realization(macros, picos)

    @pytest.mark.parametrize("case", ["pico", "macro", "empty"])
    @pytest.mark.parametrize("half_width", [3.0, 6.0])
    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_grid(self, mode, half_width, case, monkeypatch):
        # two window sizes: two sizes of every tail, and of the field
        window = SimulationWindow(half_width=half_width)
        for k, (comp, conv, alpha_s) in enumerate(
                (c, v, a) for c in (True, False) for v in ("ps", "pm")
                for a in (4.0, 3.5)):
            p = NetworkParams(alpha_s=alpha_s, beta=1e-6,
                              self_interference_convention=conv)
            rel = self.build(case, window, seed=100 + 2 * k)
            with monkeypatch.context() as m:
                if not comp:
                    m.setattr(montecarlo, "_tail_mean", no_tail)
                got = assert_matches_oracle(rel, p, mode, seed=k,
                                            window=window)
            assert is_pico(got, p) == (case == "pico")

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_estimates_match_oracle_pass(self, seed, monkeypatch):
        p = NetworkParams()
        runs = []
        for kernel in (evaluate_user, reference_evaluate_user):
            monkeypatch.setattr(montecarlo, "evaluate_user", kernel)
            runs.append({mode: estimate_metrics(p, TH, mode, n_trials=100,
                                                master_seed=seed)
                         for mode in DuplexMode})
        got, ref = runs
        for mode in DuplexMode:
            for name in ("p_total", "p_smallcell_joint", "p_macro_joint",
                         "p_assoc_s"):
                assert got[mode][name] == ref[mode][name], (mode, name)
            assert got[mode]["rate_total"].n_trials == \
                ref[mode]["rate_total"].n_trials
            assert got[mode]["rate_total"].mean == pytest.approx(
                ref[mode]["rate_total"].mean, rel=1e-12, abs=0.0)

    @pytest.mark.usefixtures("raw_sums")
    def test_self_distance_neither_warns_nor_counts(self):
        # the pico S is 0 from itself in the IBFD backhaul sum
        rel = realization([[6.0, 0.0], [-7.0, 1.0]],
                          [[0.3, 0.0], [2.0, 2.0]])
        p = NetworkParams(beta=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = assert_matches_oracle(rel, p, DuplexMode.IBFD, seed=5)
        assert 0.0 < sirs(s, p, DuplexMode.IBFD)[2] < 1e12

    @pytest.mark.usefixtures("raw_sums")
    def test_coincident_interferer_zeroes_sir(self):
        # a second pico on top of S: infinite backhaul interference in
        # IBFD (the shared band), untouched in FDD
        rel = realization([[6.0, 0.0]], [[0.3, 0.0], [0.3, 0.0]])
        p = NetworkParams(beta=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ibfd = user(rel, p, DuplexMode.IBFD, seed=9)
            fdd = user(rel, p, DuplexMode.FDD, seed=9)
        with np.errstate(divide="ignore"):
            ref = user(rel, p, DuplexMode.IBFD, seed=9,
                       kernel=reference_evaluate_user)
        assert is_pico(ibfd, p)
        assert ibfd.interference[2] == ref.interference[2] == math.inf
        assert sirs(ibfd, p, DuplexMode.IBFD)[2] == 0.0
        access, ref_access = (sirs(t, p, DuplexMode.IBFD)[1]
                              for t in (ibfd, ref))
        assert close(access, ref_access) and 0.0 < access
        assert sirs(fdd, p, DuplexMode.FDD)[2] == 1e12


class TestEstimators:
    def test_coverage_deterministic(self):
        p = NetworkParams()
        w = SimulationWindow(half_width=8.0)
        a = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=50,
                             window=w, master_seed=21)
        b = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=50,
                             window=w, master_seed=21)
        assert a == b
        # a continuous statistic separates seeds without binomial collisions
        c = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=50,
                             window=w, master_seed=22)
        assert a["rate_total"].mean != c["rate_total"].mean

    @pytest.mark.parametrize("th, mode, hits_s, hits_m, rate", [
        (Thresholds(), DuplexMode.IBFD, 159, 62, 0.2771855508180188),
        (Thresholds(), DuplexMode.FDD, 397, 62, 0.1330662780744693),
        # distinct thresholds: each one is compared on its own link
        (Thresholds(T_s=0.3, T_b=1.0, T_m=0.2), DuplexMode.IBFD, 25, 60,
         0.5622987946786854),
        (Thresholds(T_s=0.3, T_b=1.0, T_m=0.2), DuplexMode.FDD, 123, 60,
         0.257534118572816),
    ])
    def test_frozen_seeded_tallies(self, th, mode, hits_s, hits_m, rate):
        # frozen across versions: a change to the draw order, the tier
        # decision or the order of the interference sums moves these.  The
        # pico counts moved when the cross-tier fades went after every
        # same-tier one (IBFD), and when every trial drew the macros at the
        # user first (both modes); every count moved when a trial came to
        # draw its stations and fades from one generator
        est = estimate_metrics(NetworkParams(), th, mode, n_trials=600,
                               master_seed=2024)
        counts = {name: round(600 * est[name].mean) for name in
                  ("p_assoc_s", "p_smallcell_joint", "p_macro_joint",
                   "p_total")}
        assert counts == {"p_assoc_s": 537, "p_smallcell_joint": hits_s,
                          "p_macro_joint": hits_m,
                          "p_total": hits_s + hits_m}
        assert est["rate_total"].n_trials == hits_s + hits_m
        assert est["rate_total"].mean == pytest.approx(rate, rel=1e-15)

    @pytest.mark.parametrize("trial, mode, expected", [
        (0, DuplexMode.IBFD, (0.001998300554233398, 0.030577521408168915)),
        (0, DuplexMode.FDD, (0.21382117447725044, 0.039483599094596075)),
        (1, DuplexMode.IBFD, 0.38805575121493),
        (1, DuplexMode.FDD, 0.3970629703271964),
    ])
    def test_frozen_seeded_sirs(self, trial, mode, expected):
        # bit for bit across versions: the tallies above do not see a
        # reordered floating-point addition, these SIRs do
        p = NetworkParams()
        x_m, x_s, signal, interference = replay(2024, trial, p, (mode,))
        s = Trial(x_m, x_s, signal, interference[mode])
        macro, access, backhaul = sirs(s, p, mode)
        if trial == 0:
            assert is_pico(s, p)
            assert (access, backhaul) == expected
        else:
            assert not is_pico(s, p)
            assert macro == expected

    def test_estimate_shape(self):
        e = EstimateWithCI(0.4, 0.01, 100)
        assert e.ci95_low <= e.mean <= e.ci95_high
        assert (e.ci95_low, e.ci95_high) == (
            0.4 - montecarlo._Z95 * 0.01, 0.4 + montecarlo._Z95 * 0.01)
        # an estimate holds its mean, standard error and trial count only
        assert [f.name for f in fields(e)] == [
            "mean", "std_error", "n_trials"]

    def test_breakdown_components_sum(self):
        p = NetworkParams()
        bd = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=400,
                              master_seed=5)
        assert bd["p_total"].mean == pytest.approx(
            bd["p_smallcell_joint"].mean + bd["p_macro_joint"].mean,
            abs=1e-12)
        assert 0.0 <= bd["p_assoc_s"].mean <= 1.0
        # the rate is conditional: its sample is the covered trials
        assert bd["rate_total"].n_trials == round(bd["p_total"].mean * 400)

    def test_association_split_matches_analytic(self):
        p = NetworkParams()
        bd = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=2000,
                              master_seed=7)
        p_s = association_probability(p).value
        est = bd["p_assoc_s"]
        # the standard error under the null, at the analytic share
        assert est.n_trials == 2000
        assert abs(est.mean - p_s) < 3.0 * math.sqrt(p_s * (1.0 - p_s)
                                                     / est.n_trials)

    def test_coverage_consistent_with_analytic(self):
        p = NetworkParams()
        for mode in (DuplexMode.IBFD, DuplexMode.FDD):
            analytic = evaluate_point(p, TH, mode).analytic["p_total"]
            est = estimate_metrics(p, TH, mode, n_trials=3000,
                                   master_seed=17)["p_total"]
            assert abs(est.mean - analytic) < 3.0 * est.std_error

    def test_rate_consistent_with_analytic(self):
        p = NetworkParams()
        analytic = evaluate_point(p, TH, DuplexMode.IBFD,
                                  ("rate",)).analytic["rate_total"]
        est = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=3000,
                               master_seed=19)["rate_total"]
        assert abs(est.mean - analytic) < 3.0 * est.std_error

    def test_window_doubling_within_noise(self):
        p = NetworkParams()
        small = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=1200,
                                 window=SimulationWindow(30.0),
                                 master_seed=23)["p_total"]
        big = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=1200,
                               window=SimulationWindow(60.0),
                               master_seed=23)["p_total"]
        gap = abs(small.mean - big.mean)
        assert gap < 3.0 * math.hypot(small.std_error, big.std_error)

    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_tail_compensation_only_hurts_sir(self, mode, monkeypatch):
        # same realization, same fading seed, small window: adding the mean
        # far-field interference can only lower every SIR, never raise it
        p = NetworkParams()
        w = SimulationWindow(half_width=10.0)
        lowered = 0
        for i in range(100):
            on = replay(31, i, p, (mode,), w)
            with monkeypatch.context() as m:
                m.setattr(montecarlo, "_tail_mean", no_tail)
                off = replay(31, i, p, (mode,), w)
            assert on[:3] == off[:3]
            on, off = (Trial(*t[:3], t[3][mode]) for t in (on, off))
            for link, a, b in zip(("macro", "access", "backhaul"),
                                  sirs(on, p, mode), sirs(off, p, mode)):
                assert a <= b, (i, link)
                lowered += a < b
        assert lowered > 250

    def test_macro_only_network(self):
        p = NetworkParams(lambda_s=0.0)
        bd = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=300,
                              master_seed=41)
        assert bd["p_assoc_s"].mean == 0.0
        assert bd["p_smallcell_joint"].mean == 0.0
        assert bd["p_total"].mean > 0.0

    def test_huge_residual_suppresses_pico_coverage(self):
        p = NetworkParams(beta=1e15)
        bd = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=300,
                              master_seed=43)
        assert bd["p_smallcell_joint"].mean == 0.0

    def test_empty_conditioning_event_rejected(self):
        p = NetworkParams()
        th = Thresholds(T_s=1e11, T_b=1e11, T_m=1e11)
        est = estimate_metrics(p, th, DuplexMode.IBFD, n_trials=100,
                               master_seed=47)
        assert est["p_total"].mean == 0.0
        assert "rate_total" not in est
        # a point evaluation that must report the rate refuses instead
        run = simulate_pass(p, (DuplexMode.IBFD,), 100, SimulationWindow(),
                            47)
        with pytest.raises(ValueError, match="conditioning event empty"):
            evaluate_point(p, th, DuplexMode.IBFD, ("rate",), run)

    def test_bad_trial_count_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            estimate_metrics(NetworkParams(), TH, DuplexMode.IBFD,
                             n_trials=0)


class TestTally:
    """tally_metrics, one vectorized _sir per SIR column, against the
    per-trial loop of tests/oracles.py: equal estimates, bit for bit."""

    THRESHOLDS = (Thresholds(), Thresholds(T_s=0.3, T_b=1.0, T_m=0.2),
                  Thresholds(T_s=5.0, T_b=0.01, T_m=20.0),
                  Thresholds(T_s=1e11, T_b=1e11, T_m=1e11))

    @staticmethod
    def assert_equals_loop(run, params, mode, thresholds=THRESHOLDS):
        for th in thresholds:
            got = tally_metrics(run, params, th, mode)
            assert got == reference_tally(run, params, th, mode), th
        return got

    @pytest.mark.parametrize("convention", ["ps", "pm"])
    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_equals_the_trial_loop(self, mode, convention):
        p = NetworkParams(self_interference_convention=convention)
        run = simulate_pass(p, tuple(DuplexMode), 400,
                            SimulationWindow(15.0), 5)
        self.assert_equals_loop(run, p, mode)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_equals_the_trial_loop_on_a_built_pass(self, mode, beta):
        # 20,000 trials of link powers over 12 decades, with no interferer
        # on about 1 % of the links and no pico in about 1 % of the trials;
        # thresholds at the cap tell > from >= on capped links
        rng = np.random.default_rng(3)
        n = 20_000
        x_m, x_s = rng.uniform(0.0, 2.0, (2, n))
        no_pico = rng.random(n) < 0.01
        x_s[no_pico] = math.inf
        signal, interference = 10.0 ** rng.uniform(-6.0, 6.0, (2, n, 3))
        interference[rng.random((n, 3)) < 0.01] = 0.0
        signal[no_pico, 1:] = interference[no_pico, 1:] = np.nan

        def built(rows):
            return montecarlo.SimulationPass(
                x_m[rows], x_s[rows], signal[rows],
                {mode: interference[rows]})

        p, cap = NetworkParams(beta=beta), montecarlo._SIR_CAP
        est = self.assert_equals_loop(
            built(slice(None)), p, mode,
            self.THRESHOLDS + (Thresholds(T_s=cap, T_b=0.1, T_m=cap),
                               Thresholds(T_s=0.1, T_b=cap, T_m=0.1)))
        assert 0.2 < est["p_assoc_s"].mean < 0.8
        assert est["p_total"].mean > 0.0
        # a one-trial pass shows its rate's every bit, which a mean over
        # many rounds away: numpy's log2 differs from math.log2 on about
        # 1 in 700 of these arguments
        for i in range(2_000):
            self.assert_equals_loop(built(slice(i, i + 1)), p, mode, (TH,))

    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_capped_links(self, mode):
        # exact-zero interference on every link, of pico and macro users,
        # in both modes: _sir caps those links.  Every other SIR lies in
        # [1, 20], so at beta = 0 a backhaul threshold of 1e11 passes the
        # capped backhauls only
        rng = np.random.default_rng(7)
        n = 300
        pico = np.arange(n) % 2 == 0
        # a pico at 0.001 wins against a macro at 1, one at 1000 loses
        x_m, x_s = np.ones(n), np.where(pico, 1e-3, 1e3)
        signal = rng.uniform(1.0, 2.0, (n, 3))
        interference = {}
        for each in DuplexMode:
            columns = rng.uniform(0.1, 1.0, (n, 3))
            columns[rng.random((n, 3)) < 0.2] = 0.0
            interference[each] = columns
        run = montecarlo.SimulationPass(x_m, x_s, signal, interference)
        zero = interference[mode] == 0.0
        assert np.any(zero[~pico, 0]) and np.any(zero[pico, 1])
        capped = pico & zero[:, 2]
        assert 0 < np.count_nonzero(capped) < np.count_nonzero(pico)
        est = self.assert_equals_loop(
            run, NetworkParams(beta=0.0), mode,
            self.THRESHOLDS + (Thresholds(T_b=1e11),))
        assert est["p_assoc_s"].mean == 0.5
        assert round(n * est["p_smallcell_joint"].mean) == \
            np.count_nonzero(capped)
        assert est["rate_total"].n_trials == round(n * est["p_total"].mean)

    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_no_pico_trial(self, mode):
        # lambda_s = 0: no trial has a pico link, and the tally reads none
        p = NetworkParams(lambda_s=0.0)
        run = simulate_pass(p, (mode,), 200, SimulationWindow(10.0), 9)
        assert np.all(run.x_s == math.inf)
        assert np.all(np.isnan(run.signal[:, 1:]))
        assert np.all(np.isnan(run.interference[mode][:, 1:]))
        est = self.assert_equals_loop(run, p, mode, self.THRESHOLDS[:3])
        assert est["p_assoc_s"].mean == est["p_smallcell_joint"].mean == 0.0

    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_no_covered_trial(self, mode):
        # thresholds above the cap: nothing is covered, and the rate,
        # conditioned on coverage, is absent on both sides
        p = NetworkParams()
        run = simulate_pass(p, tuple(DuplexMode), 200,
                            SimulationWindow(10.0), 11)
        th = Thresholds(T_s=1e13, T_b=1e13, T_m=1e13)
        est = self.assert_equals_loop(run, p, mode, (th,))
        assert est["p_total"].mean == 0.0
        assert "rate_total" not in est


def test_simulator_loads_no_analytic_module():
    # the simulator cross-checks the analytic route, so importing it must
    # not pull in any part of that route
    src = pathlib.Path(montecarlo.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, (str(src),
                                         os.environ.get("PYTHONPATH"))))
    code = ("import sys, hetnet.montecarlo; print(sorted("
            "m for m in sys.modules if m.startswith('hetnet.analytic')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out.strip() == "[]"


class TestChunkedPass:
    """The trials of one pass split over forked workers: the estimates do
    not depend on how many processes share the pass."""

    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_estimates_equal_for_any_process_count(self, mode, monkeypatch):
        # 1,001 trials: the ranges are uneven for 2 and 3 processes
        window = SimulationWindow(half_width=15.0)
        runs = []
        for count in (1, 2, 3):
            monkeypatch.setattr(fanout, "_process_count",
                                lambda count=count: count)
            runs.append(estimate_metrics(NetworkParams(), TH, mode,
                                         n_trials=1001, window=window,
                                         master_seed=53))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("count", [1, 2])
    def test_each_mode_of_a_shared_pass_equals_its_own_pass(self, count,
                                                            monkeypatch):
        # every same-tier fade is drawn before any cross-tier one, so a
        # mode's columns do not depend on the other mode sharing the pass
        monkeypatch.setattr(fanout, "_process_count", lambda: count)
        window = SimulationWindow(half_width=10.0)
        both = simulate_pass(NetworkParams(), tuple(DuplexMode), 500,
                             window, 71)
        shares = tally_metrics(both, NetworkParams(), TH, DuplexMode.FDD)
        assert 0.0 < shares["p_assoc_s"].mean < 1.0
        for mode in DuplexMode:
            alone = simulate_pass(NetworkParams(), (mode,), 500, window, 71)
            assert list(alone.interference) == [mode]
            for name in ("x_m", "x_s", "signal"):
                assert np.array_equal(getattr(alone, name),
                                      getattr(both, name), equal_nan=True)
            assert alone.interference[mode].shape == (500, 3)
            assert np.array_equal(alone.interference[mode],
                                  both.interference[mode], equal_nan=True)

    @pytest.mark.parametrize("count", [1, 2])
    def test_pass_does_not_read_the_biases(self, count, monkeypatch):
        # no link reads B_m or B_s, so one pass serves every bias; only the
        # tally's tier decision moves with them
        monkeypatch.setattr(fanout, "_process_count", lambda: count)
        window = SimulationWindow(half_width=10.0)
        base = NetworkParams()
        other = replace(base, B_m=2.0, B_s=1.0)
        assert other.network == base.network
        runs = [simulate_pass(params, tuple(DuplexMode), 500, window, 73)
                for params in (base, other)]
        for name in ("x_m", "x_s", "signal"):
            assert np.array_equal(getattr(runs[0], name),
                                  getattr(runs[1], name), equal_nan=True)
        for mode in DuplexMode:
            assert np.array_equal(runs[0].interference[mode],
                                  runs[1].interference[mode], equal_nan=True)
        shares = [tally_metrics(runs[0], params, TH, DuplexMode.FDD)
                  ["p_assoc_s"].mean for params in (base, other)]
        assert shares[0] > shares[1] > 0.0

    def test_trial_seed_is_the_spawned_child(self):
        # a range rebuilds trial i's seed from its spawn key alone
        children = SeedSequence(61).spawn(7)
        for i, child in enumerate(children):
            rebuilt = SeedSequence(61, spawn_key=(i,))
            assert rebuilt.spawn_key == child.spawn_key
            np.testing.assert_array_equal(rebuilt.generate_state(8),
                                          child.generate_state(8))

    @pytest.mark.parametrize("count", [1, 2])
    def test_each_row_replays_its_trial(self, count, monkeypatch):
        # row i of a pass is trial i drawn from its one generator, on any
        # split of the pass
        monkeypatch.setattr(fanout, "_process_count", lambda: count)
        p, window = NetworkParams(), SimulationWindow(half_width=10.0)
        run = simulate_pass(p, tuple(DuplexMode), 500, window, 79)
        for i in range(500):
            x_m, x_s, signal, interference = replay(79, i, p,
                                                    tuple(DuplexMode), window)
            assert (run.x_m[i], run.x_s[i]) == (x_m, x_s), i
            assert np.array_equal(run.signal[i], signal, equal_nan=True), i
            for mode in DuplexMode:
                assert np.array_equal(run.interference[mode][i],
                                      interference[mode], equal_nan=True), i

    def test_worker_error_reaches_caller(self, monkeypatch):
        # the last trial, which a worker runs, fails as an empty tier would
        def fail_last(macros, picos, params, modes, rng, **kwargs):
            if rng.bit_generator.seed_seq.spawn_key[0] == 599:
                raise ValueError("no station in tier: macro")
            return evaluate_user(macros, picos, params, modes, rng,
                                 **kwargs)

        monkeypatch.setattr(fanout, "_process_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "evaluate_user", fail_last)
        with pytest.raises(ValueError, match="^no station in tier: macro$"):
            estimate_metrics(NetworkParams(), TH, n_trials=600,
                             window=SimulationWindow(10.0))
        assert multiprocessing.active_children() == []

    def test_no_process_left_after_pooled_pass(self, monkeypatch):
        monkeypatch.setattr(fanout, "_process_count", lambda: 2)
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
        estimate_metrics(NetworkParams(), TH, n_trials=500,
                         window=SimulationWindow(10.0))
        # a worker ran (its time is counted once it is joined) and is gone
        assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime > before
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1

    @pytest.mark.parametrize("in_thread, n_trials", [
        (True, 600), (False, 499)])
    def test_runs_in_process(self, in_thread, n_trials, monkeypatch):
        # from a second thread, or too short for two 250-trial ranges
        parent = os.getpid()

        def in_parent(*args, **kwargs):
            if os.getpid() != parent:
                raise ValueError("ran in a worker")
            return evaluate_user(*args, **kwargs)

        monkeypatch.setattr(fanout, "_process_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "evaluate_user", in_parent)
        call = functools.partial(estimate_metrics, NetworkParams(), TH,
                                 n_trials=n_trials,
                                 window=SimulationWindow(10.0))
        if in_thread:
            with ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(call).result(timeout=120)
        else:
            call()

    def test_estimates_independent_of_blas_threads(self):
        # ~72,000 picos per trial: a BLAS dot product of that length would
        # run on the BLAS library's threads and round differently
        src = pathlib.Path(montecarlo.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, (str(src),
                                             os.environ.get("PYTHONPATH"))))
        # a one-ulp change in a sum rarely survives into an estimate, so
        # single users' SIRs are compared as well
        code = (
            "from numpy.random import default_rng\n"
            "from hetnet import fanout, montecarlo as mc\n"
            "from hetnet.core import DuplexMode, NetworkParams, Thresholds\n"
            "fanout._process_count = lambda: 2\n"
            "p = NetworkParams(lambda_s=20.0)\n"
            "w = mc.SimulationWindow()\n"
            "for k in range(10):\n"
            "    print(mc.evaluate_user(\n"
            "        mc.sample_ppp(p.lambda_m, w, default_rng(2 * k)),\n"
            "        mc.sample_ppp(p.lambda_s, w, default_rng(2 * k + 1)),\n"
            "        p, tuple(DuplexMode), default_rng(k)))\n"
            "th = Thresholds(T_s=0.1, T_b=0.1, T_m=0.1)\n"
            "run = mc.simulate_pass(p, tuple(DuplexMode), 500, w, 67)\n"
            "for mode in DuplexMode:\n"
            "    out = mc.tally_metrics(run, p, th, mode)\n"
            "    print(sorted((k, repr(v)) for k, v in out.items()))\n")
        outputs = []
        for pinned in (True, False):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if pinned:
                env["OPENBLAS_NUM_THREADS"] = "1"
            env["PYTHONPATH"] = path
            outputs.append(subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True,
                text=True, env=env, timeout=300).stdout)
        assert outputs[0] == outputs[1]
        assert "rate_total" in outputs[0]
