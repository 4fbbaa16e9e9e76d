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
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import SeedSequence
from oracles import estimate_metrics, reference_evaluate_user

from hetnet import fanout, montecarlo
from hetnet.analytic import association_probability
from hetnet.core import DuplexMode, NetworkParams, Thresholds, delta_m
from hetnet.experiments import evaluate_point
from hetnet.montecarlo import (
    EstimateWithCI,
    NetworkRealization,
    SimulationWindow,
    evaluate_user,
    sample_ppp,
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


def user(rel, params, mode, seed, **kw) -> montecarlo.UserSample:
    """The sample of evaluate_user for one mode."""
    return evaluate_user(rel, params, (mode,), seed, **kw)[mode]


def sir_sm(sample, params, mode) -> float:
    """The backhaul SIR of a pico sample as tally_metrics forms it."""
    return montecarlo._sir(
        sample.signal_sm,
        sample.interference_sm + montecarlo._self_interference(params, mode))


def realization(macros, picos) -> NetworkRealization:
    return NetworkRealization(
        macro_points=np.asarray(macros, dtype=float).reshape(-1, 2),
        pico_points=np.asarray(picos, dtype=float).reshape(-1, 2),
    )


class TestSamplePpp:
    def test_deterministic_for_fixed_seed(self):
        w = SimulationWindow(half_width=10.0)
        a = sample_ppp(3.0, w, seed=123)
        b = sample_ppp(3.0, w, seed=123)
        np.testing.assert_array_equal(a, b)
        c = sample_ppp(3.0, w, seed=124)
        assert a.shape != c.shape or not np.array_equal(a, c)

    def test_points_inside_window(self):
        w = SimulationWindow(half_width=4.0)
        pts = sample_ppp(5.0, w, seed=5)
        assert pts.shape[1] == 2
        assert np.all(np.abs(pts) <= w.half_width)

    def test_mean_count_matches_intensity(self):
        w = SimulationWindow(half_width=5.0)
        counts = [sample_ppp(2.0, w, seed=s).shape[0] for s in range(300)]
        total, expected = sum(counts), 300 * 2.0 * w.area
        assert abs(total - expected) < 4.0 * math.sqrt(expected)

    def test_fixed_count_is_exact(self):
        w = SimulationWindow(half_width=5.0, fixed_count=True)
        for s in range(5):
            assert sample_ppp(2.0, w, seed=s).shape[0] == round(2.0 * w.area)

    @pytest.mark.parametrize("fixed_count", [False, True])
    @pytest.mark.parametrize("half_width", [0.5, 3.0, 30.0, 123.456])
    def test_points_are_the_uniform_draw(self, half_width, fixed_count):
        # the seeded positions are rng.uniform(-w, w, (n, 2)) bit for bit
        w = SimulationWindow(half_width=half_width, fixed_count=fixed_count)
        for seed in (0, 1, 7, 2024, SeedSequence(5, spawn_key=(3, 1))):
            got = sample_ppp(2.0, w, seed)
            rng = np.random.default_rng(seed)
            n = (round(2.0 * w.area) if fixed_count
                 else int(rng.poisson(2.0 * w.area)))
            expected = rng.uniform(-half_width, half_width, (n, 2))
            assert got.shape == (n, 2)
            assert np.array_equal(got, expected)

    def test_zero_intensity_gives_empty(self):
        assert sample_ppp(0.0, SimulationWindow(), seed=1).shape == (0, 2)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            sample_ppp(-1.0, SimulationWindow(), seed=1)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            SimulationWindow(half_width=0.0)


class TestEvaluateUser:
    def test_deterministic_for_fixed_seed(self):
        w = SimulationWindow(half_width=8.0)
        rel = realization(sample_ppp(1.0, w, seed=1),
                          sample_ppp(4.0, w, seed=2))
        p = NetworkParams()
        a = user(rel, p, DuplexMode.IBFD, seed=7, window=w)
        b = user(rel, p, DuplexMode.IBFD, seed=7, window=w)
        assert a == b

    def test_empty_macro_tier_rejected(self):
        rel = realization(np.empty((0, 2)), [[0.5, 0.0]])
        with pytest.raises(ValueError, match="no station in tier"):
            user(rel, NetworkParams(), DuplexMode.IBFD, seed=0)

    def test_tier_fields_nan_pattern(self):
        # lone distant macro, nearby pico: pico association
        rel = realization([[5.0, 0.0]], [[0.4, 0.0]])
        s = user(rel, NetworkParams(), DuplexMode.IBFD, seed=3)
        assert s.associated_tier == "pico"
        assert math.isnan(s.sir_um)
        assert s.sir_us > 0 and s.signal_sm > 0 and s.interference_sm > 0
        # no pico at all: macro association
        rel = realization([[1.0, 0.0]], np.empty((0, 2)))
        s = user(rel, NetworkParams(), DuplexMode.IBFD, seed=3)
        assert s.associated_tier == "macro"
        assert math.isnan(s.sir_us) and math.isnan(s.signal_sm) \
            and math.isnan(s.interference_sm)
        assert s.sir_um > 0

    def test_association_boundary(self):
        # pico at unit distance: the macro wins inside delta_m^{-1}
        p = NetworkParams()
        cut = 1.0 / delta_m(p)
        near = realization([[cut * 0.98, 0.0]], [[0.0, 1.0]])
        far = realization([[cut * 1.02, 0.0]], [[0.0, 1.0]])
        assert user(near, p, DuplexMode.IBFD, 0).associated_tier \
            == "macro"
        assert user(far, p, DuplexMode.IBFD, 0).associated_tier \
            == "pico"

    @pytest.mark.usefixtures("raw_sums")
    def test_interferer_sets_by_mode(self):
        # one macro + one pico, beta = 0: the pico's access link sees only
        # the macro, and the backhaul link has no interferer at all
        p = NetworkParams(beta=0.0)
        rel = realization([[6.0, 0.0]], [[0.3, 0.0]])
        ibfd = user(rel, p, DuplexMode.IBFD, seed=9)
        assert ibfd.sir_us < 1e10  # macro interference present
        assert ibfd.interference_sm == 0.0
        # interference-free cap
        assert sir_sm(ibfd, p, DuplexMode.IBFD) == pytest.approx(1e12)
        # FDD drops the cross-tier term: both links are interference-free
        fdd = user(rel, p, DuplexMode.FDD, seed=9)
        assert fdd.sir_us == pytest.approx(1e12)
        assert sir_sm(fdd, p, DuplexMode.FDD) == pytest.approx(1e12)
        # the record does not read beta; only the IBFD tally adds it
        q = replace(p, beta=2.0)
        for mode, sample in ((DuplexMode.IBFD, ibfd), (DuplexMode.FDD, fdd)):
            assert user(rel, q, mode, seed=9) == sample
        assert sir_sm(ibfd, q, DuplexMode.IBFD) < 1e10
        assert sir_sm(fdd, q, DuplexMode.FDD) == pytest.approx(1e12)

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
        assert sir_sm(s_ps, p_ps, DuplexMode.IBFD) == pytest.approx(
            sir_sm(s_pm, p_pm, DuplexMode.IBFD) * p_ps.P_m / p_ps.P_s,
            rel=1e-12)
        # each convention's residual is beta times its power
        assert sir_sm(s_ps, p_ps, DuplexMode.IBFD) == pytest.approx(
            s_ps.signal_sm / (2.0 * p_ps.P_s), rel=1e-12)
        assert sir_sm(s_pm, p_pm, DuplexMode.IBFD) == pytest.approx(
            s_pm.signal_sm / (2.0 * p_pm.P_m), rel=1e-12)

    @pytest.mark.parametrize("mode", list(DuplexMode))
    @pytest.mark.parametrize("tier", ["pico", "macro"])
    def test_tail_compensation_follows_the_window(self, tier, mode,
                                                  monkeypatch):
        # a flat window adds each field's tail once per link, reaching
        # from the receiver to the window edge: half_width at the user,
        # half_width - x_s at the serving pico; a wrapping window adds none.
        # The backhaul's tails go into its interference record, beside
        # which the tally adds the residual self-interference
        calls = []
        real = montecarlo._tail_mean

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(montecarlo, "_tail_mean", spy)
        p = NetworkParams()
        macro = (p.lambda_m, p.P_m, p.alpha_m)
        pico = (p.lambda_s, p.P_s, p.alpha_s)
        if tier == "pico":
            rel = realization([[6.0, 0.0], [-7.0, 1.0]],
                              [[0.3, 0.4], [2.0, 2.0]])
            links = [(pico, macro, 10.0), (macro, pico, 10.0 - 0.5)]
        else:
            rel = realization([[0.2, 0.1], [6.0, 0.0]],
                              [[3.0, 3.0], [-4.0, 1.0]])
            links = [(macro, pico, 10.0)]
        # every link's same-tier tail, then in IBFD every cross-tier one
        ibfd = mode is DuplexMode.IBFD
        expected = [(*own, reach) for own, other, reach in links]
        if ibfd:
            expected += [(*other, reach) for own, other, reach in links]

        flat = SimulationWindow(half_width=10.0)
        s = user(rel, p, mode, seed=1, window=flat)
        assert s.associated_tier == tier
        assert [c[:3] for c in calls] == [e[:3] for e in expected]
        assert [c[3] for c in calls] == pytest.approx(
            [e[3] for e in expected], rel=1e-12)
        if tier == "pico":
            with monkeypatch.context() as m:
                m.setattr(montecarlo, "_tail_mean", no_tail)
                raw = user(rel, p, mode, seed=1, window=flat)
            backhaul = calls[1::len(links)]
            assert s.signal_sm == raw.signal_sm
            assert s.interference_sm == pytest.approx(
                raw.interference_sm + sum(real(*c) for c in backhaul),
                rel=1e-12)

        calls.clear()
        s = user(rel, p, mode, seed=1,
                 window=SimulationWindow(half_width=10.0, wrap=True))
        assert s.associated_tier == tier
        assert calls == []

    def test_huge_residual_kills_backhaul(self):
        p = NetworkParams(beta=1e15)
        rel = realization([[6.0, 0.0]], [[0.3, 0.0]])
        s = user(rel, p, DuplexMode.IBFD, seed=4)
        assert sir_sm(s, p, DuplexMode.IBFD) < 1e-6

    @pytest.mark.usefixtures("raw_sums")
    def test_torus_metric_flips_backhaul_station(self):
        # The serving pico sits at (5, 0); macro A is 11 away from it,
        # macro B is 19.5 away on the flat window but 10.5 under wrap, so
        # the nearest backhauling macro flips.  With the same seed the
        # fading draws coincide, and the product of the two backhaul SIRs
        # cancels them, leaving a pure distance-ratio identity.
        p = NetworkParams(beta=0.0)
        rel = realization([[5.0, -11.0], [-14.5, 0.0]], [[5.0, 0.0]])
        flat = user(rel, p, DuplexMode.FDD, seed=2,
                    window=SimulationWindow(half_width=15.0))
        wrapped = user(rel, p, DuplexMode.FDD, seed=2,
                       window=SimulationWindow(half_width=15.0, wrap=True))
        assert flat.associated_tier == wrapped.associated_tier == "pico"
        flat_sir, wrapped_sir = (sir_sm(s, p, DuplexMode.FDD)
                                 for s in (flat, wrapped))
        assert flat_sir != wrapped_sir
        expected = (19.5 / 10.5) ** p.alpha_m
        assert flat_sir * wrapped_sir == pytest.approx(expected, rel=1e-9)


def same_sir(got: float, ref: float) -> bool:
    """Equal up to rounding: 1e-12 relative, both capped, or both nan."""
    if math.isnan(ref):
        return math.isnan(got)
    return got == ref or abs(got - ref) <= 1e-12 * abs(ref)


def assert_matches_oracle(rel, p, mode, seed, **kw):
    got = user(rel, p, mode, seed, **kw)
    ref = reference_evaluate_user(rel, p, (mode,), seed, **kw)[mode]
    assert got.associated_tier == ref.associated_tier
    for field in ("sir_us", "signal_sm", "interference_sm", "sir_um"):
        assert same_sir(getattr(got, field), getattr(ref, field)), \
            (field, getattr(got, field), getattr(ref, field))
    return got


class TestKernelMatchesOracle:
    """The squared-distance, in-place kernel against the distance-and-mask
    reference: same tier, every SIR equal up to rounding."""

    @staticmethod
    def build(case, window, seed):
        # a sampled field plus one station by the user that fixes the tier
        macros = sample_ppp(1.0, window, seed=seed)
        picos = sample_ppp(4.0, window, seed=seed + 1)
        if case == "pico":
            picos = np.vstack([[[0.05, -0.02]], picos])
        elif case == "macro":
            macros = np.vstack([[[0.02, 0.01]], macros])
        else:
            picos = np.empty((0, 2))
        return realization(macros, picos)

    @pytest.mark.parametrize("case", ["pico", "macro", "empty"])
    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_grid(self, mode, wrap, case, monkeypatch):
        window = SimulationWindow(half_width=6.0, wrap=wrap)
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
            assert got.associated_tier == \
                ("pico" if case == "pico" else "macro")

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
        # the serving pico is 0 from itself in the IBFD backhaul sum
        rel = realization([[6.0, 0.0], [-7.0, 1.0]],
                          [[0.3, 0.0], [2.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = assert_matches_oracle(rel, NetworkParams(beta=0.0),
                                      DuplexMode.IBFD, seed=5)
        assert 0.0 < sir_sm(s, NetworkParams(beta=0.0), DuplexMode.IBFD) \
            < 1e12

    @pytest.mark.usefixtures("raw_sums")
    def test_coincident_interferer_zeroes_sir(self):
        # a second pico on top of the serving one: infinite backhaul
        # interference in IBFD (the shared band), untouched in FDD
        rel = realization([[6.0, 0.0]], [[0.3, 0.0], [0.3, 0.0]])
        p = NetworkParams(beta=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ibfd = user(rel, p, DuplexMode.IBFD, seed=9)
            fdd = user(rel, p, DuplexMode.FDD, seed=9)
        with np.errstate(divide="ignore"):
            ref = reference_evaluate_user(rel, p, (DuplexMode.IBFD,),
                                          seed=9)[DuplexMode.IBFD]
        assert ibfd.associated_tier == "pico"
        assert ibfd.interference_sm == ref.interference_sm == math.inf
        assert sir_sm(ibfd, p, DuplexMode.IBFD) == 0.0
        assert same_sir(ibfd.sir_us, ref.sir_us) and 0.0 < ibfd.sir_us
        assert sir_sm(fdd, p, DuplexMode.FDD) == pytest.approx(1e12)


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
        (Thresholds(), DuplexMode.IBFD, 165, 52, 0.3141541106746506),
        (Thresholds(), DuplexMode.FDD, 392, 52, 0.14998100836815123),
        # distinct thresholds: each one is compared on its own link
        (Thresholds(T_s=0.3, T_b=1.0, T_m=0.2), DuplexMode.IBFD, 33, 50,
         0.6567147120254144),
        (Thresholds(T_s=0.3, T_b=1.0, T_m=0.2), DuplexMode.FDD, 129, 50,
         0.29544994998919827),
    ])
    def test_frozen_seeded_tallies(self, th, mode, hits_s, hits_m, rate):
        # frozen across versions: a change to the draw order, the tier
        # decision or the order of the interference sums moves these.  The
        # IBFD pico counts moved once, when the cross-tier fades went after
        # every same-tier one
        est = estimate_metrics(NetworkParams(), th, mode, n_trials=600,
                               master_seed=2024)
        counts = {name: round(600 * est[name].mean) for name in
                  ("p_assoc_s", "p_smallcell_joint", "p_macro_joint",
                   "p_total")}
        assert counts == {"p_assoc_s": 547, "p_smallcell_joint": hits_s,
                          "p_macro_joint": hits_m,
                          "p_total": hits_s + hits_m}
        assert est["rate_total"].n_trials == hits_s + hits_m
        assert est["rate_total"].mean == pytest.approx(rate, rel=1e-15)

    @pytest.mark.parametrize("trial, mode, expected", [
        (0, DuplexMode.IBFD, (0.017792720090178665, 0.02104491965831663)),
        (0, DuplexMode.FDD, (0.27745394260739853, 0.0442813380559903)),
        (39, DuplexMode.IBFD, 212.55809406217188),
        (39, DuplexMode.FDD, 226.19926486596125),
    ])
    def test_frozen_seeded_sirs(self, trial, mode, expected):
        # bit for bit across versions: the tallies above do not see a
        # reordered floating-point addition, these SIRs do
        p, w = NetworkParams(), SimulationWindow()
        seed_m, seed_s, seed_fading = \
            SeedSequence(2024, spawn_key=(trial,)).spawn(3)
        rel = NetworkRealization(sample_ppp(p.lambda_m, w, seed_m),
                                 sample_ppp(p.lambda_s, w, seed_s))
        s = user(rel, p, mode, seed_fading, window=w)
        if trial == 0:
            assert s.associated_tier == "pico"
            assert (s.sir_us, sir_sm(s, p, mode)) == expected
        else:
            assert s.associated_tier == "macro"
            assert s.sir_um == expected

    def test_estimate_shape(self):
        e = EstimateWithCI.from_mean_se(0.4, 0.01, 100)
        assert e.ci95_low <= e.mean <= e.ci95_high
        assert e.std_error >= 0

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
        assert abs(est.mean - p_s) < 3.0 * max(est.std_error, 1e-6)

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

    def test_torus_route_consistent(self):
        p = NetworkParams()
        analytic = evaluate_point(p, TH, DuplexMode.IBFD).analytic["p_total"]
        est = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=1500,
                               window=SimulationWindow(30.0, wrap=True),
                               master_seed=29)["p_total"]
        assert abs(est.mean - analytic) < 3.0 * est.std_error

    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_tail_compensation_only_hurts_sir(self, mode, monkeypatch):
        # same realization, same fading seed, small window: adding the mean
        # far-field interference can only lower every SIR, never raise it
        p = NetworkParams()
        w = SimulationWindow(half_width=10.0)
        lowered = 0
        for i in range(100):
            seed_m, seed_s, seed_fading = \
                SeedSequence(31, spawn_key=(i,)).spawn(3)
            rel = NetworkRealization(
                macro_points=sample_ppp(p.lambda_m, w, seed_m),
                pico_points=sample_ppp(p.lambda_s, w, seed_s))
            on = user(rel, p, mode, seed_fading, window=w)
            with monkeypatch.context() as m:
                m.setattr(montecarlo, "_tail_mean", no_tail)
                off = user(rel, p, mode, seed_fading, window=w)
            assert on.associated_tier == off.associated_tier
            sirs = [(name, getattr(on, name), getattr(off, name))
                    for name in ("sir_us", "sir_um")]
            if on.associated_tier == "pico":
                sirs.append(("sir_sm", sir_sm(on, p, mode),
                             sir_sm(off, p, mode)))
            for name, a, b in sirs:
                assert math.isnan(a) == math.isnan(b)
                assert math.isnan(a) or a <= b, (i, name)
                lowered += a < b
        assert lowered > 100

    def test_fixed_count_route(self):
        p = NetworkParams()
        est = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=300,
                               window=SimulationWindow(fixed_count=True),
                               master_seed=37)["p_total"]
        assert 0.1 < est.mean < 0.7

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
        samples = montecarlo.simulate_pass(p, (DuplexMode.IBFD,), 100,
                                           SimulationWindow(),
                                           47)[DuplexMode.IBFD]
        with pytest.raises(ValueError, match="conditioning event empty"):
            evaluate_point(p, th, DuplexMode.IBFD, ("rate",), samples)

    def test_bad_trial_count_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            estimate_metrics(NetworkParams(), TH, DuplexMode.IBFD,
                             n_trials=0)


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

    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("mode", list(DuplexMode))
    def test_estimates_equal_for_any_process_count(self, mode, wrap,
                                                   monkeypatch):
        # 1,001 trials: the ranges are uneven for 2 and 3 processes
        window = SimulationWindow(half_width=15.0, wrap=wrap)
        runs = []
        for count in (1, 2, 3):
            monkeypatch.setattr(fanout, "_process_count",
                                lambda count=count: count)
            runs.append(estimate_metrics(NetworkParams(), TH, mode,
                                         n_trials=1001, window=window,
                                         master_seed=53))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("wrap", [False, True])
    def test_each_mode_of_a_shared_pass_equals_its_own_pass(self, wrap,
                                                            count,
                                                            monkeypatch):
        # every same-tier fade is drawn before any cross-tier one, so a
        # mode's samples do not depend on the other mode sharing the pass.
        # Field reprs are compared: a nan field unpickled from a worker is
        # a new object, and nan != nan
        monkeypatch.setattr(fanout, "_process_count", lambda: count)
        window = SimulationWindow(half_width=10.0, wrap=wrap)
        both = montecarlo.simulate_pass(NetworkParams(), tuple(DuplexMode),
                                        500, window, 71)
        assert {s.associated_tier for s in both[DuplexMode.IBFD]} == {
            "pico", "macro"}
        for mode in DuplexMode:
            alone = montecarlo.simulate_pass(NetworkParams(), (mode,), 500,
                                             window, 71)
            assert list(alone) == [mode]
            assert [repr(s) for s in alone[mode]] == \
                [repr(s) for s in both[mode]]

    def test_trial_seed_is_the_spawned_child(self):
        # a range rebuilds trial i's seed from its spawn key alone
        children = SeedSequence(61).spawn(7)
        for i, child in enumerate(children):
            rebuilt = SeedSequence(61, spawn_key=(i,))
            assert rebuilt.spawn_key == child.spawn_key
            np.testing.assert_array_equal(rebuilt.generate_state(8),
                                          child.generate_state(8))

    def test_worker_error_reaches_caller(self, monkeypatch):
        # the last trial, which a worker runs, fails as an empty tier would
        def fail_last(realization, params, modes, seed, **kwargs):
            if seed.spawn_key[0] == 599:
                raise ValueError("no station in tier: macro")
            return evaluate_user(realization, params, modes, seed, **kwargs)

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
            "from hetnet import fanout, montecarlo as mc\n"
            "from hetnet.core import DuplexMode, NetworkParams, Thresholds\n"
            "fanout._process_count = lambda: 2\n"
            "p = NetworkParams(lambda_s=20.0)\n"
            "w = mc.SimulationWindow()\n"
            "for k in range(10):\n"
            "    rel = mc.NetworkRealization(\n"
            "        mc.sample_ppp(p.lambda_m, w, seed=2 * k),\n"
            "        mc.sample_ppp(p.lambda_s, w, seed=2 * k + 1))\n"
            "    print(mc.evaluate_user(rel, p, tuple(DuplexMode), seed=k))\n"
            "th = Thresholds(T_s=0.1, T_b=0.1, T_m=0.1)\n"
            "passes = mc.simulate_pass(p, tuple(DuplexMode), 500, w, 67)\n"
            "for mode in DuplexMode:\n"
            "    out = mc.tally_metrics(passes[mode], p, th, mode)\n"
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
