"""Tests for the sampled-network estimator route.

Structural checks use hand-built realizations where the interferer sets
are small enough to reason about exactly; statistical checks pin seeds
and compare against the analytic route at 3-sigma.
"""
import math

import numpy as np
import pytest

from hetnet.analytic import association_probability, coverage_total, rate_covered
from hetnet.core import DuplexMode, NetworkParams, Thresholds, delta_m
from hetnet.experiments import evaluate_point
from hetnet.montecarlo import (
    EstimateWithCI,
    NetworkRealization,
    SimulationWindow,
    estimate_metrics,
    evaluate_user,
    sample_ppp,
)

TH = Thresholds(T_s=0.1, T_b=0.1, T_m=0.1)


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
        w = SimulationWindow(half_width=5.0)
        for s in range(5):
            assert sample_ppp(2.0, w, seed=s, fixed_count=True).shape[0] \
                == round(2.0 * w.area)

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
        a = evaluate_user(rel, p, DuplexMode.IBFD, seed=7, window=w)
        b = evaluate_user(rel, p, DuplexMode.IBFD, seed=7, window=w)
        assert a == b

    def test_empty_macro_tier_rejected(self):
        rel = realization(np.empty((0, 2)), [[0.5, 0.0]])
        with pytest.raises(ValueError, match="no station in tier"):
            evaluate_user(rel, NetworkParams(), DuplexMode.IBFD, seed=0)

    def test_tier_fields_nan_pattern(self):
        # lone distant macro, nearby pico: pico association
        rel = realization([[5.0, 0.0]], [[0.4, 0.0]])
        s = evaluate_user(rel, NetworkParams(), DuplexMode.IBFD, seed=3)
        assert s.associated_tier == "pico"
        assert math.isnan(s.sir_um)
        assert s.sir_us > 0 and s.sir_sm > 0
        # no pico at all: macro association
        rel = realization([[1.0, 0.0]], np.empty((0, 2)))
        s = evaluate_user(rel, NetworkParams(), DuplexMode.IBFD, seed=3)
        assert s.associated_tier == "macro"
        assert math.isnan(s.sir_us) and math.isnan(s.sir_sm)
        assert s.sir_um > 0

    def test_association_boundary(self):
        # pico at unit distance: the macro wins inside delta_m^{-1}
        p = NetworkParams()
        cut = 1.0 / delta_m(p)
        near = realization([[cut * 0.98, 0.0]], [[0.0, 1.0]])
        far = realization([[cut * 1.02, 0.0]], [[0.0, 1.0]])
        assert evaluate_user(near, p, DuplexMode.IBFD, 0).associated_tier \
            == "macro"
        assert evaluate_user(far, p, DuplexMode.IBFD, 0).associated_tier \
            == "pico"

    def test_interferer_sets_by_mode(self):
        # one macro + one pico, beta = 0: the pico's access link sees only
        # the macro, and the backhaul link has no interferer at all
        p = NetworkParams(beta=0.0)
        rel = realization([[6.0, 0.0]], [[0.3, 0.0]])
        ibfd = evaluate_user(rel, p, DuplexMode.IBFD, seed=9,
                             tail_compensation=False)
        assert ibfd.sir_us < 1e10  # macro interference present
        assert ibfd.sir_sm == pytest.approx(1e12)  # interference-free cap
        # FDD drops the cross-tier term: both links are interference-free
        fdd = evaluate_user(rel, p, DuplexMode.FDD, seed=9,
                            tail_compensation=False)
        assert fdd.sir_us == pytest.approx(1e12)
        assert fdd.sir_sm == pytest.approx(1e12)

    def test_residual_self_interference_scales(self):
        # lone macro-pico pair: the backhaul denominator is exactly the
        # residual term, so conventions differ by the power ratio
        p_ps = NetworkParams(beta=2.0, self_interference_convention="ps")
        p_pm = NetworkParams(beta=2.0, self_interference_convention="pm")
        rel = realization([[6.0, 0.0]], [[0.3, 0.0]])
        s_ps = evaluate_user(rel, p_ps, DuplexMode.IBFD, seed=4,
                             tail_compensation=False)
        s_pm = evaluate_user(rel, p_pm, DuplexMode.IBFD, seed=4,
                             tail_compensation=False)
        assert s_ps.sir_sm == pytest.approx(
            s_pm.sir_sm * p_ps.P_m / p_ps.P_s, rel=1e-12)

    def test_huge_residual_kills_backhaul(self):
        p = NetworkParams(beta=1e15)
        rel = realization([[6.0, 0.0]], [[0.3, 0.0]])
        s = evaluate_user(rel, p, DuplexMode.IBFD, seed=4)
        assert s.sir_sm < 1e-6

    def test_torus_metric_flips_backhaul_station(self):
        # The serving pico sits at (5, 0); macro A is 11 away from it,
        # macro B is 19.5 away on the flat window but 10.5 under wrap, so
        # the nearest backhauling macro flips.  With the same seed the
        # fading draws coincide, and the product of the two backhaul SIRs
        # cancels them, leaving a pure distance-ratio identity.
        p = NetworkParams(beta=0.0)
        rel = realization([[5.0, -11.0], [-14.5, 0.0]], [[5.0, 0.0]])
        flat = evaluate_user(rel, p, DuplexMode.FDD, seed=2,
                             window=SimulationWindow(half_width=15.0),
                             tail_compensation=False)
        wrapped = evaluate_user(rel, p, DuplexMode.FDD, seed=2,
                                window=SimulationWindow(half_width=15.0,
                                                        wrap=True),
                                tail_compensation=False)
        assert flat.associated_tier == wrapped.associated_tier == "pico"
        assert flat.sir_sm != wrapped.sir_sm
        expected = (19.5 / 10.5) ** p.alpha_m
        assert flat.sir_sm * wrapped.sir_sm == pytest.approx(expected,
                                                             rel=1e-9)


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
        p_s, _ = association_probability(p)
        est = bd["p_assoc_s"]
        assert abs(est.mean - p_s) < 3.0 * max(est.std_error, 1e-6)

    def test_coverage_consistent_with_analytic(self):
        p = NetworkParams()
        for mode in (DuplexMode.IBFD, DuplexMode.FDD):
            analytic = coverage_total(p, TH, mode).p_total
            est = estimate_metrics(p, TH, mode, n_trials=3000,
                                   master_seed=17)["p_total"]
            assert abs(est.mean - analytic) < 3.0 * est.std_error

    def test_rate_consistent_with_analytic(self):
        p = NetworkParams()
        analytic = rate_covered(p, TH, DuplexMode.IBFD).rate_total
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
        analytic = coverage_total(p, TH, DuplexMode.IBFD).p_total
        est = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=1500,
                               window=SimulationWindow(30.0, wrap=True),
                               master_seed=29)["p_total"]
        assert abs(est.mean - analytic) < 3.0 * est.std_error

    def test_tail_compensation_only_hurts_sir(self):
        # same seeds, small window: adding the mean far-field interference
        # can only knock trials out of coverage, never in
        p = NetworkParams()
        w = SimulationWindow(half_width=10.0)
        on = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=500,
                              window=w, master_seed=31,
                              tail_compensation=True)["p_total"]
        off = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=500,
                               window=w, master_seed=31,
                               tail_compensation=False)["p_total"]
        assert off.mean >= on.mean

    def test_fixed_count_route(self):
        p = NetworkParams()
        est = estimate_metrics(p, TH, DuplexMode.IBFD, n_trials=300,
                               master_seed=37, fixed_count=True)["p_total"]
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
        with pytest.raises(ValueError, match="conditioning event empty"):
            evaluate_point(p, th, DuplexMode.IBFD, ("rate",), trials=100,
                           seed=47)

    def test_bad_trial_count_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            estimate_metrics(NetworkParams(), TH, DuplexMode.IBFD,
                             n_trials=0)
