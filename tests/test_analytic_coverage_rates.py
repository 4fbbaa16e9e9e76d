"""Tests for the tier-assembled coverage breakdown and covered-rate terms."""
import math

import numpy as np
import pytest
from scipy import integrate

from hetnet.analytic import association_probability, coverage_total, smallcell
from hetnet.analytic.macro import coverage_macro
from hetnet.analytic.rates import (
    rate_covered,
    rate_macro_term,
    rate_smallcell_term,
    rate_smallcell_term_result,
)
from hetnet.analytic.smallcell import coverage_smallcell, evaluate_joint
from hetnet.core import DuplexMode, NetworkParams, Thresholds


def params_with(**kw) -> NetworkParams:
    base = dict(lambda_m=1.0, lambda_s=4.0, P_m=150.0, P_s=1.0,
                B_m=1.0, B_s=10 ** 2.2, alpha_m=2.8, alpha_s=4.0)
    base.update(kw)
    return NetworkParams(**base)


TH = Thresholds(T_s=0.1, T_b=0.1, T_m=0.1)


class TestCoverageTotal:
    def test_breakdown_identities(self):
        for mode in DuplexMode:
            cb = coverage_total(params_with(), TH, mode)
            assert cb.p_total == pytest.approx(
                cb.p_smallcell_joint + cb.p_macro_joint, abs=1e-12)
            assert cb.p_assoc_s + cb.p_assoc_m == pytest.approx(1.0,
                                                                abs=1e-9)
            for field in ("p_total", "p_smallcell_joint", "p_macro_joint",
                          "p_assoc_s", "p_assoc_m", "backhaul_conditional",
                          "access_conditional"):
                assert 0.0 <= getattr(cb, field) <= 1.0

    def test_frozen_reference_values(self):
        assert coverage_total(params_with(), TH).p_total == pytest.approx(
            0.357451, abs=5e-4)
        assert coverage_total(params_with(), TH,
                              DuplexMode.FDD).p_total == pytest.approx(
            0.753623, abs=5e-4)

    def test_band_split_dominates_shared_band(self):
        for th in (TH, Thresholds(T_s=1.0, T_b=0.5, T_m=2.0)):
            p = params_with()
            assert coverage_total(p, th, DuplexMode.FDD).p_total \
                > coverage_total(p, th, DuplexMode.IBFD).p_total

    @pytest.mark.parametrize("axis", ["T_s", "T_b", "T_m"])
    def test_monotone_in_each_threshold(self, axis):
        p = params_with()
        vals = []
        for T in (0.05, 0.2, 1.0, 5.0, 25.0):
            kw = {"T_s": 0.1, "T_b": 0.1, "T_m": 0.1}
            kw[axis] = T
            vals.append(coverage_total(p, Thresholds(**kw)).p_total)
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
        assert vals[0] > vals[-1]

    def test_joint_bounded_by_single_link_conditionals(self):
        cb = coverage_total(params_with(), TH)
        joint_cond = cb.p_smallcell_joint / cb.p_assoc_s
        assert joint_cond <= cb.access_conditional + 1e-9
        assert joint_cond <= cb.backhaul_conditional + 1e-9

    def test_conditionals_match_vanishing_threshold_limits(self):
        p = params_with()
        cb = coverage_total(p, TH)
        p_s, _ = association_probability(p)
        assert cb.access_conditional == pytest.approx(
            coverage_smallcell(p, 0.1, 1e-12) / p_s, abs=1e-9)
        assert cb.backhaul_conditional == pytest.approx(
            coverage_smallcell(p, 1e-12, 0.1) / p_s, abs=1e-9)

    def test_no_pico_tier(self):
        cb = coverage_total(params_with(lambda_s=0.0), TH)
        assert cb.p_assoc_s == 0.0
        assert cb.p_smallcell_joint == 0.0
        assert cb.access_conditional == cb.backhaul_conditional == 0.0
        assert cb.p_total == cb.p_macro_joint > 0.0


class TestRateTerms:
    def test_macro_term_matches_adaptive_quadrature(self):
        p = params_with()
        for mode in DuplexMode:
            t_star = math.log2(1.0 + TH.T_m)
            tail = integrate.quad(
                lambda t: coverage_macro(p, 2.0 ** t - 1.0, mode),
                t_star, 60.0, limit=200)[0]
            head = t_star * coverage_macro(p, TH.T_m, mode)
            prefactor = (1.0 - p.eta)
            if mode is DuplexMode.FDD:
                prefactor *= 1.0 - p.kappa
            assert rate_macro_term(p, TH, mode) == pytest.approx(
                prefactor * (head + tail), rel=1e-5)

    def test_smallcell_term_matches_adaptive_quadrature(self):
        p = params_with()
        n, eta = p.picos_per_macro, p.eta

        def survival(t):
            e_b = n * t / eta
            if e_b > 50.0:
                return 0.0
            return evaluate_joint(p, max(2.0 ** t - 1.0, TH.T_s),
                                  max(2.0 ** e_b - 1.0, TH.T_b),
                                  DuplexMode.IBFD)

        t_a = math.log2(1.1)
        t_b = (eta / n) * math.log2(1.1)
        ref = integrate.quad(survival, 0.0, 11.0, points=[t_b, t_a],
                             limit=80, epsabs=1e-7)[0]
        assert rate_smallcell_term(p, TH) == pytest.approx(ref, rel=2e-4)

    # rate_smallcell_term_result at T = 0.1, frozen from the scalar t-node
    # integrand; batching a panel's nodes into one evaluate_joint call
    # leaves the node sets, the t-rule and the stopping rule unchanged
    @pytest.mark.parametrize("mode, eta, value, error", [
        (DuplexMode.IBFD, 0.151, 0.009938091116137878, 1.1082287425870187e-05),
        (DuplexMode.IBFD, 0.451, 0.0271281823304212, 2.6694100842230017e-06),
        (DuplexMode.IBFD, 0.901, 0.04811097639988319, 2.385451651507664e-06),
        (DuplexMode.FDD, 0.451, 0.045947772474799864, 3.115576960983264e-05)])
    def test_frozen_smallcell_term(self, mode, eta, value, error):
        res = rate_smallcell_term_result(params_with(eta=eta), TH, mode)
        assert res.converged
        assert res.value == pytest.approx(value, rel=1e-11, abs=0.0)
        assert res.error_estimate == pytest.approx(error, rel=1e-2)

    def test_frozen_rate_anchors(self):
        p = params_with()
        ibfd = rate_covered(p, TH, DuplexMode.IBFD)
        fdd = rate_covered(p, TH, DuplexMode.FDD)
        assert ibfd.rate_total == pytest.approx(0.280645, abs=1e-3)
        assert fdd.rate_total == pytest.approx(0.141364, abs=1e-3)
        assert 1.0 < ibfd.rate_total / fdd.rate_total < 2.0

    @pytest.mark.parametrize("eta,expected", [
        (0.001, 0.790188), (0.451, 0.510116), (0.901, 0.212897)])
    def test_frozen_backhaul_share_sweep(self, eta, expected):
        rb = rate_covered(params_with(eta=eta), TH)
        assert rb.rate_total == pytest.approx(expected, abs=1.5e-3)

    def test_full_backhaul_allocation_kills_macro_term(self):
        assert rate_macro_term(params_with(eta=1.0), TH) == 0.0

    def test_zero_backhaul_allocation_kills_pico_term(self):
        assert rate_smallcell_term(params_with(eta=0.0), TH) == 0.0
        res = rate_smallcell_term_result(params_with(eta=0.0), TH)
        assert res.converged and res.value == 0.0

    def test_band_split_scales_single_tier_macro_rate(self):
        # with no picos the macro coverage is mode-independent, so the FDD
        # term is exactly the macro band share times the IBFD term
        for kappa in (0.5, 0.3):
            p = params_with(lambda_s=0.0, kappa=kappa)
            ibfd = rate_macro_term(p, TH, DuplexMode.IBFD)
            fdd = rate_macro_term(p, TH, DuplexMode.FDD)
            assert fdd == pytest.approx((1.0 - kappa) * ibfd, rel=1e-9)

    def test_macro_term_decreases_with_floor(self):
        p = params_with()
        vals = [rate_macro_term(p, Thresholds(T_s=0.1, T_b=0.1, T_m=T))
                for T in (0.1, 2.0, 50.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_extreme_floor_starves_macro_term(self):
        p = params_with()
        assert rate_macro_term(
            p, Thresholds(T_s=0.1, T_b=0.1, T_m=1e30)) < 1e-9
        assert rate_macro_term(
            p, Thresholds(T_s=0.1, T_b=0.1, T_m=math.inf)) == 0.0


class TestRateCovered:
    def test_breakdown_identity(self):
        rb = rate_covered(params_with(), TH)
        assert rb.rate_total == pytest.approx(
            (rb.rate_macro_term + rb.rate_smallcell_term)
            / rb.coverage_used, rel=1e-12)
        assert rb.rate_total >= 0.0

    def test_zero_coverage_conditioning_raises(self):
        th = Thresholds(T_s=math.inf, T_b=math.inf, T_m=math.inf)
        with pytest.raises(ValueError, match="zero probability"):
            rate_covered(params_with(), th)

    def test_normalisation_integrates_joint_coverage_once(self, monkeypatch):
        # p_total needs the joint small-cell integral only, not the two
        # per-link conditionals that coverage_total also integrates
        calls = []
        original = smallcell.coverage_smallcell_result

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(smallcell, "coverage_smallcell_result", counted)
        rb = rate_covered(params_with(), TH, DuplexMode.FDD)
        assert len(calls) == 1
        monkeypatch.undo()
        assert rb.coverage_used == coverage_total(params_with(), TH,
                                                  DuplexMode.FDD).p_total
