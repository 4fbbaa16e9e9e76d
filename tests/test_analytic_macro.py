"""Tests for macro-tier joint association+coverage."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hetnet.analytic import association_probability
from hetnet.analytic.macro import coverage_macro, coverage_macro_result
from hetnet.analytic.smallcell import coverage_smallcell
from hetnet.core import DuplexMode, NetworkParams, delta_s
from oracles import nested_coverage_macro


def params_with(**kw) -> NetworkParams:
    base = dict(lambda_m=1.0, lambda_s=4.0, P_m=150.0, P_s=1.0,
                B_m=1.0, B_s=10 ** 2.2, alpha_m=2.8, alpha_s=4.0)
    base.update(kw)
    return NetworkParams(**base)


def oracle_macro(p: NetworkParams, T_m: float, mode: DuplexMode) -> float:
    """Re-derive the whole reduction with scipy only.

    Interference profiles C(c, alpha) = Int_c^inf dt/(1+t^{alpha/2}) by
    adaptive quad (no hypergeometric closed form), outer nearest-macro
    integral by quad over r' directly (no u = r'^2 substitution).
    """
    a_m, a_s = p.alpha_m, p.alpha_s

    def profile(c, alpha):
        val = integrate.quad(lambda t: 1.0 / (1.0 + t ** (alpha / 2.0)),
                             c, np.inf, limit=300)[0]
        return val

    c_macro = profile(T_m ** (-2.0 / a_m), a_m)
    w = delta_s(p) ** 2
    if mode is DuplexMode.IBFD:
        c_pico = profile((p.B_s / (p.B_m * T_m)) ** (2.0 / a_s), a_s)
        w += (T_m * p.P_s / p.P_m) ** (2.0 / a_s) * c_pico

    def f(rp):
        return 2.0 * math.pi * p.lambda_m * rp * math.exp(
            -math.pi * p.lambda_m * rp ** 2
            * (1.0 + T_m ** (2.0 / a_m) * c_macro)
            - math.pi * p.lambda_s * w * rp ** (2.0 * a_m / a_s))

    return integrate.quad(f, 0.0, np.inf, limit=300)[0]


# frozen from the converged solver at default powers; thresholds linear
FROZEN_MACRO = [
    (1.0, 0.33157420),
    (4.0, 0.08613756),
    (10.0, 0.02634012),
    (20.0, 0.01010666),
]


class TestMacroCoverage:
    @pytest.mark.parametrize("lam_s,expected", FROZEN_MACRO)
    def test_frozen_reference_values(self, lam_s, expected):
        p = params_with(lambda_s=lam_s)
        assert coverage_macro(p, 0.1) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("mode", [DuplexMode.IBFD, DuplexMode.FDD])
    @pytest.mark.parametrize("T_m", [0.05, 0.1, 1.0, 10.0])
    def test_matches_scipy_oracle(self, mode, T_m):
        p = params_with()
        assert coverage_macro(p, T_m, mode) == pytest.approx(
            oracle_macro(p, T_m, mode), rel=1e-7, abs=1e-10)

    def test_oracle_agreement_off_defaults(self):
        p = params_with(alpha_m=3.3, alpha_s=3.1, lambda_s=2.0,
                        B_s=5.0, P_m=40.0)
        for mode in DuplexMode:
            assert coverage_macro(p, 0.7, mode) == pytest.approx(
                oracle_macro(p, 0.7, mode), rel=1e-7)

    @pytest.mark.parametrize("mode", [DuplexMode.IBFD, DuplexMode.FDD])
    def test_nearest_pico_conditioning_route_agrees(self, mode):
        # the 2-D route decomposes the pico expectation over the nearest
        # pico; Palm calculus says it must reproduce the closed reduction
        p = params_with()
        direct = coverage_macro(p, 0.1, mode)
        nested = nested_coverage_macro(p, 0.1, mode)
        assert nested == pytest.approx(direct, rel=1e-8)

    def test_vanishing_threshold_recovers_association_share(self):
        p = params_with()
        _, p_m = association_probability(p)
        assert coverage_macro(p, 1e-12) == pytest.approx(p_m, abs=1e-9)

    def test_monotone_in_threshold(self):
        p = params_with()
        vals = [coverage_macro(p, T) for T in (0.01, 0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_band_split_dominates_shared_band(self):
        p = params_with()
        for T_m in (0.05, 0.1, 1.0, 10.0):
            assert coverage_macro(p, T_m, DuplexMode.FDD) \
                > coverage_macro(p, T_m, DuplexMode.IBFD)

    def test_degenerate_pico_tier_limit(self):
        # with the bias driven to zero the network is effectively
        # macro-only with an unfiltered pico interferer field
        p = params_with(B_s=1e-9)
        total = coverage_smallcell(p, 0.1, 0.1) + coverage_macro(p, 0.1)
        baseline = nested_coverage_macro(p, 0.1, DuplexMode.IBFD,
                                         pico_exclusion=False)
        assert total == pytest.approx(baseline, abs=1e-3)

    def test_no_picos_single_tier_closed_form(self):
        p = params_with(lambda_s=0.0)
        for T_m in (0.1, 1.0, 5.0):
            x = T_m ** (2.0 / p.alpha_m) * integrate.quad(
                lambda t: 1.0 / (1.0 + t ** (p.alpha_m / 2.0)),
                T_m ** (-2.0 / p.alpha_m), np.inf, limit=300)[0]
            assert coverage_macro(p, T_m) == pytest.approx(
                1.0 / (1.0 + x), rel=1e-8)

    def test_dropping_exclusion_lifts_coverage_at_defaults(self):
        # at strong bias the lost association void outweighs the extra
        # close-in pico interference
        p = params_with()
        assert nested_coverage_macro(p, 0.1, DuplexMode.IBFD,
                                     pico_exclusion=False) \
            > coverage_macro(p, 0.1)

    def test_infinite_threshold_gives_zero(self):
        assert coverage_macro(params_with(), math.inf) == 0.0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="strictly positive"):
            coverage_macro(params_with(), 0.0)

    def test_result_reports_convergence(self):
        res = coverage_macro_result(params_with(), 0.1)
        assert res.converged
        assert res.error_estimate < 1e-7

    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_probability_sandwich(self, log_t, lam_s, log_bs):
        p = params_with(lambda_s=lam_s, B_s=10.0 ** log_bs)
        T_m = 10.0 ** log_t
        ibfd = coverage_macro(p, T_m)
        fdd = coverage_macro(p, T_m, DuplexMode.FDD)
        _, p_m = association_probability(p)
        assert 0.0 <= ibfd <= fdd <= p_m + 1e-9
