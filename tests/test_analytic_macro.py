"""Tests for macro-tier joint association+coverage."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hetnet.analytic import association_probability
from hetnet.analytic.macro import coverage_macro_batch
from hetnet.analytic.rates import rate_macro_term_result
from hetnet.core import DuplexMode, NetworkParams, Thresholds, delta_s
from hetnet.experiments import evaluate_point
from oracles import nested_coverage_macro


def params_with(**kw) -> NetworkParams:
    base = dict(lambda_m=1.0, lambda_s=4.0, P_m=150.0, P_s=1.0,
                B_m=1.0, B_s=10 ** 2.2, alpha_m=2.8, alpha_s=4.0)
    base.update(kw)
    return NetworkParams(**base)


def macro_value(p: NetworkParams, T_m: float,
                mode: DuplexMode = DuplexMode.IBFD) -> float:
    """Converged macro coverage value."""
    (value,), _, (converged,) = coverage_macro_batch(p, [T_m], mode)
    assert converged
    return value


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
        assert macro_value(p, 0.1) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("mode", [DuplexMode.IBFD, DuplexMode.FDD])
    @pytest.mark.parametrize("T_m", [0.05, 0.1, 1.0, 10.0])
    def test_matches_scipy_oracle(self, mode, T_m):
        p = params_with()
        assert macro_value(p, T_m, mode) == pytest.approx(
            oracle_macro(p, T_m, mode), rel=1e-7, abs=1e-10)

    def test_oracle_agreement_off_defaults(self):
        p = params_with(alpha_m=3.3, alpha_s=3.1, lambda_s=2.0,
                        B_s=5.0, P_m=40.0)
        for mode in DuplexMode:
            assert macro_value(p, 0.7, mode) == pytest.approx(
                oracle_macro(p, 0.7, mode), rel=1e-7)

    @pytest.mark.parametrize("mode", [DuplexMode.IBFD, DuplexMode.FDD])
    def test_nearest_pico_conditioning_route_agrees(self, mode):
        # the 2-D route decomposes the pico expectation over the nearest
        # pico; Palm calculus says it must reproduce the closed reduction
        p = params_with()
        direct = macro_value(p, 0.1, mode)
        nested = nested_coverage_macro(p, 0.1, mode)
        assert nested == pytest.approx(direct, rel=1e-8)

    def test_vanishing_threshold_recovers_association_share(self):
        p = params_with()
        p_m = 1.0 - association_probability(p).value
        assert macro_value(p, 1e-12) == pytest.approx(p_m, abs=1e-9)

    def test_monotone_in_threshold(self):
        p = params_with()
        vals = [macro_value(p, T) for T in (0.01, 0.1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_band_split_dominates_shared_band(self):
        p = params_with()
        for T_m in (0.05, 0.1, 1.0, 10.0):
            assert macro_value(p, T_m, DuplexMode.FDD) \
                > macro_value(p, T_m, DuplexMode.IBFD)

    def test_degenerate_pico_tier_limit(self):
        # with the bias driven to zero the network is effectively
        # macro-only with an unfiltered pico interferer field
        p = params_with(B_s=1e-9)
        total = evaluate_point(p, Thresholds(T_s=0.1, T_b=0.1, T_m=0.1),
                               DuplexMode.IBFD).analytic["p_total"]
        baseline = nested_coverage_macro(p, 0.1, DuplexMode.IBFD,
                                         pico_exclusion=False)
        assert total == pytest.approx(baseline, abs=1e-3)

    def test_no_picos_single_tier_closed_form(self):
        p = params_with(lambda_s=0.0)
        for T_m in (0.1, 1.0, 5.0):
            x = T_m ** (2.0 / p.alpha_m) * integrate.quad(
                lambda t: 1.0 / (1.0 + t ** (p.alpha_m / 2.0)),
                T_m ** (-2.0 / p.alpha_m), np.inf, limit=300)[0]
            assert macro_value(p, T_m) == pytest.approx(
                1.0 / (1.0 + x), rel=1e-8)

    def test_dropping_exclusion_lifts_coverage_at_defaults(self):
        # at strong bias the lost association void outweighs the extra
        # close-in pico interference
        p = params_with()
        assert nested_coverage_macro(p, 0.1, DuplexMode.IBFD,
                                     pico_exclusion=False) \
            > macro_value(p, 0.1)

    def test_infinite_threshold_gives_zero(self):
        assert macro_value(params_with(), math.inf) == 0.0

    @pytest.mark.parametrize("mode", [DuplexMode.IBFD, DuplexMode.FDD])
    def test_batch_equals_one_threshold_calls(self, mode):
        # an infinite T_m among finite ones gives 0, converged, and every
        # entry is what its one-threshold call gives, bit for bit
        p, T_m = params_with(), [0.1, math.inf, 3.0, 0.1]
        batch = coverage_macro_batch(p, T_m, mode)
        for i, T in enumerate(T_m):
            one = coverage_macro_batch(p, [T], mode)
            assert all(a[i] == b[0] for a, b in zip(batch, one))
        assert [a[1] for a in batch] == [0.0, 0.0, True]

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError, match="strictly positive"):
            coverage_macro_batch(params_with(), [0.0])

    def test_result_reports_convergence(self):
        _, (error,), (converged,) = coverage_macro_batch(params_with(), [0.1])
        assert converged
        assert error < 1e-7

    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_probability_sandwich(self, log_t, lam_s, log_bs):
        p = params_with(lambda_s=lam_s, B_s=10.0 ** log_bs)
        T_m = 10.0 ** log_t
        ibfd = macro_value(p, T_m)
        fdd = macro_value(p, T_m, DuplexMode.FDD)
        p_m = 1.0 - association_probability(p).value
        assert 0.0 <= ibfd <= fdd <= p_m + 1e-9


def mpmath_macro(p: NetworkParams, T_m: float, mode: DuplexMode) -> float:
    """The whole macro reduction at 30 digits, independent of the package
    kernels: both profiles by quadrature of their defining integrals, the
    outer integral over u = r'^2 split at the two scales of its exponent,
    1/A and B^(-1/gamma)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        T, a_m, a_s = mp.mpf(T_m), mp.mpf(p.alpha_m), mp.mpf(p.alpha_s)

        def profile(c, alpha):
            # Int_c^inf dt / (1 + t^q): t = u^(-1/(q-1)) maps [X, inf)
            # onto (0, X^(1-q)] with a smooth integrand, where tanh-sinh
            # on the t^-q tail is good to 3e-9 only at alpha = 2.5
            q, X = alpha / 2, max(c, 1)
            return mp.quad(lambda t: 1 / (1 + t ** q), [c, X]) + mp.quad(
                lambda u: 1 / (1 + u ** (q / (q - 1))),
                [0, X ** (1 - q)]) / (q - 1)

        A = mp.pi * p.lambda_m * (1 + T ** (2 / a_m)
                                  * profile(T ** (-2 / a_m), a_m))
        W = mp.mpf(delta_s(p)) ** 2
        if mode is DuplexMode.IBFD:
            W += (T * p.P_s / p.P_m) ** (2 / a_s) * profile(
                (p.B_s / (p.B_m * T)) ** (2 / a_s), a_s)
        B, gamma = mp.pi * p.lambda_s * W, a_m / a_s
        scales = [1 / A] + ([B ** (-1 / gamma)] if B > 0 else [])
        points = sorted({mp.mpf(0)} | {k * s for s in scales
                                      for k in (0.1, 1, 10)})
        return float(mp.pi * p.lambda_m * mp.quad(
            lambda u: mp.exp(-A * u - B * u ** gamma), points + [mp.inf]))


# a dense, strongly biased pico tier ({"lambda_s": 40, "B_s_db": 60}):
# after v = A u the mass lies below v ~ 1e-5, where quadpack on the mapped
# half-line saw none of it and returned 8.4e-18 as converged
STRONG_BIAS = dict(lambda_s=40.0, B_s=1e6)
# rate_macro_term_result there, by 30-digit mpmath: T_m = 2^t - 1 and
# x = ln T_m turn the t-integral into Int p(e^x) e^x / ((1 + e^x) ln 2) dx,
# taken by 24-point Gauss-Legendre panels split at
# ln 0.1 + (0, 1, 3, 7, 15, 30, 60) (16 and 40 points agree to 1.5e-14
# and 1e-18), each node's coverage by mpmath_macro
STRONG_BIAS_RATE = {
    (DuplexMode.IBFD, 0.1): 2.7969355356181394e-05,
    (DuplexMode.IBFD, 0.01): 2.7969355659556110e-05,
    (DuplexMode.FDD, 0.1): 1.5642664267368869e-05,
    (DuplexMode.FDD, 0.01): 1.5642664411748025e-05,
}


class TestAgainstMpmath:
    @pytest.mark.parametrize("mode", [DuplexMode.IBFD, DuplexMode.FDD])
    @pytest.mark.parametrize("T_m", [0.1, 0.01])
    def test_strong_bias_dense_tier_coverage(self, mode, T_m):
        (value,), (error,), (converged,) = coverage_macro_batch(
            params_with(**STRONG_BIAS), [T_m], mode)
        ref = mpmath_macro(params_with(**STRONG_BIAS), T_m, mode)
        assert ref == pytest.approx(7.40e-6, rel=1e-3)
        assert converged
        assert value == pytest.approx(ref, rel=1e-12)
        assert abs(value - ref) <= error

    @pytest.mark.parametrize("mode", [DuplexMode.IBFD, DuplexMode.FDD])
    @pytest.mark.parametrize("T_m", [0.1, 0.01])
    def test_strong_bias_dense_tier_rate_term(self, mode, T_m):
        res = rate_macro_term_result(params_with(**STRONG_BIAS),
                                     Thresholds(T_m=T_m), mode)
        ref = STRONG_BIAS_RATE[mode, T_m]
        assert res.converged
        assert res.value == pytest.approx(ref, rel=1e-10)
        assert abs(res.value - ref) <= res.error_estimate

    @pytest.mark.parametrize("lam_s", [0.5, 40.0])
    @pytest.mark.parametrize("bias_db", [-10.0, 20.0, 60.0])
    @pytest.mark.parametrize("alpha_m", [2.5, 3.5])
    def test_error_estimate_covers_mpmath_across_regimes(self, lam_s,
                                                          bias_db, alpha_m):
        p = params_with(lambda_s=lam_s, B_s=10.0 ** (bias_db / 10.0),
                        alpha_m=alpha_m)
        for mode in DuplexMode:
            for T_m in (0.01, 10.0):
                (value,), (error,), (converged,) = coverage_macro_batch(
                    p, [T_m], mode)
                ref = mpmath_macro(p, T_m, mode)
                assert converged
                assert abs(value - ref) <= error, \
                    f"{mode.name} T_m={T_m}: {value!r} vs {ref!r}"
