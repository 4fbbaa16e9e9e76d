import math

import numpy as np
import pytest

from hetnet.numerics import (
    IntegralResult,
    exp_power_integral,
    gauss_panel_nodes,
    kronrod_panel,
)
from oracles import QuadratureSpec, integrate_1d, integrate_annulus

SPEC = QuadratureSpec()

# Frozen oracle for Int_0^inf dt/(1+t^1.4): fixed-grid trapezoid with 1e7
# points on [0, 100] plus an analytic series tail, independently confirmed
# by 40-digit quadrature (both agree to 3e-14).
INT_T14 = 2.870177017533824
# Frozen oracle for the annulus example f(z) = 1 - 1/(1+||z||^-4) outside the
# unit disc: fine polar Riemann sum (2.2e6 rings to r=400 plus tail), which
# matches the closed form pi^2/4 to 3e-11.
ANNULUS_SOFT = 2.4674011002723397


class TestQuadratureSpec:
    def test_defaults(self):
        assert SPEC.abs_tol == 1e-7 and SPEC.rel_tol == 1e-5

    @pytest.mark.parametrize("kw", [dict(abs_tol=0), dict(rel_tol=-1e-3),
                                    dict(abs_tol=math.nan),
                                    dict(rel_tol=math.nan)])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            QuadratureSpec(**kw)

    def test_integral_result_validation(self):
        with pytest.raises(ValueError):
            IntegralResult(value=1.0, error_estimate=-1.0, converged=True)

    def test_integral_result_arithmetic_carries_errors(self):
        a = IntegralResult(0.3, 1e-6, True)
        b = IntegralResult(0.6, 2e-6, False)
        assert a + b == IntegralResult(0.3 + 0.6, 1e-6 + 2e-6, False)
        ratio = a / IntegralResult(0.6, 2e-6, True)
        assert ratio.value == 0.3 / 0.6 and ratio.converged
        # first order in both: d(a/b) = da/b + (a/b) db/b
        assert ratio.error_estimate == pytest.approx(
            1e-6 / 0.6 + 0.5 * 2e-6 / 0.6, rel=1e-15)
        assert not (a / b).converged and not (b / a).converged


class TestIntegrate1D:
    def test_arctan_full_halfline(self):
        r = integrate_1d(lambda t: 1.0 / (1.0 + t * t), 0.0, math.inf, SPEC)
        assert r.converged
        assert r.value == pytest.approx(math.pi / 2, abs=1e-8)

    def test_arctan_from_one(self):
        r = integrate_1d(lambda t: 1.0 / (1.0 + t * t), 1.0, math.inf, SPEC)
        assert r.converged
        assert r.value == pytest.approx(math.pi / 4, abs=1e-8)

    def test_slow_power_tail_against_trapezoid_oracle(self):
        r = integrate_1d(lambda t: 1.0 / (1.0 + t ** 1.4), 0.0, math.inf, SPEC)
        assert r.converged
        assert r.value == pytest.approx(INT_T14, abs=1e-6)

    def test_finite_interval(self):
        r = integrate_1d(math.sin, 0.0, math.pi, SPEC)
        assert r.converged
        assert r.value == pytest.approx(2.0, abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a, b = rng.uniform(-3, 3, size=2)
            f = lambda t: math.exp(-t) * math.cos(t)
            g = lambda t: 1.0 / (1.0 + t * t) ** 2
            combined = integrate_1d(
                lambda t: a * f(t) + b * g(t), 0.0, math.inf, SPEC
            )
            parts = a * integrate_1d(f, 0.0, math.inf, SPEC).value \
                + b * integrate_1d(g, 0.0, math.inf, SPEC).value
            tol = max(SPEC.abs_tol, SPEC.rel_tol * abs(parts)) * 4
            assert combined.value == pytest.approx(parts, abs=tol)

    def test_slow_power_law_from_one(self):
        # semi-infinite domains are mapped, not cut: the t^-1.5 tail
        # integrates to its exact value
        r = integrate_1d(lambda t: t ** -1.5, 1.0, math.inf, SPEC)
        assert r.value == pytest.approx(2.0, abs=1e-7)

    def test_nonconvergence_reported(self):
        # integrand with a nasty interior singularity and tolerances that
        # the subinterval budget cannot meet
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
        r = integrate_1d(lambda t: abs(t - math.e / 3) ** -0.9, 0.0, 1.0, spec)
        assert not r.converged


class TestIntegrateAnnulus:
    """The test-only annulus oracle, checked on integrals with known values
    before other tests rely on it."""

    def test_zero_integrand(self):
        r = integrate_annulus(lambda rho, th: np.zeros_like(rho), [], SPEC)
        assert r.value == 0.0

    def test_pure_powerlaw_outside_unit_disc(self):
        r = integrate_annulus(
            lambda rho, th: rho ** -4.0, [((0.0, 0.0), 1.0)], SPEC
        )
        assert r.converged
        assert r.value == pytest.approx(math.pi, rel=1e-5)

    def test_soft_powerlaw_against_riemann_oracle(self):
        r = integrate_annulus(
            lambda rho, th: 1.0 / (1.0 + rho ** 4), [((0.0, 0.0), 1.0)], SPEC
        )
        assert r.value == pytest.approx(ANNULUS_SOFT, abs=1e-4)

    def test_offset_disc_gaussian(self):
        # Gaussian with an origin disc and a remote disc carrying ~0 mass:
        # reference is the single-disc closed form 2*pi*exp(-1/2)
        f = lambda rho, th: np.exp(-0.5 * rho * rho)
        r = integrate_annulus(
            f, [((0.0, 0.0), 1.0), ((50.0, 0.0), 1.0)],
            SPEC, truncation_radius=60.0,
        )
        assert r.value == pytest.approx(2 * math.pi * math.exp(-0.5), rel=1e-6)

    def test_two_overlapping_discs_brute_oracle(self):
        # oracle: whole-plane closed form pi^2/2 minus the union mass from a
        # fine Cartesian midpoint grid (midpoint classification keeps the
        # disc-boundary smear second order)
        discs = [((0.0, 0.0), 1.0), ((1.2, 0.5), 0.8)]
        f = lambda rho, th: 1.0 / (1.0 + rho ** 4)
        r = integrate_annulus(f, discs, SPEC)

        h = 1e-3
        xs = np.arange(-1.0 + h / 2, 2.0, h)
        ys = np.arange(-1.0 + h / 2, 1.3, h)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        in_union = np.zeros_like(X, dtype=bool)
        for (cx, cy), rad in discs:
            in_union |= (X - cx) ** 2 + (Y - cy) ** 2 < rad * rad
        rho2 = X * X + Y * Y
        union_mass = float(np.sum(np.where(in_union, 1.0 / (1.0 + rho2 * rho2), 0.0))) * h * h
        oracle = math.pi ** 2 / 2 - union_mass
        assert r.value == pytest.approx(oracle, abs=5e-4)

    def test_truncation_radius_doubling_within_error(self):
        f = lambda rho, th: rho ** -2.8
        base = integrate_annulus(f, [((0.0, 0.0), 1.0)], SPEC)
        doubled = integrate_annulus(f, [((0.0, 0.0), 1.0)], SPEC,
                                    truncation_radius=2e3)
        # the truncated tail sits in error_estimate, so the exact value
        # 2*pi/0.8 must lie within it, and moving the radius must shift the
        # value by less than the reported error
        exact = 2 * math.pi / 0.8
        assert abs(base.value - exact) <= base.error_estimate
        assert abs(doubled.value - exact) <= doubled.error_estimate
        assert abs(base.value - doubled.value) <= base.error_estimate

    def test_rejects_three_discs(self):
        with pytest.raises(ValueError):
            integrate_annulus(
                lambda rho, th: rho ** -4,
                [((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0), ((2.0, 0.0), 1.0)],
            )


class TestGaussPanels:
    def test_sin_integral(self):
        x, w = gauss_panel_nodes(np.array([0.0, 1.0, 2.0, math.pi]), 8)
        assert float(np.sum(w * np.sin(x))) == pytest.approx(2.0, abs=1e-12)

    def test_batched_breakpoints(self):
        # two batch rows with different panel edges, same integrand x^2
        b = np.array([[0.0, 0.5, 1.0], [0.0, 1.0, 2.0]])
        x, w = gauss_panel_nodes(b, 6)
        vals = np.sum(w * x * x, axis=-1)
        np.testing.assert_allclose(vals, [1.0 / 3.0, 8.0 / 3.0], rtol=1e-13)

    def test_zero_width_panel(self):
        x, w = gauss_panel_nodes(np.array([0.0, 1.0, 1.0, 2.0]), 4)
        assert float(np.sum(w * np.ones_like(x))) == pytest.approx(2.0)


class TestKronrodPanel:
    def test_gauss_subset_is_the_ten_point_rule(self):
        x, _, w_g = kronrod_panel(-1.0, 1.0)
        gx, gw = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(x[w_g > 0], gx, atol=1e-15)
        np.testing.assert_allclose(w_g[w_g > 0], gw, atol=1e-15)
        assert np.all(np.diff(x) > 0) and np.count_nonzero(w_g) == 10

    @pytest.mark.parametrize("degree", range(0, 32, 3))
    def test_kronrod_exact_through_degree_31(self, degree):
        x, w_k, _ = kronrod_panel(0.0, 2.0)
        exact = 2.0 ** (degree + 1) / (degree + 1)
        assert float(w_k @ x ** degree) == pytest.approx(exact, rel=1e-13)

    def test_gauss_exact_through_degree_19_only(self):
        x, _, w_g = kronrod_panel(0.0, 1.0)
        assert float(w_g @ x ** 19) == pytest.approx(1.0 / 20.0, rel=1e-13)
        assert abs(float(w_g @ x ** 20) - 1.0 / 21.0) > 1e-12


class TestExpPowerIntegral:
    """Int_0^inf exp(-v - b v^gamma) dv by the exp-sinh rule, against
    30-digit mpmath quadrature split at the integrand's own scale."""

    @staticmethod
    def reference(b, gamma):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            b, gamma = mp.mpf(b), mp.mpf(gamma)
            scale = 1 / (1 + b ** (1 / gamma))
            return float(mp.quad(lambda v: mp.exp(-v - b * v ** gamma),
                                 [0, scale / 10, scale, 1, mp.inf]))

    @pytest.mark.parametrize("gamma", [0.5, 0.7, 1.0, 1.43, 2.0])
    @pytest.mark.parametrize("b", [0.0, 1e-3, 1.0, 4e3, 1e9])
    def test_matches_mpmath_and_error_covers_it(self, b, gamma):
        value, error, converged = exp_power_integral(b, gamma)
        ref = self.reference(b, gamma)
        assert converged
        assert float(value) == pytest.approx(ref, rel=1e-12)
        assert abs(float(value) - ref) <= float(error)
        assert float(error) <= 3e-8 * ref

    def test_vectorized_equals_scalar_calls(self):
        b = np.array([0.0, 0.3, 12.0, 4e3])
        value, error, converged = exp_power_integral(b, 0.7)
        for i, bi in enumerate(b):
            v, e, c = exp_power_integral(bi, 0.7)
            assert (v, e, c) == (value[i], error[i], converged[i])

    def test_equal_exponents_closed_form(self):
        # gamma = 1: Int exp(-(1 + b) v) dv = 1/(1 + b)
        b = np.geomspace(1e-6, 1e6, 25)
        value, _, _ = exp_power_integral(b, 1.0)
        np.testing.assert_allclose(value, 1.0 / (1.0 + b), rtol=1e-13)
