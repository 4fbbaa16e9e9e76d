"""Tests for the tail profile, association split, and joint distance law."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from hetnet.analytic import association_probability, topology_probabilities
from hetnet.analytic.distances import inner_disc_radius, joint_pdf, outer_grid
from hetnet.analytic.tails import (
    power_tail_nodes,
    shifted_functional_radius2,
    tail_profile,
)
from hetnet.core import NetworkParams, delta_m
from hetnet.numerics import QuadratureSpec
from oracles import integrate_annulus, tail_profile_quad


def params_with(**kw) -> NetworkParams:
    base = dict(lambda_m=1.0, lambda_s=4.0, P_m=150.0, P_s=1.0,
                B_m=1.0, B_s=10 ** 2.2, alpha_m=2.8, alpha_s=4.0)
    base.update(kw)
    return NetworkParams(**base)


# ---------------------------------------------------------------------------
# tail profile and tail quadrature helpers
# ---------------------------------------------------------------------------

class TestTailProfile:
    @pytest.mark.parametrize("alpha", [2.2, 2.8, 3.5, 4.0])
    @pytest.mark.parametrize("c", [1e-3, 0.3, 1.0, 7.0, 1e3])
    def test_matches_quadrature_route(self, alpha, c):
        closed = tail_profile(c, alpha)
        quad = tail_profile_quad(c, alpha)
        if c <= 10.0:
            assert quad.converged
        # the quadrature route owns the residual: agreement within its own
        # reported error (floored to keep the check meaningful).  At large c
        # the mapped quadrature may honestly report non-convergence; the
        # mutual gap must still be covered by its error estimate.
        tol = max(5.0 * quad.error_estimate, 1e-10)
        assert abs(closed - quad.value) <= tol

    def test_alpha_four_elementary_form(self):
        for c in (0.0, 0.2, 1.0, 5.0, 1e4):
            assert tail_profile(c, 4.0) == pytest.approx(
                math.pi / 2 - math.atan(c), rel=1e-12)

    def test_large_argument_series_continuity(self):
        # large arguments, on both sides of c = 1e6, against a
        # high-precision reference (head integral over [0, c] is finite and
        # easy)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for alpha in (2.4, 2.8, 4.0):
            p = alpha / 2.0
            full = (mp.pi / p) / mp.sin(mp.pi / p)
            for c in (9.999e5, 1.001e6):
                ref = float(full - mp.quad(lambda t: 1 / (1 + t ** p), [0, c]))
                assert tail_profile(c, alpha) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("alpha", [2.2, 2.8, 3.5, 4.0, 6.0])
    def test_matches_hypergeometric_reference_to_rounding(self, alpha):
        # reference: C(0) - c 2F1(1, 1/p; 1 + 1/p; -c^p) at 60 digits, where
        # the cancellation of that form for large c costs nothing; the
        # closed form switches route at c = 1, so both sides are sampled
        mp = pytest.importorskip("mpmath")
        cs = np.concatenate([np.logspace(-12, 12, 97),
                             [np.nextafter(1.0, 0.0), 1.0, 1.0 + 2e-16]])
        got = tail_profile(cs, alpha)
        with mp.workdps(60):
            p = mp.mpf(alpha) / 2
            full = (mp.pi / p) / mp.sin(mp.pi / p)
            for c, value in zip(cs, got):
                c = mp.mpf(float(c))
                ref = full - c * mp.hyp2f1(1, 1 / p, 1 + 1 / p, -c ** p)
                assert abs(value - ref) <= 2e-15 * ref, float(c)

    def test_monotone_decreasing_in_c(self):
        cs = np.logspace(-3, 7, 60)
        vals = tail_profile(cs, 2.8)
        assert np.all(np.diff(vals) < 0)

    def test_shifted_functional_matches_annulus_quadrature(self):
        # mass of z -> 1 - 1/(1 + s |z|^-alpha) outside a centered disc
        s, alpha, R = 2.0, 2.8, 0.7
        closed = shifted_functional_radius2(s, alpha, R * R)

        def f(rho, theta):
            return 1.0 - 1.0 / (1.0 + s * rho ** -alpha)

        res = integrate_annulus(f, [((0.0, 0.0), R)], QuadratureSpec(),
                                truncation_radius=1e4)
        # alpha=2.8 leaves a slow radius^-0.8 tail: the truncated value sits
        # below the closed form by an amount covered by the reported estimate
        assert res.value < closed
        assert abs(closed - res.value) <= max(2.0 * res.error_estimate, 1e-6)

    def test_zero_strength_gives_zero(self):
        assert shifted_functional_radius2(0.0, 2.8, 1.0) == 0.0


class TestPowerTailNodes:
    @pytest.mark.parametrize("alpha", [2.5, 2.8, 4.0])
    def test_exact_for_matched_power_law(self, alpha):
        L = 1.7
        x, w = power_tail_nodes(L, alpha, 24)
        got = float(np.sum(w * x ** (1.0 - alpha)))
        assert got == pytest.approx(L ** (2.0 - alpha) / (alpha - 2.0),
                                    rel=1e-12)

    def test_smooth_perturbation_converges(self):
        alpha, L = 2.8, 2.0

        def f(x):
            return x ** (1.0 - alpha) / (1.0 + x ** -2)

        ref, _ = integrate.quad(f, L, np.inf)
        x, w = power_tail_nodes(L, alpha, 40)
        assert float(np.sum(w * f(x))) == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# association probability
# ---------------------------------------------------------------------------

class TestAssociation:
    def test_probabilities_sum_to_one(self):
        p_s, p_m = association_probability(params_with())
        assert 0.0 < p_s < 1.0
        assert p_s + p_m == pytest.approx(1.0, abs=1e-14)

    def test_no_picos_means_macro_only(self):
        p_s, p_m = association_probability(params_with(lambda_s=0.0))
        assert (p_s, p_m) == (0.0, 1.0)

    @settings(max_examples=20, deadline=None)
    @given(
        lam_s=st.floats(0.25, 16.0),
        bias_db=st.floats(-10.0, 40.0),
        alpha=st.floats(2.5, 4.5),
    )
    # a draw that the shared default tolerance (rel_tol 1e-5) missed
    @example(lam_s=9.71875, bias_db=9.71875, alpha=2.5)
    def test_equal_exponents_closed_form(self, lam_s, bias_db, alpha):
        p = params_with(lambda_s=lam_s, B_s=10 ** (bias_db / 10.0),
                        alpha_m=alpha, alpha_s=alpha)
        p_s, _ = association_probability(p)
        expected = lam_s / (lam_s + p.lambda_m * delta_m(p) ** -2)
        assert p_s == pytest.approx(expected, rel=1e-8)

    def test_bias_increases_pico_share(self):
        shares = [association_probability(params_with(B_s=10 ** (b / 10)))[0]
                  for b in (0.0, 10.0, 22.0, 40.0)]
        assert all(a < b for a, b in zip(shares, shares[1:]))


# ---------------------------------------------------------------------------
# joint distance density
# ---------------------------------------------------------------------------

class TestJointPdf:
    def test_engulfing_configuration_frozen_value(self):
        # lambda_m = lambda_s = 1, backhaul disc swallows the association
        # disc: density reduces to the product of two Rayleigh-type factors
        p = params_with(lambda_s=1.0)
        assert 1.0 >= 0.3 + float(inner_disc_radius(0.3, p))
        assert joint_pdf(0.3, 1.0, p) == pytest.approx(
            0.38575429103694804, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        p = params_with()
        rs = np.array([0.05, 0.3, 0.3, 0.9])
        r = np.array([0.02, 0.25, 1.4, 0.6])
        vec = joint_pdf(rs, r, p)
        for i in range(rs.size):
            assert vec[i] == joint_pdf(float(rs[i]), float(r[i]), p)

    def test_zero_on_swallowed_backhaul_disc(self):
        # delta_m < 1 makes the association disc huge; a backhaul circle
        # strictly inside it is an impossible configuration
        p = params_with(B_s=10 ** -1.0)
        r_s = 0.4
        R_i = float(inner_disc_radius(r_s, p))
        assert R_i > r_s
        assert joint_pdf(r_s, 0.5 * (R_i - r_s), p) == 0.0

    def test_rejects_negative_distances(self):
        p = params_with()
        with pytest.raises(ValueError):
            joint_pdf(-0.1, 1.0, p)
        with pytest.raises(ValueError):
            joint_pdf(np.array([0.1, 0.2]), np.array([0.3, -0.4]), p)

    @pytest.mark.parametrize("r_s", [0.08, 0.3, 0.8])
    def test_radial_marginal_closed_form(self, r_s):
        # integrating the backhaul distance out must leave
        #   2 pi l_s r_s exp(-pi l_s r_s^2) exp(-pi l_m R_i^2)
        # exactly (the union-area derivative telescopes)
        p = params_with()
        R_i = float(inner_disc_radius(r_s, p))
        val, _ = integrate.quad(
            lambda r: joint_pdf(r_s, r, p), 0.0, 12.0,
            points=[abs(r_s - R_i), r_s + R_i], limit=200,
            epsabs=1e-14, epsrel=1e-12)
        expected = (2 * np.pi * p.lambda_s * r_s
                    * np.exp(-np.pi * p.lambda_s * r_s ** 2)
                    * np.exp(-np.pi * p.lambda_m * R_i ** 2))
        assert val == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("bs_db", [22.0, 40.0, -10.0])
    def test_total_mass_equals_association_probability(self, bs_db):
        p = params_with(B_s=10 ** (bs_db / 10.0))
        g = outer_grid(p, 8)
        mass = float((joint_pdf(g["rs"], g["r"], p) * g["w"]).sum())
        p_s, _ = association_probability(p)
        assert mass == pytest.approx(p_s, rel=1e-3)


class TestTopologyProbabilities:
    def test_probabilities_are_a_distribution(self):
        probs = topology_probabilities(params_with())
        assert all(0.0 <= q <= 1.0 for q in probs)
        assert sum(probs) == pytest.approx(1.0, abs=2e-3)

    def test_reference_operating_point(self):
        p_a, p_b, p_c = topology_probabilities(params_with())
        assert p_a == pytest.approx(0.038, abs=0.02)
        assert p_b == pytest.approx(0.284, abs=0.02)
        assert p_c == pytest.approx(0.679, abs=0.02)

    def test_engulfing_dominates_at_strong_bias(self):
        _, _, p_c_weak = topology_probabilities(params_with(B_s=10.0))
        _, _, p_c_strong = topology_probabilities(params_with(B_s=1e5))
        assert p_c_strong > p_c_weak
