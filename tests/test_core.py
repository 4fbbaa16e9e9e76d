import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnet.analytic.distances import inner_disc_radius, joint_pdf
from hetnet.core import (
    DuplexMode,
    NetworkParams,
    Thresholds,
    chord_angle,
    delta_m,
    delta_s,
    lens_area,
)

# Frozen oracle values, computed independently with 40-digit arithmetic
# (notes kept outside the package).
DELTA_M_B22 = 1.0198559548658109   # P_m=150, P_s=1, B_s=10^2.2, alpha_m=2.8
DELTA_M_B34 = 2.7359632819095006   # same but B_s=10^3.4
DELTA_S_B22 = 1.0138581233944753   # P_m=150, P_s=1, B_s=10^2.2, alpha_s=4
LENS_1_1_1 = 1.2283696986087568    # d=1, R1=R2=1: 2*pi/3 - sqrt(3)/2


def params_with(**kw) -> NetworkParams:
    return NetworkParams(**kw)


def union_area(d, R1, R2):
    """U of analytic.distances.joint_pdf: the area of the union of two
    discs with center distance d."""
    return np.pi * R1 ** 2 + np.pi * R2 ** 2 - lens_area(d, R1, R2)


def arc_outside(d, r, R):
    """L / r of joint_pdf: the angle of the circle of radius r, centered a
    distance d from the origin, that lies outside B(origin, R)."""
    return 2.0 * (np.pi - chord_angle(d, r, R))


class TestNetworkParams:
    def test_defaults_valid(self):
        p = NetworkParams()
        assert p.picos_per_macro == 4.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lambda_m", 0.0),
            ("lambda_s", -1.0),
            ("P_m", -5.0),
            ("alpha_m", 2.0),
            ("alpha_s", 1.5),
            ("eta", 1.5),
            ("kappa", 1.0),
            ("beta", -0.1),
            ("B_s", 0.0),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            params_with(**{field: value})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            params_with(P_m=float("inf"))

    def test_immutable(self):
        p = NetworkParams()
        with pytest.raises(Exception):
            p.lambda_m = 2.0  # type: ignore[misc]


class TestThresholds:
    def test_valid(self):
        th = Thresholds(T_s=0.1, T_b=0.1, T_m=0.1)
        assert th.T_s == 0.1

    @pytest.mark.parametrize("bad", [dict(T_s=0.0, T_b=1, T_m=1),
                                     dict(T_s=1, T_b=-1, T_m=1),
                                     dict(T_s=1, T_b=1, T_m=0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            Thresholds(**bad)


def test_duplex_mode_variants():
    assert set(DuplexMode) == {DuplexMode.IBFD, DuplexMode.FDD}


class TestDeltaScales:
    def test_symmetric_powers_and_biases(self):
        p = params_with(P_m=1.0, P_s=1.0, B_m=1.0, B_s=1.0)
        assert delta_m(p) == 1.0
        assert delta_s(p) == 1.0

    def test_against_high_precision_oracle(self):
        p = params_with(P_m=150, P_s=1, B_m=1, B_s=10 ** 2.2, alpha_m=2.8)
        assert delta_m(p) == pytest.approx(DELTA_M_B22, abs=1e-12)
        p = params_with(P_m=150, P_s=1, B_m=1, B_s=10 ** 3.4, alpha_m=2.8)
        assert delta_m(p) == pytest.approx(DELTA_M_B34, abs=1e-12)
        p = params_with(P_m=150, P_s=1, B_m=1, B_s=10 ** 2.2, alpha_s=4.0)
        assert delta_s(p) == pytest.approx(DELTA_S_B22, abs=1e-12)

    @given(
        Bs=st.floats(0.01, 1e4),
        Pm=st.floats(0.1, 1e3),
        am=st.floats(2.1, 6.0),
        as_=st.floats(2.1, 6.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_delta_s_eq_delta_m_pow(self, Bs, Pm, am, as_):
        p = params_with(B_s=Bs, P_m=Pm, alpha_m=am, alpha_s=as_)
        assert delta_s(p) == pytest.approx(delta_m(p) ** (am / as_), rel=1e-12)

    @given(c=st.floats(0.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_bias_scaling(self, c):
        p = NetworkParams()
        scaled = params_with(B_s=p.B_s * c)
        assert delta_m(scaled) == pytest.approx(
            delta_m(p) * c ** (1.0 / p.alpha_m), rel=1e-12
        )


class TestLensArea:
    def test_disjoint(self):
        assert lens_area(3.0, 1.0, 1.0) == 0.0

    def test_contained(self):
        assert lens_area(0.0, 1.0, 2.0) == pytest.approx(math.pi, abs=1e-15)

    def test_equal_circles_unit_distance(self):
        assert lens_area(1.0, 1.0, 1.0) == pytest.approx(LENS_1_1_1, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d, r1, r2 = rng.uniform(0.01, 5.0, size=3)
            assert lens_area(d, r1, r2) == lens_area(d, r2, r1)

    def test_monotone_nonincreasing_in_d(self):
        d = np.arange(0.0, 4.0, 1e-3)
        vals = lens_area(d, 1.3, 0.9)
        assert np.all(np.diff(vals) <= 1e-9)

    def test_continuity_at_tangency(self):
        # inner tangency d = |R1-R2| (full containment of the radius-1 disc)
        # and outer tangency d = R1+R2
        for d0, expect in [(0.5, math.pi), (2.5, 0.0)]:
            eps = 1e-9
            lo = lens_area(d0 - eps, 1.5, 1.0)
            hi = lens_area(d0 + eps, 1.5, 1.0)
            assert lo == pytest.approx(expect, abs=1e-4)
            assert hi == pytest.approx(expect, abs=1e-4)

    def test_tangent_and_nested_discs_exact(self):
        assert lens_area(2.5, 1.5, 1.0) == 0.0          # outer tangency
        assert lens_area(0.5, 1.5, 1.0) == math.pi      # inner tangency
        assert lens_area(0.2, 1.0, 2.0) == math.pi      # nested
        assert lens_area(0.0, 1.0, 1.0) == math.pi      # coincident

    def test_thin_lens_against_mpmath(self):
        # two unit discs at d = 2 - 1e-7 overlap in a sliver of area 4e-11;
        # the segment form keeps it to 3.4e-9 relative, where a chord
        # projection and a square root subtracted from an arccos lost all
        # but about 2 digits (4.0e-3)
        mp = pytest.importorskip("mpmath")
        d = 2.0 - 1e-7
        with mp.workdps(40):
            half = mp.mpf(d) / 2
            exact = float(2 * mp.acos(half)
                          - 2 * half * mp.sqrt(1 - half ** 2))
        assert lens_area(d, 1.0, 1.0) == pytest.approx(exact, rel=1e-8,
                                                       abs=0.0)

    @given(
        d=st.floats(0.0, 6.0),
        r1=st.floats(0.05, 3.0),
        r2=st.floats(0.05, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds(self, d, r1, r2):
        a = lens_area(d, r1, r2)
        assert 0.0 <= a <= math.pi * min(r1, r2) ** 2 + 1e-12

    def test_vectorized_matches_scalar(self):
        d = np.array([0.0, 0.7, 1.4, 5.0])
        vec = lens_area(d, 1.0, 1.2)
        scal = [lens_area(float(x), 1.0, 1.2) for x in d]
        np.testing.assert_allclose(vec, scal, rtol=0, atol=0)


class TestDiscGeometry:
    def test_union_area_limits(self):
        # disjoint: sum of areas; concentric: larger disc
        assert union_area(5.0, 1.0, 1.0) == pytest.approx(2 * math.pi)
        assert union_area(0.0, 1.0, 2.0) == pytest.approx(4 * math.pi)

    def test_arc_outside_limits(self):
        # circle fully inside the disc -> no exterior arc
        assert arc_outside(0.2, 0.3, 1.0) == pytest.approx(0.0)
        # circle fully outside -> whole circumference
        assert arc_outside(3.0, 0.5, 1.0) == pytest.approx(2 * math.pi)
        # circle engulfing the disc -> whole circumference
        assert arc_outside(0.5, 4.0, 1.0) == pytest.approx(2 * math.pi)

    def test_chord_angle_at_tangency_and_zero_distance(self):
        # external tangency (d = r + R) and a circle engulfing the disc at
        # tangency (d = r - R): no arc inside
        assert chord_angle(1.5, 0.5, 1.0) == 0.0
        assert chord_angle(1.0, 2.0, 1.0) == 0.0
        # internal tangency (d = R - r): the whole circle inside
        assert chord_angle(0.5, 0.5, 1.0) == math.pi
        # concentric: wholly inside or wholly outside
        assert chord_angle(0.0, 0.5, 1.0) == math.pi
        assert chord_angle(0.0, 2.0, 1.0) == 0.0

    def test_zero_distance_raises_no_warning(self):
        # d * r = 0 under a numerator above 4 overflows the quotient of
        # chord_angle, and a zero radius divides by zero inside lens_area;
        # warnings from hetnet.core are errors under the test configuration
        assert arc_outside(0.0, 20.0, 1.0) == 2 * math.pi
        assert chord_angle(0.0, 20.0, 1.0) == 0.0
        assert chord_angle(0.0, 0.5, 20.0) == math.pi
        assert lens_area(0.0, 0.0, 3.0) == 0.0
        assert lens_area(5.0, 0.0, 3.0) == 0.0

    def test_chord_angle_ends_on_the_disc_boundary(self):
        # the arc inside B(0, R) ends where the law of cosines gives
        # distance R from the origin; outside the disc the circle keeps
        # 2 (pi - chord angle) of its circumference
        rng = np.random.default_rng(3)
        d = rng.uniform(0.1, 3.0, 200)
        R = rng.uniform(0.1, 2.0, 200)
        r = rng.uniform(0.05, 3.0, 200)
        phi = chord_angle(d, r, R)
        cross = (np.abs(r - R) < d) & (d < r + R)
        assert 20 < cross.sum() < 200
        np.testing.assert_allclose(
            np.sqrt(d * d + r * r - 2.0 * d * r * np.cos(phi))[cross],
            R[cross], rtol=1e-9)
        assert np.all(phi[~cross] % math.pi == 0.0)
        # joint_pdf's L / r against the share of 4096 points on each
        # circle that lie outside the disc, to within two points
        theta = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
        dist2 = (d * d + r * r)[:, None] - np.outer(2.0 * d * r, np.cos(theta))
        counted = 2.0 * np.pi * np.mean(dist2 > (R * R)[:, None], axis=1)
        np.testing.assert_allclose(counted, arc_outside(d, r, R), rtol=0,
                                   atol=2.0 * 2.0 * np.pi / 4096)

    def test_arc_is_union_area_derivative(self):
        # d(union area)/dr == r * arc angle, via central differences
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = rng.uniform(0.1, 3.0)
            R = rng.uniform(0.1, 2.0)
            r = rng.uniform(0.05, 3.0)
            if abs(d - abs(r - R)) < 1e-3 or abs(d - (r + R)) < 1e-3:
                continue  # skip tangency kinks
            h = 1e-6 * max(1.0, r)
            num = (union_area(d, R, r + h) - union_area(d, R, r - h)) / (2 * h)
            assert num == pytest.approx(
                r * arc_outside(d, r, R), rel=2e-4, abs=1e-6
            )

    def test_joint_pdf_uses_this_union_area_and_arc(self):
        # union_area and arc_outside are joint_pdf's U and L / r, so the
        # checks above test the density's own void area and its r-slope
        rng = np.random.default_rng(5)
        p = NetworkParams()
        r_s, r = rng.uniform(0.05, 2.0, 200), rng.uniform(0.05, 3.0, 200)
        R_i = inner_disc_radius(r_s, p)
        expected = (2.0 * np.pi * p.lambda_s * r_s
                    * np.exp(-np.pi * p.lambda_s * r_s ** 2) * p.lambda_m
                    * (r * arc_outside(r_s, r, R_i))
                    * np.exp(-p.lambda_m * union_area(r_s, R_i, r)))
        assert np.array_equal(joint_pdf(r_s, r, p), expected)
