"""Tests for the joint access+backhaul coverage solver (small-cell tier)."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hetnet.analytic import smallcell
from hetnet.analytic.distances import inner_disc_radius
from hetnet.analytic.smallcell import coverage_smallcell_result, evaluate_joint
from hetnet.core import DuplexMode, NetworkParams, chord_angle
from hetnet.experiments import figure_preset
from hetnet.numerics import (IntegralResult, NonConvergenceError,
                             _leggauss, gauss_panel_nodes)
from oracles import (
    FAMILIES,
    chord_form,
    dense_evaluate_joint,
    dense_geometry,
    dense_mixed_term,
    dense_sharpness,
    j_components,
    release_dense_geometry,
)


@pytest.fixture(autouse=True, scope="class")
def _release_dense_geometry():
    # a dense level-10 geometry holds about 412 MB: no class leaves one
    # behind for the next
    yield
    release_dense_geometry()


def params_with(**kw) -> NetworkParams:
    base = dict(lambda_m=1.0, lambda_s=4.0, P_m=150.0, P_s=1.0,
                B_m=1.0, B_s=10 ** 2.2, alpha_m=2.8, alpha_s=4.0)
    base.update(kw)
    return NetworkParams(**base)


def joint_value(p: NetworkParams, T_s: float, T_b: float,
                mode: DuplexMode = DuplexMode.IBFD,
                bearing: str = "circle") -> float:
    """Converged joint coverage value."""
    res, = coverage_smallcell_result(p, [T_s], [T_b], mode, bearing=bearing)
    assert res.converged
    return res.value


# ---------------------------------------------------------------------------
# independent adaptive-quadrature oracle for the integrand components
# ---------------------------------------------------------------------------
# The module integrates the mixed interference terms in pico-centred polar
# coordinates on fixed panel grids; this oracle recomputes every component
# with scipy's adaptive quad in *user-centred* polar coordinates (S-centred
# only where that is the natural frame), so grids, coordinates, and the
# decomposition into closed-form-plus-correction are all different.

def _g(s, x, alpha):
    return 1.0 / (1.0 + s * x ** (-alpha))


def oracle_components(p: NetworkParams, T_s, T_b, r_s, r) -> dict:
    a_s, a_m = p.alpha_s, p.alpha_m
    R_i = float(inner_disc_radius(np.array([r_s]), p)[0])
    s1 = T_s * r_s ** a_s
    s2 = (T_b * p.P_s / p.P_m) * r ** a_m
    s1p = (T_s * p.P_m / p.P_s) * r_s ** a_s
    s2p = T_b * r ** a_m

    def dist_to_s(rho, phi):
        return np.sqrt(np.maximum(
            rho ** 2 + r_s ** 2 - 2.0 * rho * r_s * np.cos(phi), 1e-300))

    # pico field outside B(o, r_s), joint two-link integrand
    def f_pico(rho):
        def h(phi):
            return 1.0 - _g(s1, rho, a_s) * _g(s2, dist_to_s(rho, phi), a_s)
        return 2.0 * rho * integrate.fixed_quad(h, 0.0, math.pi, n=80)[0]

    J_s = sum(integrate.quad(f_pico, a, b, limit=200)[0]
              for a, b in [(r_s, r_s + 2 * r), (r_s + 2 * r, 30.0),
                           (30.0, np.inf)])

    # macro field outside B(o, R_i) | B(S, r), joint two-link integrand
    def f_macro(rho):
        cmin = np.clip((rho ** 2 + r_s ** 2 - r ** 2)
                       / (2.0 * rho * r_s), -1.0, 1.0)
        phi_min = math.acos(cmin)
        if phi_min >= math.pi:
            return 0.0

        def h(phi):
            return 1.0 - _g(s1p, rho, a_m) * _g(s2p, dist_to_s(rho, phi), a_m)
        return 2.0 * rho * integrate.fixed_quad(h, phi_min, math.pi, n=80)[0]

    pts = sorted({b for b in (abs(r - r_s), r + r_s, R_i + r_s + r)
                  if b > R_i}) + [50.0, 400.0]
    segs = [R_i] + pts + [np.inf]
    J_m = sum(integrate.quad(f_macro, a, b, limit=400)[0]
              for a, b in zip(segs[:-1], segs[1:]))

    # FDD single-link variants over the same exclusion regions
    def f_pico_single(rho):
        return 2.0 * math.pi * rho * (1.0 - _g(s1, rho, a_s))

    J_s_fdd = (integrate.quad(f_pico_single, r_s, 40.0, limit=200)[0]
               + integrate.quad(f_pico_single, 40.0, np.inf)[0])

    def f_macro_single(ell):  # S-centred radial variable ell = |z - S|
        psi = math.acos(np.clip((ell ** 2 + r_s ** 2 - R_i ** 2)
                                / (2.0 * ell * r_s), -1.0, 1.0))
        return 2.0 * ell * (math.pi - psi) * (1.0 - _g(s2p, ell, a_m))

    segs2 = [r] + [b for b in (abs(R_i - r_s), R_i + r_s) if b > r] \
        + [60.0, 500.0, np.inf]
    J_m_fdd = sum(integrate.quad(f_macro_single, a, b, limit=400)[0]
                  for a, b in zip(segs2[:-1], segs2[1:]))

    # lens-shell corrections
    def f_k1(rho):
        w = math.acos(np.clip((rho ** 2 + r_s ** 2 - r ** 2)
                              / (2.0 * rho * r_s), -1.0, 1.0))
        return 2.0 * rho * w * (1.0 - _g(s1p, rho, a_m))

    K1 = (integrate.quad(f_k1, R_i, r_s + r, limit=200)[0]
          if R_i < r_s + r else 0.0)

    def f_k2(ell):
        psi = math.acos(np.clip((ell ** 2 + r_s ** 2 - R_i ** 2)
                                / (2.0 * ell * r_s), -1.0, 1.0))
        return 2.0 * ell * psi * (1.0 - _g(s2p, ell, a_m))

    K2 = (integrate.quad(f_k2, r, r_s + R_i, limit=200)[0]
          if r < r_s + R_i else 0.0)

    # serving-macro access factor, both bearing conventions
    def g_serving(t):
        rm = np.sqrt(r_s ** 2 + r ** 2 + 2.0 * r_s * r * np.cos(t))
        return _g(s1p, np.maximum(rm, 1e-150), a_m)

    th_allow = math.acos(np.clip((R_i ** 2 - r_s ** 2 - r ** 2)
                                 / (2.0 * r_s * r), -1.0, 1.0))
    gbar_circle = integrate.quad(g_serving, 0.0, math.pi, limit=200)[0] \
        / math.pi
    gbar_arc = (integrate.quad(g_serving, 0.0, th_allow,
                               limit=200)[0] / th_allow
                if th_allow > 0 else float(g_serving(0.0)))
    return dict(J_s=J_s, J_m=J_m, J_s_fdd=J_s_fdd, J_m_fdd=J_m_fdd,
                K1=K1, K2=K2, gbar_circle=gbar_circle, gbar_arc=gbar_arc,
                theta_allow=th_allow)


# one point per geometric regime (backhaul disc engulfed/disjoint, lens,
# engulfing), plus one off-default parameter set
COMPONENT_SCENARIOS = [
    ("disjoint", params_with(), 0.1, 0.1, 0.3, 0.08),
    ("lens", params_with(), 0.1, 0.1, 0.3, 0.30),
    ("engulfing", params_with(), 0.1, 0.1, 0.3, 0.60),
    ("odd-params", params_with(alpha_m=3.4, alpha_s=3.0, P_m=40.0,
                               B_s=10.0, lambda_s=2.5),
     0.7, 0.25, 0.5, 0.45),
]


class TestComponentsAgainstAdaptiveQuadrature:
    # quad flags spurious convergence trouble on tail pieces whose true
    # value is below its roundoff floor; the accuracy checks below are the
    # real gate
    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize(
        "tag,p,T_s,T_b,r_s,r", COMPONENT_SCENARIOS,
        ids=[s[0] for s in COMPONENT_SCENARIOS])
    def test_every_component_matches_oracle(self, tag, p, T_s, T_b, r_s, r):
        ora = oracle_components(p, T_s, T_b, r_s, r)
        got = j_components(p, T_s, T_b, r_s, r)
        # worst observed gap is the K1 shell correction at ~1.4e-4 relative
        # (module uses fixed panel orders there); everything else is 1e-5
        # or better.
        for key, val in ora.items():
            assert got[key] == pytest.approx(val, rel=5e-4, abs=2e-6), key

    @pytest.mark.parametrize(
        "tag,p,T_s,T_b,r_s,r", COMPONENT_SCENARIOS,
        ids=[s[0] for s in COMPONENT_SCENARIOS])
    def test_single_link_functionals_bound_joint(self, tag, p, T_s, T_b,
                                                 r_s, r):
        # dropping the second link's factor can only shrink the integrand
        got = j_components(p, T_s, T_b, r_s, r)
        assert got["J_s_fdd"] <= got["J_s"] + 1e-12
        assert got["J_m_fdd"] <= got["J_m"] + 1e-12

    def test_arc_average_dominates_circle_average(self):
        # the arc convention keeps only bearings with r_m >= R_i, and the
        # interference factor increases with r_m
        p = params_with()
        got = j_components(p, 0.1, 0.1, 0.3, 0.30)
        assert got["gbar_arc"] > got["gbar_circle"]
        assert 0.0 < got["theta_allow"] < math.pi
        # outside the lens regime the conventions coincide
        far = j_components(p, 0.1, 0.1, 0.3, 0.60)
        assert far["gbar_arc"] == pytest.approx(far["gbar_circle"],
                                                rel=1e-12)
        assert far["theta_allow"] == pytest.approx(math.pi)


# ---------------------------------------------------------------------------
# the outer (r_s, r) integral
# ---------------------------------------------------------------------------

# values frozen from the converged panel solver (two-level error estimates
# all < 2e-5); thresholds are linear SIR values
FROZEN_JOINT = [
    # (lambda_s, T_s, T_b, expected)
    (1.0, 0.1, 0.1, 0.10153740),
    (4.0, 0.1, 0.1, 0.27131390),
    (10.0, 0.1, 0.1, 0.36066970),
    (20.0, 0.1, 0.1, 0.33412930),
    (4.0, 3.35, 0.1, 0.05794311),
    (4.0, 5.10, 0.1, 0.04714265),
]


class TestJointCoverage:
    @pytest.mark.parametrize("lam_s,T_s,T_b,expected", FROZEN_JOINT)
    def test_frozen_reference_values(self, lam_s, T_s, T_b, expected):
        p = params_with(lambda_s=lam_s)
        assert joint_value(p, T_s, T_b) == pytest.approx(
            expected, abs=2e-4)

    def test_result_carries_error_estimate(self):
        res, = coverage_smallcell_result(params_with(), [0.1], [0.1])
        assert res.converged
        assert 0.0 <= res.value <= 1.0
        assert res.error_estimate < 1e-4

    def test_monotone_in_access_threshold(self):
        p = params_with()
        vals = [joint_value(p, T, 0.1) for T in (0.05, 0.1, 0.5, 2.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_backhaul_threshold(self):
        p = params_with()
        vals = [joint_value(p, 0.1, T) for T in (0.05, 0.1, 0.5, 2.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_band_split_dominates_shared_band(self):
        # FDD removes cross-tier coupling, self-interference, and the
        # serving-macro factor: pointwise the integrand can only grow
        p = params_with()
        for T_s, T_b in ((0.1, 0.1), (1.0, 0.3), (5.0, 2.0)):
            ibfd = joint_value(p, T_s, T_b, DuplexMode.IBFD)
            fdd = joint_value(p, T_s, T_b, DuplexMode.FDD)
            assert ibfd < fdd

    def test_fdd_reference_value(self):
        assert joint_value(params_with(), 0.1, 0.1,
                           DuplexMode.FDD) == pytest.approx(
            0.66742003, abs=3e-4)

    @given(st.floats(min_value=-2.0, max_value=1.5),
           st.floats(min_value=-2.0, max_value=1.5))
    @settings(max_examples=12, deadline=None)
    def test_probability_bounds_and_mode_order(self, log_ts, log_tb):
        p = params_with()
        T_s, T_b = 10.0 ** log_ts, 10.0 ** log_tb
        ibfd, = evaluate_joint(p, [T_s], [T_b], DuplexMode.IBFD)
        fdd, = evaluate_joint(p, [T_s], [T_b], DuplexMode.FDD)
        assert 0.0 <= ibfd <= fdd <= 1.0

    def test_extreme_threshold_starves_coverage(self):
        p = params_with()
        assert evaluate_joint(p, [1e9], [0.1], DuplexMode.IBFD)[0] < 1e-6
        assert evaluate_joint(p, [0.1], [1e9], DuplexMode.IBFD)[0] < 1e-6

    def test_infinite_threshold_gives_zero(self):
        assert evaluate_joint(params_with(), [math.inf], [0.1],
                              DuplexMode.IBFD)[0] == 0.0

    def test_rejects_nonpositive_thresholds_and_bad_bearing(self):
        p = params_with()
        with pytest.raises(ValueError, match="strictly positive"):
            evaluate_joint(p, [0.0], [0.1], DuplexMode.IBFD)
        with pytest.raises(ValueError, match="strictly positive"):
            evaluate_joint(p, [0.1], [-1.0], DuplexMode.IBFD)
        with pytest.raises(ValueError, match="bearing"):
            evaluate_joint(p, [0.1], [0.1], DuplexMode.IBFD, bearing="chord")


class TestLevelLadder:
    # fig9's T_s = 7.1 IBFD point escalates from (6,3) to (10,6)
    @pytest.mark.parametrize("T_s, levels", [(0.1, [3, 6]),
                                             (7.1, [3, 6, 10])])
    def test_each_level_is_evaluated_once(self, monkeypatch, T_s, levels):
        calls = []

        def counted(params, T_s, T_b, mode, level=6, bearing="circle"):
            calls.append(level)
            return evaluate_joint(params, T_s, T_b, mode, level, bearing)

        monkeypatch.setattr(smallcell, "evaluate_joint", counted)
        res, = coverage_smallcell_result(params_with(), [T_s], [0.1])
        assert res.converged and calls == levels
        fine, coarse = (evaluate_joint(params_with(), [T_s], [0.1],
                                       DuplexMode.IBFD, level)[0]
                        for level in (levels[-1], levels[-2]))
        assert res.value == fine
        assert res.error_estimate == abs(fine - coarse) + smallcell._SKIP_MASS

    @pytest.mark.parametrize("mode, level10", [(DuplexMode.IBFD, [(10, 1)]),
                                              (DuplexMode.FDD, [])])
    def test_array_call_equals_scalar_calls(self, monkeypatch, mode,
                                            level10):
        # one evaluate_joint call per level for the whole array, the one at
        # level 10 only at the pair (6,3) leaves unconverged (T_s = 7.1
        # under IBFD); an infinite T_s gives 0 and a repeated pair its
        # first's result
        T_s = [0.1, 7.1, math.inf, 1.1, 0.1]
        T_b = [0.1, 0.1, 0.1, 0.5, 0.1]
        calls = []

        def counted(params, T_s, T_b, mode, level=6, bearing="circle"):
            calls.append((level, np.size(T_s)))
            return evaluate_joint(params, T_s, T_b, mode, level, bearing)

        monkeypatch.setattr(smallcell, "evaluate_joint", counted)
        p = params_with()
        got = coverage_smallcell_result(p, T_s, T_b, mode)
        assert calls == [(3, 5), (6, 5)] + level10
        assert type(got) is list and len(got) == len(T_s)
        for res, ts, tb in zip(got, T_s, T_b):
            one, = coverage_smallcell_result(p, [ts], [tb], mode)
            assert type(one) is IntegralResult and one.converged
            assert res == one
        assert got[2].value == 0.0 and got[0] == got[4]
        # an empty pico tier: every pair's joint event is null
        assert coverage_smallcell_result(params_with(lambda_s=0.0), T_s,
                                         [0.1] * len(T_s), mode) \
            == [IntegralResult(0.0, 0.0, True)] * len(T_s)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "1 - 1/(1 + s x) cancels in the radial tails and moves the value "
        "by 8.95e-7 against an error estimate of 8.4e-9; the fix must "
        "re-record bench/reference/fig9.csv (docs/DECISIONS.md, entry 6)"))
    def test_error_estimate_covers_the_rayleigh_complement(self,
                                                           monkeypatch):
        p = params_with()
        res, = coverage_smallcell_result(p, [7.1], [0.1], DuplexMode.IBFD)
        monkeypatch.setattr(smallcell, "_one_minus_g",
                            lambda s, xn, out=None: s * xn / (1.0 + s * xn))
        exact, = coverage_smallcell_result(p, [7.1], [0.1], DuplexMode.IBFD)
        assert abs(exact.value - res.value) <= res.error_estimate


    def test_fig9_escalates_its_high_access_thresholds(self, monkeypatch):
        # the ladder escalates on the level gap alone, so the skip budget
        # in the error estimate moves no fig9 cell across the tolerance
        spec = figure_preset("fig9")
        levels = []

        def counted(params, T_s, T_b, mode, level=6, bearing="circle"):
            levels.append(level)
            return evaluate_joint(params, T_s, T_b, mode, level, bearing)

        monkeypatch.setattr(smallcell, "evaluate_joint", counted)
        escalated = []
        for mode in DuplexMode:
            for T_s in spec.grid:
                levels.clear()
                res, = coverage_smallcell_result(
                    spec.base_params, [T_s], [spec.base_thresholds.T_b],
                    mode)
                assert res.converged
                if 10 in levels:
                    escalated.append((mode, T_s))
        assert escalated == [(DuplexMode.IBFD, T) for T in spec.grid
                             if T >= 5.1]
        assert len(escalated) == 20


class TestSkipBudget:
    """A node is skipped for a threshold pair once its exponent lower bound
    reaches log(f2w N / _SKIP_MASS), N the node count: its contribution
    f2w Gbar e^{-E} is then at most _SKIP_MASS / N, so one evaluation
    drops at most _SKIP_MASS."""

    # the defaults (with fig9's largest T_s) and the preset extremes of the
    # pico density and bias
    POINTS = {
        "defaults": ({}, [(0.1, 0.1), (9.85, 0.1)]),
        "lambda_s = 40 lambda_m": (dict(lambda_s=40.0), [(0.1, 0.1)]),
        "B_s = -10 dB": (dict(B_s=10 ** -1.0), [(0.1, 0.1)]),
        "B_s = 60 dB": (dict(B_s=10 ** 6.0), [(0.1, 0.1)]),
    }

    @pytest.mark.parametrize("level", [3, 6, 10])
    @pytest.mark.parametrize("point", list(POINTS))
    def test_skipped_mass_within_budget(self, point, level):
        kw, pairs = self.POINTS[point]
        p = params_with(**kw)
        cases = [(p, T_s, T_b, mode, level, bearing) for mode in DuplexMode
                 for bearing in ("circle", "arc") for T_s, T_b in pairs]
        # the dense oracle first, dropped before the package geometry is
        # built: the two are never held at once
        smallcell._HELD.clear()
        dense = [dense_evaluate_joint(*args, skip_mass=0.0)
                 for args in cases]
        release_dense_geometry()
        geom = smallcell._geometry(p, level)
        for args, (every, n_every) in zip(cases, dense):
            _, T_s, T_b, mode, _, bearing = args
            n_live = smallcell._joint_batch(
                p, np.array([T_s]), np.array([T_b]), mode, geom,
                bearing)[1][0]
            assert n_every == geom["f2w"].size
            assert 0 < n_live < n_every   # the budget skips nodes
            assert abs(evaluate_joint(p, [T_s], [T_b], mode, level,
                                      bearing)[0] - every) \
                <= smallcell._SKIP_MASS

    def test_coverage_error_holds_the_budget(self):
        p = params_with()
        for T_s, T_b, mode in ((0.1, 0.1, DuplexMode.IBFD),
                               (7.1, 0.1, DuplexMode.IBFD),   # escalates
                               (0.1, 0.1, DuplexMode.FDD),
                               (math.inf, 0.1, DuplexMode.IBFD)):
            res, = coverage_smallcell_result(p, [T_s], [T_b], mode)
            assert res.error_estimate >= smallcell._SKIP_MASS


class TestBearingConventions:
    def test_arc_dominates_circle(self):
        p = params_with()
        for T_s in (0.1, 1.0):
            circle = joint_value(p, T_s, 0.1, bearing="circle")
            arc = joint_value(p, T_s, 0.1, bearing="arc")
            assert arc > circle
            # the conventions only differ through the lens-regime mass
            assert arc - circle < 0.01

    def test_arc_reference_value(self):
        assert joint_value(params_with(), 0.1, 0.1,
                           bearing="arc") == pytest.approx(
            0.27447356, abs=2e-4)

    def test_fdd_is_bearing_independent(self):
        p = params_with()
        a, = evaluate_joint(p, [0.2], [0.3], DuplexMode.FDD, bearing="arc")
        c, = evaluate_joint(p, [0.2], [0.3], DuplexMode.FDD,
                            bearing="circle")
        assert a == c


class TestSelfInterference:
    def test_coverage_decreases_with_cancellation_residue(self):
        vals = [joint_value(params_with(beta=b), 0.1, 0.1)
                for b in (0.0, 1.0, 5.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_conventions_coincide_at_zero_residue(self):
        a = joint_value(params_with(
            beta=0.0, self_interference_convention="ps"), 0.1, 0.1)
        b = joint_value(params_with(
            beta=0.0, self_interference_convention="pm"), 0.1, 0.1)
        assert a == b

    def test_macro_power_convention_hurts_more(self):
        # scaling the residue by the (much larger) macro power must cost
        # coverage
        a = joint_value(params_with(
            self_interference_convention="ps"), 0.1, 0.1)
        b = joint_value(params_with(
            self_interference_convention="pm"), 0.1, 0.1)
        assert b < a

    def test_fdd_ignores_residue(self):
        a = joint_value(params_with(beta=0.0), 0.1, 0.1, DuplexMode.FDD)
        b = joint_value(params_with(beta=7.0), 0.1, 0.1, DuplexMode.FDD)
        assert a == b


# network points for the kernel cross-checks: the defaults (strong pico
# bias, delta_m > 1) and a weak bias (delta_m < 1) with the residual
# self-interference taken at the macro transmit power
POINTS = {
    "defaults": {},
    "weak bias, pm": dict(B_s=10 ** -1.0, self_interference_convention="pm"),
}


# threshold batches for the dense-oracle batch test
ORACLE_BATCHES = {
    # shaped like a rate t-panel: the access threshold floored for the
    # first pairs, then both growing, ending with no live node
    "t-panel": ([0.5, 0.5, 0.5, 0.9, 3.0, 1e5, 1e300],
                [0.5, 2.0, 40.0, 0.9, 7.0, 1e5, 1e300]),
    # most access thresholds have no live node (their backhaul thresholds
    # are out of reach), so the pico field gets fewer access pairs than
    # the batch has distinct T_s: one with many live nodes ...
    "one live": ([0.2, 0.4, 0.8, 1.6, 3.2, 0.2],
                 [0.1, 1e20, 1e20, 1e20, 1e20, 0.5]),
    # ... and, under IBFD, as many live nodes as distinct T_s (3, 0, 0, 1),
    # which would pass for one entry per access pair if the idle T_s were
    # access pairs too
    "entries equal thresholds": ([0.2, 0.4, 0.8, 1.6],
                                 [1e9, 1e20, 1e20, 1e10]),
}


# what _field keeps for the row builder of the macro family
ROW_INPUTS = ("m_knots", "m_rs", "m_ri", "m_alpha", "m_chord", "m_built")


def build_every_row(geom: dict) -> dict:
    """geom with every row of both fields' radial tables built, through
    the row builder that _mixed_term runs."""
    for prefix in ("s_", "m_"):
        smallcell._build_rows(geom, prefix,
                              np.arange(geom[prefix + "built"].size))
    return geom


class TestLazyRows:
    """_mixed_term builds the radial table rows of the nodes a call keeps
    on first use, each once; whatever the order of calls, every entry
    equals the one a build of all rows at once gives."""

    @pytest.fixture
    def rows_built(self, monkeypatch):
        # no geometry held, and the row count of every _znpow call that
        # builds a field's rows (the bearing tables pass 1-D inputs, a node
        # each)
        monkeypatch.setattr(smallcell, "_HELD", {})
        counts = []
        znpow = smallcell._znpow

        def counted(d2, *args, **kwargs):
            if d2.ndim == 2:
                counts.append(d2.shape[0])
            return znpow(d2, *args, **kwargs)

        monkeypatch.setattr(smallcell, "_znpow", counted)
        return counts

    def test_cold_batch_builds_each_row_once(self, rows_built):
        # 21 distinct access thresholds, as on one G10/K21 rate t-panel:
        # the batch's access pairs repeat each node once per T_s
        p = params_with()
        T_s = np.geomspace(0.02, 2.0, 21)
        evaluate_joint(p, T_s, np.geomspace(0.01, 1.0, 21), DuplexMode.IBFD)
        geom = smallcell._geometry(p, 6)
        n_built = int(geom["m_built"].sum())
        assert n_built > 16 * smallcell._BLOCK   # more than one build chunk
        assert geom["s_built"].all()
        assert sum(rows_built) == n_built + 1

    @pytest.mark.parametrize("order", ["listed", "reversed"])
    def test_any_call_order_fills_the_eager_tables(self, rows_built,
                                                   order):
        p = params_with()
        calls = [([50.0], [20.0], DuplexMode.IBFD, "circle"),  # high ones
                 ([0.5], [0.5], DuplexMode.FDD, "circle"),
                 ([2.0], [0.3], DuplexMode.IBFD, "arc"),
                 (*ORACLE_BATCHES["t-panel"], DuplexMode.IBFD, "circle")]
        for T_s, T_b, mode, bearing in (calls if order == "listed"
                                        else calls[::-1]):
            evaluate_joint(p, np.array(T_s), np.array(T_b), mode, 6, bearing)
        lazy = smallcell._geometry(p, 6)
        assert 0 < lazy["m_built"].sum() < lazy["m_built"].size
        build_every_row(lazy)
        assert sum(rows_built) == lazy["m_built"].size + 1
        smallcell._HELD.clear()
        eager = build_every_row(smallcell._geometry(p, 6))
        assert lazy.keys() == eager.keys()
        for key in lazy:
            assert np.array_equal(lazy[key], eager[key]), key

    def test_one_call_builds_exactly_its_live_nodes(self, rows_built):
        p = params_with()
        evaluate_joint(p, [2.0], [0.5], DuplexMode.IBFD)
        geom = smallcell._geometry(p, 6)
        live = smallcell._exponent_bound(
            p, DuplexMode.IBFD, np.array([2.0]), np.array([0.5]), geom,
            slice(None))[0] < geom["skip"]
        assert 0 < live.sum() < live.size
        assert np.array_equal(geom["m_built"], live)
        assert geom["s_built"].all()
        assert sum(rows_built) == live.sum() + 1

    def test_fdd_builds_no_row(self, rows_built):
        p = params_with()
        evaluate_joint(p, [0.1, 0.5], [0.1, 2.0], DuplexMode.FDD)
        geom = smallcell._geometry(p, 6)
        assert not geom["m_built"].any() and not geom["s_built"].any()
        assert rows_built == []

    def test_warm_repeat_builds_nothing(self, rows_built):
        p = params_with()
        T_s, T_b = (np.array(t) for t in ORACLE_BATCHES["t-panel"])
        first = evaluate_joint(p, T_s, T_b, DuplexMode.IBFD)
        n_calls = len(rows_built)
        assert n_calls > 0
        assert np.array_equal(evaluate_joint(p, T_s, T_b, DuplexMode.IBFD),
                              first)
        evaluate_joint(p, T_s[3:4], T_b[3:4], DuplexMode.IBFD)
        assert len(rows_built) == n_calls


class TestBlockedKernel:
    """evaluate_joint walks the live nodes _BLOCK at a time in one scratch
    buffer and takes the pico field from its one-row r_s = 1 tables; the
    dense einsum formulation over per-node tensors in tests/oracles.py is
    the reference.  Only the order of floating-point operations differs."""

    @pytest.mark.parametrize("level", [3, 6, 10])
    @pytest.mark.parametrize("mode, bearing", [
        (DuplexMode.IBFD, "circle"), (DuplexMode.IBFD, "arc"),
        (DuplexMode.FDD, "circle"), (DuplexMode.FDD, "arc")])
    @pytest.mark.parametrize("point", list(POINTS))
    def test_matches_dense_oracle(self, level, mode, bearing, point):
        p = params_with(**POINTS[point])
        args = (p, 0.5, 0.5, mode, level, bearing)
        # the dense oracle first, dropped before the package geometry is
        # built: the two are never held at once
        smallcell._HELD.clear()
        expected, n_live = dense_evaluate_joint(*args)
        release_dense_geometry()
        assert n_live > 0
        assert evaluate_joint(p, [0.5], [0.5], mode, level,
                              bearing)[0] == pytest.approx(
            expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("prefix, n", [
        # three full blocks and a partial one of the macro kernel
        ("s_", 3 * smallcell._BLOCK + 5), ("m_", 3 * smallcell._BLOCK + 5),
        # one pico access pair whose entries fill two radial chunks of
        # 16 _BLOCK and part of a third
        ("s_", 32 * smallcell._BLOCK + 5),
    ], ids=["s_", "m_", "s_ three entry chunks"])
    def test_mixed_term_node_by_node(self, prefix, n):
        # n scattered live nodes
        p = params_with()
        geom = smallcell._geometry(p, 6)
        dense = dense_geometry(p, 6)
        rng = np.random.default_rng(7)
        idx = np.sort(rng.choice(geom["f2w"].size, n, replace=False))
        s1, s2, s1p, s2p = (s[idx] for s in dense_sharpness(p, 0.5, 0.5,
                                                            dense))
        if prefix == "s_":
            # one access pair on the r_s = 1 row (s_1 = T_s) with an entry
            # per node, scaled back by r_s^2
            got = geom["rs2"][idx] * smallcell._mixed_term(
                s2 / geom["rs_pow_as"][idx], np.array([0.5]), geom, prefix,
                np.zeros(1, dtype=np.intp), np.zeros(n, dtype=np.intp))
            expected = dense_mixed_term(s2, s1, dense, prefix, idx)
        else:
            got = smallcell._mixed_term(s2p, s1p, geom, prefix, idx,
                                        np.arange(n))
            expected = dense_mixed_term(s2p, s1p, dense, prefix, idx)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("level", [3, 6, 10])
    def test_geometry_matches_dense_build(self, level):
        p = params_with()
        geom = build_every_row(smallcell._geometry(p, level))
        # the blocked in-place build runs the dense build's operations in
        # its order, on a node count that leaves a partial last block
        assert geom["f2w"].size % smallcell._BLOCK != 0
        # every per-node table (the macro family, both lens shells, the
        # bearing tables, the node weights) runs the dense build's
        # arithmetic too, through core.chord_angle and _lens_shell; the
        # macro row builder's inputs are not tables
        per_node = [k for k in geom if (k == "f2w" or k == "g_w"
                    or k.startswith(("m_", "k1_", "k2_", "g_rmnpow_")))
                    and k not in ROW_INPUTS]
        assert len(per_node) == 14
        # the pico family has the macro layout with one row, the node
        # r_s = R_i = 1
        n_l = geom["s_znpow"].shape[1]
        assert geom["s_znpow"].shape == (1, n_l, geom["ang_w"].size)
        assert all(geom[k].shape == (1, n_l)
                   for k in ("s_xnpow", "s_wx", "s_width"))
        assert geom["s_tw"].shape == geom["s_txnpow"].shape \
            == (1, geom["m_tw"].shape[1])
        # the dense build one table family at a time, each dropped before
        # the next is built: at level 10 the package build and all dense
        # families at once would hold about 626 MB of arrays
        compared = set()
        for family in FAMILIES:
            dense = dense_geometry(p, level, (family,))
            keys = [k for k in per_node if k in dense]   # f2w in each
            for key in keys:
                assert np.array_equal(geom[key], dense[key]), key
            compared.update(keys)
            if family == "s_":
                self.assert_pico_tables_scale(p, geom, dense)
            del dense
            release_dense_geometry()
        assert compared == set(per_node)

    @staticmethod
    def assert_pico_tables_scale(p, geom, dense):
        # each node's dense pico tensor is the package's one row with
        # lengths scaled by r_s; every fifth node, _BLOCK of them at a
        # time: no temporary grows with the node count
        step = 5 * smallcell._BLOCK
        for lo in range(0, dense["rs"].size, step):
            nodes = slice(lo, lo + step, 5)
            rs = dense["rs"][nodes, None]
            rs_a = rs ** p.alpha_s
            for key, scale in (("s_znpow", rs_a[..., None]),
                               ("s_xnpow", rs_a), ("s_txnpow", rs_a),
                               ("s_wx", rs ** -2.0), ("s_tw", rs ** -2.0),
                               ("s_width", 1.0)):
                scaled = dense[key][nodes] * scale
                np.testing.assert_allclose(
                    scaled, np.broadcast_to(geom[key], scaled.shape),
                    rtol=1e-13, atol=0.0, err_msg=key)

    @pytest.mark.parametrize("mode", [DuplexMode.IBFD, DuplexMode.FDD])
    @pytest.mark.parametrize("T, live", [
        (0.1, "partial last block"), (1e5, "fewer than one block"),
        (1e300, "none")])
    def test_live_set_sizes(self, mode, T, live):
        p = params_with()
        expected, n_live = dense_evaluate_joint(p, T, T, mode)
        if live == "none":
            assert n_live == 0 and expected == 0.0
        elif live == "fewer than one block":
            assert 0 < n_live < smallcell._BLOCK
        else:
            assert n_live > smallcell._BLOCK
            assert n_live % smallcell._BLOCK != 0
        assert evaluate_joint(p, [T], [T], mode)[0] == pytest.approx(
            expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mode, bearing, batch", [
        pytest.param(mode, bearing, batch, id="-".join(
            [str(mode), bearing] + ([batch] if batch != "t-panel" else [])))
        for mode, bearing, batch in [
            (DuplexMode.IBFD, "circle", "t-panel"),
            (DuplexMode.IBFD, "arc", "t-panel"),
            (DuplexMode.FDD, "circle", "t-panel"),
            (DuplexMode.IBFD, "circle", "one live"),
            (DuplexMode.FDD, "circle", "one live"),
            (DuplexMode.IBFD, "circle", "entries equal thresholds"),
            (DuplexMode.FDD, "circle", "entries equal thresholds")]])
    def test_batched_call_matches_dense_oracle(self, mode, bearing, batch):
        p = params_with()
        T_s, T_b = (np.array(t) for t in ORACLE_BATCHES[batch])
        got = evaluate_joint(p, T_s, T_b, mode, 6, bearing)
        _, n_live = smallcell._joint_batch(p, T_s, T_b, mode,
                                           smallcell._geometry(p, 6), bearing)
        for i, (ts, tb) in enumerate(zip(T_s, T_b)):
            expected, dense_live = dense_evaluate_joint(p, ts, tb, mode, 6,
                                                        bearing)
            assert n_live[i] == dense_live
            assert got[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
        if batch == "t-panel":
            assert n_live[-1] == 0 and 0 < n_live[-2] < smallcell._BLOCK
        else:
            assert np.count_nonzero(n_live) <= T_s.size / 2
        if batch == "entries equal thresholds" and mode is DuplexMode.IBFD:
            assert list(n_live) == [3, 0, 0, 1]

    def test_warm_call_allocates_far_less_than_one_tensor(self):
        # nearly every node live (the lightest ones never are): a pass that
        # materializes any (node, radial, angular) temporary allocates
        # most of an m_znpow-sized array
        p = params_with()
        geom = smallcell._geometry(p, 6)
        assert dense_evaluate_joint(p, 0.01, 0.01,
                                    DuplexMode.IBFD)[1] \
            > 0.85 * geom["f2w"].size
        evaluate_joint(p, [0.01], [0.01], DuplexMode.IBFD)
        tracemalloc.start()
        try:
            evaluate_joint(p, [0.01], [0.01], DuplexMode.IBFD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * geom["m_znpow"].nbytes

    def test_cold_build_peak_stays_near_the_macro_tensor(self):
        # the macro tensor is built 16 _BLOCK rows at a time into its own
        # storage and the pico family is a single row, so a cold build of
        # every row allocates little beyond the one tensor it keeps
        p = params_with()
        smallcell._HELD.clear()
        tracemalloc.start()
        try:
            geom = build_every_row(smallcell._geometry(p, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * geom["m_znpow"].nbytes

    def test_geometries_are_held_for_one_point(self, monkeypatch):
        # a process holds the geometries of one model point, by level: both
        # modes and any thresholds at that point reuse them, a new level
        # joins them, and a call at another point drops every one of them.
        # The outer grid reads the biases, which the network key leaves out
        monkeypatch.setattr(smallcell, "_HELD", {})
        a, b = params_with(lambda_s=2.0), params_with(lambda_s=2.0, B_s=10.0)
        assert a.network == b.network
        evaluate_joint(a, [0.5], [0.5], DuplexMode.IBFD, 3)
        first = smallcell._geometry(a, 3)
        for mode in DuplexMode:
            evaluate_joint(a, [0.1, 2.0], [1.0, 0.2], mode, 3, "arc")
        assert smallcell._geometry(a, 3) is first
        finer = smallcell._geometry(a, 6)
        assert smallcell._geometry(a, 3) is first
        key_a, key_b = ((p.network, p.B_m, p.B_s) for p in (a, b))
        assert smallcell._HELD == {key_a: {3: first, 6: finer}}
        evaluate_joint(b, [0.5], [0.5], DuplexMode.FDD, 6)
        assert list(smallcell._HELD) == [key_b]
        assert list(smallcell._HELD[key_b]) == [6]
        assert smallcell._geometry(a, 3) is not first


def law_of_cosines_pow(x, r, width, g, alpha, mp):
    """(x^2 + r^2 + 2 x r cos(theta))^(-alpha/2) at theta = width/2 (1 - g),
    in 30-digit arithmetic on the float64 inputs."""
    with mp.workdps(30):
        x, r = mp.mpf(float(x)), mp.mpf(float(r))
        theta = mp.mpf(float(width)) / 2 * (1 - mp.mpf(float(g)))
        return float((x ** 2 + r ** 2 + 2 * x * r * mp.cos(theta))
                     ** (-mp.mpf(alpha) / 2))


class TestChordForm:
    """_znpow builds |z| (and r_m) from the half-angle chord form of the law
    of cosines, (x - r)^2 + 4 x r / (1 + tan^2(theta/2)): a sum of
    non-negative terms, with no cos."""

    @pytest.mark.parametrize("level", [3, 6, 10])
    def test_tensors_match_law_of_cosines(self, level):
        mp = pytest.importorskip("mpmath")
        p = params_with()
        # only the nodes' radii come from the dense build, which is
        # dropped before the package build
        xm, rs = (dense_geometry(p, level)[k] for k in ("m_x", "rs"))
        release_dense_geometry()
        geom = build_every_row(smallcell._geometry(p, level))
        gx = _leggauss(geom["ang_w"].size)[0]
        zn = geom["m_znpow"]
        assert np.array_equal(xm ** -p.alpha_m, geom["m_xnpow"])
        # the rows where |z| gets smallest against its two legs are where
        # r_s^2 + x^2 - 2 r_s x cos(chi) cancels; add a fixed random sample.
        # |z|^2 = zn^(-2/alpha) falls as zn grows, so its least over the
        # angles is that of the largest zn: no temporary of zn's size
        ratio = zn.max(axis=2) ** (-2.0 / p.alpha_m) \
            / (rs[:, None] ** 2 + xm ** 2)
        rng = np.random.default_rng(level)
        rows = np.union1d(np.argsort(ratio, axis=None)[:200],
                          rng.choice(ratio.size, 200, replace=False))
        width, errors = geom["m_width"], []
        for n, l in zip(*np.unravel_index(rows, ratio.shape)):
            for a, g in enumerate(gx):
                ref = law_of_cosines_pow(xm[n, l], rs[n], width[n, l], g,
                                         p.alpha_m, mp)
                errors.append(abs(zn[n, l, a] - ref) / ref)
        # the pico table, all of its one row: r_s = 1 and its own radial
        # nodes
        xs = gauss_panel_nodes(smallcell._LADDER_S, max(level, 4))[0]
        zs, ws = geom["s_znpow"][0], geom["s_width"][0]
        assert np.array_equal(xs ** -p.alpha_s, geom["s_xnpow"][0])
        for l, a in np.ndindex(zs.shape):
            ref = law_of_cosines_pow(xs[l], 1.0, ws[l], gx[a], p.alpha_s, mp)
            errors.append(abs(zs[l, a] - ref) / ref)
        assert max(errors) <= 2.5e-14

    @pytest.mark.parametrize("n_ang", [8, 12, 16])
    @pytest.mark.parametrize("alpha", [2.8, 4.0])
    def test_degenerate_rows(self, n_ang, alpha):
        # widths 0 and pi, and x == r exactly, where the law of cosines
        # cancels to 4 x r cos^2(theta/2); the nodes and their mirror
        # images (the bearing table passes -gx)
        mp = pytest.importorskip("mpmath")
        x = np.array([0.5, 2.0, 1.0, 1.0, 3.0])
        width = np.array([0.0, 0.0, np.pi, 0.0, np.pi])
        r = 1.0
        for gx in (_leggauss(n_ang)[0], -_leggauss(n_ang)[0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                zn = smallcell._znpow((x - r) ** 2, 4.0 * r * x, width, gx,
                                      alpha)
            assert np.all(np.isfinite(zn)) and np.all(zn > 0.0)
            # the reference takes theta/2 as rounded in float64: at x == r
            # and theta -> pi one ulp of theta/2 moves |z|^-alpha by
            # alpha tan(theta/2) theta/2 ulps (up to ~750 here), which no
            # form of the law of cosines can recover
            half = 0.25 * width[:, None] * (1.0 - gx)
            for i, a in np.ndindex(zn.shape):
                ref = law_of_cosines_pow(x[i], r, 4.0 * half[i, a], 0.0,
                                         alpha, mp)
                assert zn[i, a] == pytest.approx(ref, rel=2.5e-14, abs=0.0)

    def test_node_tensors_call_no_cos(self, monkeypatch):
        p = params_with()
        rs = np.array([0.05, 0.3, 0.3, 1.2])
        r = np.array([0.4, 0.3, 2.0, 1.3])

        def no_cos(*args, **kwargs):
            raise AssertionError("np.cos called")

        monkeypatch.setattr(smallcell.np, "cos", no_cos)
        geom = build_every_row(smallcell._node_tensors(
            p, rs, r, inner_disc_radius(rs, p), n_rad=6, n_ang=12, n_tail=12))
        assert all(np.all(np.isfinite(geom[k]) & (geom[k] > 0.0))
                   for k in ("m_znpow", "s_znpow", "g_rmnpow_arc",
                             "g_rmnpow_circle"))


class TestWholeCircle:
    """Past the first six panels of a macro row every radius exceeds
    r_s + R_i, so those nodes see the whole circle (width pi) and _build_rows
    takes no chord_angle there; _znpow forms every width-pi entry from one
    constant row of 1 + tan^2(theta/2), bit for bit the chord form."""

    @pytest.mark.parametrize("level", [3, 6, 10])
    @pytest.mark.parametrize("point", [
        {}, dict(lambda_s=1.0), dict(lambda_s=40.0), dict(B_s=1.0),
        dict(B_s=1e6), dict(alpha_m=2.1), dict(alpha_m=4.0)],
        ids=["defaults", "lambda_s=lambda_m", "lambda_s=40lambda_m",
             "B_s=0dB", "B_s=60dB", "alpha_m=2.1", "alpha_m=4"])
    def test_far_panels_see_the_whole_circle(self, level, point):
        p = params_with(**point)
        smallcell._HELD.clear()
        geom = smallcell._geometry(p, level)
        knots, rs, ri = (geom["m_" + k] for k in ("knots", "rs", "ri"))
        n_chord = geom["m_chord"]
        assert n_chord == 6
        n_rad = geom["m_wx"].shape[1] // (knots.shape[1] - 1)
        # the nodes of every row's far panels, as _build_rows places them
        x = gauss_panel_nodes(knots, n_rad)[0][:, n_chord * n_rad:]
        assert np.all(chord_angle(rs[:, None], x, ri[:, None]) == 0.0)
        assert np.all(knots[:, n_chord] >= 1.4 * (rs + ri))
        # the built widths: pi exactly on those panels, and some rows reach
        # B(o, R_i) before them
        smallcell._build_rows(geom, "m_", np.arange(rs.size))
        width = geom["m_width"]
        assert np.all(width[:, n_chord * n_rad:] == np.pi)
        assert np.any(width[:, :n_chord * n_rad] < np.pi)
        smallcell._HELD.clear()

    @pytest.mark.parametrize("n_ang", [8, 12, 16])
    @pytest.mark.parametrize("alpha", [2.1, 2.8, 4.0])
    def test_whole_circle_entries_are_the_chord_form(self, n_ang, alpha):
        # rows of width pi only, and rows that mix pi with narrower widths,
        # over two full _BLOCKs and part of a third; the bearing tables
        # pass 1-D rows and the mirrored nodes -gx
        rng = np.random.default_rng(n_ang)
        n = 2 * smallcell._BLOCK + 7
        x = rng.uniform(0.05, 50.0, (n, 30))
        r = rng.uniform(0.05, 5.0, (n, 1))
        d2, four = (x - r) ** 2, 4.0 * r * x
        mixed = np.where(rng.random((n, 30)) < 0.3,
                         rng.uniform(0.0, np.pi, (n, 30)), np.pi)
        for width in (np.full((n, 30), np.pi), mixed):
            for gx in (_leggauss(n_ang)[0], -_leggauss(n_ang)[0]):
                expected = chord_form(d2, four, width, gx) ** (-alpha / 2.0)
                got = smallcell._znpow(d2, four, width, gx, alpha)
                assert np.array_equal(got, expected)
                got = smallcell._znpow(d2[:, 0], four[:, 0], width[:, 0], gx,
                                       alpha)
                assert np.array_equal(got, expected[:, 0])

    def test_whole_circle_calls_tan_on_one_row(self, monkeypatch):
        # at width pi the only tan is the constant row's
        sizes = []
        tan = np.tan

        def counted(a, *args, **kwargs):
            sizes.append(np.size(a))
            return tan(a, *args, **kwargs)

        monkeypatch.setattr(smallcell.np, "tan", counted)
        gx = _leggauss(12)[0]
        x = np.linspace(0.1, 9.0, 3 * smallcell._BLOCK * 20).reshape(-1, 20)
        smallcell._znpow((x - 1.0) ** 2, 4.0 * x, np.full_like(x, np.pi), gx,
                         2.8)
        assert sizes == [12]


# threshold batches shaped like the rate integral's t-panels
BATCHES = {
    # the floored panel: one access threshold, the backhaul one growing
    "equal T_s": ([0.1] * 6, [0.02, 0.1, 0.7, 4.0, 30.0, 300.0]),
    # later panels: both grow, each pair with its own live set
    "both vary": ([0.05, 0.2, 0.9, 3.0, 12.0, 60.0],
                  [0.01, 0.08, 0.9, 11.0, 150.0, 2e3]),
    # unreachable (inf) entries and one with no live node among live ones
    "inf and no live node": ([0.1, math.inf, 1e300, 0.3, 0.1],
                             [0.2, 0.1, 1e300, math.inf, 1e5]),
}


class TestBatchedThresholds:
    """evaluate_joint on K threshold pairs is K one-pair calls: the batch
    shares the candidate nodes and the access-side work, but every pair
    keeps its own live nodes and sums them in grid order."""

    @pytest.mark.parametrize("batch", list(BATCHES))
    @pytest.mark.parametrize("level", [3, 6])
    @pytest.mark.parametrize("mode, bearing", [
        (DuplexMode.IBFD, "circle"), (DuplexMode.IBFD, "arc"),
        (DuplexMode.FDD, "circle"), (DuplexMode.FDD, "arc")])
    @pytest.mark.parametrize("point", list(POINTS))
    def test_batch_equals_scalar_calls(self, batch, level, mode, bearing,
                                       point):
        p = params_with(**POINTS[point])
        T_s, T_b = (np.array(t) for t in BATCHES[batch])
        args = (mode, level, bearing)
        got = evaluate_joint(p, T_s, T_b, *args)
        assert isinstance(got, np.ndarray) and got.shape == T_s.shape
        for i in range(T_s.size):
            one, = evaluate_joint(p, T_s[i:i + 1], T_b[i:i + 1], *args)
            assert got[i] == pytest.approx(one, rel=1e-14, abs=0.0)
        finite = np.isfinite(T_s) & np.isfinite(T_b)
        assert np.all(got[~finite] == 0.0)
        geom = smallcell._geometry(p, level)
        _, n_live = smallcell._joint_batch(p, T_s[finite], T_b[finite], mode,
                                           geom, bearing)
        singles = [smallcell._joint_batch(p, T_s[i:i + 1], T_b[i:i + 1],
                                          mode, geom, bearing)[1][0]
                   for i in np.flatnonzero(finite)]
        assert list(n_live) == singles
        if batch == "inf and no live node":
            assert singles[1] == 0 and singles[0] > 0

    # 65 pairs, each with its own T_s, the backhaul thresholds shuffled
    T_S65 = np.geomspace(0.02, 5.0, 65)
    T_B65 = np.geomspace(0.01, 3.0, 65)[
        np.random.default_rng(1).permutation(65)]

    @pytest.mark.parametrize("bearing", ["circle", "arc"])
    @pytest.mark.parametrize("level", [6, 10])
    def test_pair_bits_do_not_depend_on_the_batch(self, level, bearing):
        # OpenBLAS dgemv (@) rounds the rows past the last multiple of 4 in
        # a call differently, so the pico angular sums and the bearing
        # averages take per-row sums: each pair gives the same bits alone
        # as in a batch of any size
        p, args = params_with(), (DuplexMode.IBFD, level, bearing)
        alone = [evaluate_joint(p, self.T_S65[i:i + 1], self.T_B65[i:i + 1],
                                *args)[0] for i in range(65)]
        for m in (2, 3, 5, 7, 65):
            got = evaluate_joint(p, self.T_S65[:m], self.T_B65[:m], *args)
            assert got.tolist() == alone[:m], m

    @pytest.mark.parametrize("bearing", ["circle", "arc"])
    @pytest.mark.parametrize("level", [6, 10])
    def test_entry_bits_do_not_depend_on_the_batch(self, level, bearing):
        # the same at each (pair, node) entry, over every node, where a
        # batch-dependent bearing average shows (it did at each level and
        # bearing here with @)
        p = params_with()
        geom = smallcell._geometry(p, level)
        nodes = np.arange(geom["f2w"].size)

        def entries(pairs):
            # every node an entry of each pair, node-major; the pairs'
            # T_s ascend, so each node's entries are grouped by T_s
            ts_u, u = np.unique(self.T_S65[pairs], return_inverse=True)
            contrib = smallcell._contributions(
                p, DuplexMode.IBFD, geom, bearing, ts_u,
                np.tile(u, nodes.size), np.tile(self.T_B65[pairs], nodes.size),
                np.repeat(nodes, pairs.size))
            return contrib.reshape(nodes.size, pairs.size).T

        alone = [entries(np.array([i]))[0] for i in range(7)]
        for m in (2, 3, 5, 7):
            for i, got in enumerate(entries(np.arange(m))):
                assert np.array_equal(got, alone[i]), (m, i)

    def test_one_pair_is_a_batch_of_one(self):
        p = params_with()
        one = evaluate_joint(p, [0.3], [0.2], DuplexMode.IBFD)
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        both = evaluate_joint(p, [0.3, 0.3], [0.2, 0.2], DuplexMode.IBFD)
        assert both == pytest.approx([one[0], one[0]], rel=1e-14, abs=0.0)

    def test_rejects_any_nonpositive_entry_and_other_shapes(self):
        p = params_with()
        with pytest.raises(ValueError, match="strictly positive"):
            evaluate_joint(p, [0.1, 0.0], [0.1, 0.1], DuplexMode.IBFD)
        for T_s, T_b in ((np.full((2, 2), 0.1), np.full((2, 2), 0.1)),
                         (0.1, 0.1), ([0.1, 0.2], [0.1])):
            with pytest.raises(ValueError, match="1-D"):
                evaluate_joint(p, T_s, T_b, DuplexMode.IBFD)
