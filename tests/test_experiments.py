"""Tests for sweep orchestration and the figure presets.

Structural checks pin the preset grids and the row schema; behavioural
checks run tiny sweeps and compare against direct calls of the
underlying solvers.
"""
import math
import sys
from dataclasses import replace

import pytest

from hetnet.analytic import (
    coverage_macro_result,
    coverage_smallcell_result,
    rate_macro_term_result,
    rate_smallcell_term_result,
    topology_probabilities,
)
from hetnet.core import DuplexMode, NetworkParams, Thresholds
from hetnet.experiments import (
    FIGURE_IDS,
    SWEEP_OUTPUTS,
    SWEEPABLE_PARAMETERS,
    SweepSpec,
    figure_preset,
    run_sweep,
)

TH = Thresholds(T_s=0.1, T_b=0.1, T_m=0.1)


class TestSweepSpec:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown swept parameter"):
            SweepSpec("P_q", (1.0,))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            SweepSpec("B_s", ())

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            SweepSpec("B_s", (3.0, 1.0))

    def test_empty_modes_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SweepSpec("B_s", (1.0,), modes=())

    def test_bad_output_rejected(self):
        with pytest.raises(ValueError, match="outputs"):
            SweepSpec("B_s", (1.0,), outputs=("coverage_total", "latency"))

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="mc_trials"):
            SweepSpec("B_s", (1.0,), mc_trials=-1)

    def test_every_advertised_parameter_accepted(self):
        for name in SWEEPABLE_PARAMETERS:
            SweepSpec(name, (2.5, 3.0))


class TestFigurePresets:
    def test_catalogue_ids(self):
        assert FIGURE_IDS == tuple(f"fig{n}" for n in range(6, 15))

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown figure id"):
            figure_preset("fig5")

    def test_presets_are_analytic_by_default(self):
        for figure_id in FIGURE_IDS:
            assert figure_preset(figure_id).mc_trials == 0

    def test_preset_outputs_are_valid(self):
        for figure_id in FIGURE_IDS:
            spec = figure_preset(figure_id)
            assert set(spec.outputs) <= set(SWEEP_OUTPUTS)

    def test_topology_preset_axis(self):
        spec = figure_preset("fig6")
        assert spec.swept_parameter == "B_s"
        assert spec.grid[0] == 22.0 and spec.grid[-1] == 60.0
        assert spec.outputs == ("topology",)

    def test_density_breakdown_preset(self):
        spec = figure_preset("fig7")
        assert spec.swept_parameter == "lambda_ratio"
        assert spec.grid == tuple(float(k) for k in range(1, 21))
        assert spec.outputs == ("coverage_breakdown",)

    def test_threshold_breakdown_preset_carries_notes(self):
        spec = figure_preset("fig8")
        assert spec.swept_parameter == "T_s"
        assert spec.grid[0] == 0.1
        assert len(spec.grid) == 40
        assert spec.notes, "expected a data-provenance note on this preset"

    def test_mode_comparison_presets_cover_both_modes(self):
        for figure_id in ("fig9", "fig10", "fig11", "fig12", "fig13"):
            assert set(figure_preset(figure_id).modes) == {
                DuplexMode.IBFD, DuplexMode.FDD}

    def test_high_bias_density_preset(self):
        spec = figure_preset("fig10")
        assert spec.base_params.B_s == pytest.approx(10.0 ** 3.4)

    def test_rate_presets(self):
        assert figure_preset("fig12").outputs == ("rate",)
        assert figure_preset("fig13").outputs == ("rate",)
        fig14 = figure_preset("fig14")
        assert fig14.swept_parameter == "eta"
        assert fig14.grid == tuple(
            pytest.approx(0.001 + 0.15 * k) for k in range(7))
        assert fig14.modes == (DuplexMode.IBFD,)


class TestRunSweep:
    def test_row_ordering_grid_major(self):
        spec = SweepSpec("lambda_ratio", (2.0, 4.0),
                         modes=(DuplexMode.IBFD, DuplexMode.FDD))
        rows = run_sweep(spec)
        assert [(r.x, r.mode) for r in rows] == [
            (2.0, DuplexMode.IBFD), (2.0, DuplexMode.FDD),
            (4.0, DuplexMode.IBFD), (4.0, DuplexMode.FDD)]

    def test_analytic_matches_direct_call(self):
        spec = SweepSpec("lambda_ratio", (4.0,))
        row = run_sweep(spec)[0]
        params = NetworkParams(lambda_s=4.0)
        direct = coverage_smallcell_result(
            params, TH.T_s, TH.T_b, DuplexMode.IBFD).value \
            + coverage_macro_result(params, TH.T_m, DuplexMode.IBFD).value
        assert row.analytic["p_total"] == pytest.approx(direct, abs=1e-12)
        assert row.quad_error["p_total"] < 1e-4
        assert row.mc == {} and row.error is None

    def test_db_axis_converted_before_evaluation(self):
        row = run_sweep(SweepSpec("B_s", (20.0,), outputs=("topology",)))[0]
        p_a, p_b, p_c = topology_probabilities(NetworkParams(B_s=100.0))
        assert row.analytic["p_case_a"] == pytest.approx(p_a, abs=1e-12)
        assert row.analytic["p_case_b"] == pytest.approx(p_b, abs=1e-12)
        assert row.analytic["p_case_c"] == pytest.approx(p_c, abs=1e-12)
        assert math.isnan(row.quad_error["p_case_a"])

    def test_breakdown_output_adds_components(self):
        spec = SweepSpec("lambda_ratio", (4.0,),
                         outputs=("coverage_breakdown",))
        row = run_sweep(spec)[0]
        assert row.analytic["p_total"] == pytest.approx(
            row.analytic["p_smallcell_joint"] + row.analytic["p_macro_joint"],
            abs=1e-12)

    def test_rate_terms_consistent_with_solvers(self):
        spec = SweepSpec("eta", (0.451,), outputs=("rate",))
        row = run_sweep(spec)[0]
        params = NetworkParams(eta=0.451)
        macro = rate_macro_term_result(params, TH, DuplexMode.IBFD)
        small = rate_smallcell_term_result(params, TH, DuplexMode.IBFD)
        p_cov = coverage_smallcell_result(
            params, TH.T_s, TH.T_b, DuplexMode.IBFD).value \
            + coverage_macro_result(params, TH.T_m, DuplexMode.IBFD).value
        assert row.analytic["rate_macro_term"] == pytest.approx(
            macro.value, abs=1e-12)
        assert row.analytic["rate_smallcell_term"] == pytest.approx(
            small.value, abs=1e-12)
        # conditional rate times coverage recovers the two summands
        assert row.analytic["rate_total"] * p_cov == pytest.approx(
            macro.value + small.value, abs=1e-9)

    def test_failing_point_becomes_error_row(self):
        spec = SweepSpec("T_s", (-0.5, 0.1))
        rows = run_sweep(spec)
        assert rows[0].error is not None
        assert rows[0].analytic == {} and rows[0].mc == {}
        assert rows[1].error is None
        assert rows[1].analytic["p_total"] > 0.0

    def test_analytic_sweep_never_calls_simulator(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("simulation invoked on analytic sweep")

        monkeypatch.setattr("hetnet.experiments.estimate_metrics", boom)
        rows = run_sweep(SweepSpec("lambda_ratio", (4.0,)))
        assert rows[0].mc == {}

    def test_mc_columns_attached_when_trials_requested(self):
        spec = SweepSpec("lambda_ratio", (4.0,), mc_trials=400)
        row = run_sweep(spec, master_seed=7)[0]
        est = row.mc["p_total"]
        assert est.n_trials == 400
        assert est.ci95_low <= est.mean <= est.ci95_high
        # crude sanity: simulation lands in the right neighbourhood
        assert abs(est.mean - row.analytic["p_total"]) < 5.0 * est.std_error

    def test_thread_count_does_not_change_results(self):
        # seven densities are seven geometries at each panel level, more
        # than the shared geometry cache holds, so pooled workers evict
        # entries while others look them up; a short switch interval makes
        # those accesses interleave
        spec = SweepSpec("lambda_ratio", tuple(float(k) for k in range(1, 8)),
                         mc_trials=300)
        serial = run_sweep(spec, master_seed=11, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_sweep(spec, master_seed=11, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert all(row.error is None for row in pooled)
        assert serial == pooled

    def test_thread_count_does_not_change_rate_results(self):
        # the rate path batches each t-panel into one evaluate_joint call
        # whose scratch belongs to the call; pooled workers share the
        # cached geometry while they interleave
        spec = SweepSpec("eta", (0.151, 0.451, 0.901), outputs=("rate",))
        serial = run_sweep(spec, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = run_sweep(spec, threads=2)
        finally:
            sys.setswitchinterval(interval)
        assert all(row.error is None for row in pooled)
        assert serial == pooled

    def test_master_seed_changes_draws(self):
        spec = SweepSpec("lambda_ratio", (4.0,), outputs=("rate",),
                         mc_trials=300)
        a = run_sweep(spec, master_seed=1)[0].mc["rate_total"]
        b = run_sweep(spec, master_seed=2)[0].mc["rate_total"]
        assert a.mean != b.mean

    def test_preset_grid_can_be_narrowed(self):
        spec = replace(figure_preset("fig14"), grid=(0.451,))
        rows = run_sweep(spec)
        assert len(rows) == 1 and rows[0].error is None
