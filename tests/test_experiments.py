"""Tests for sweep orchestration and the figure presets.

Structural checks pin the preset grids and the row schema; behavioural
checks run tiny sweeps and compare against direct calls of the
underlying solvers.
"""
import math
import multiprocessing
import os
import resource
import threading
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from oracles import estimate_metrics

from hetnet import experiments, fanout, montecarlo
from hetnet.analytic import (
    association_probability,
    coverage_macro_batch,
    coverage_smallcell_result,
    rate_macro_term_result,
    rate_smallcell_term_result,
    rates,
    smallcell,
    topology_probabilities,
)
from hetnet.core import DuplexMode, NetworkParams, Thresholds, db_to_linear
from hetnet.experiments import (
    FIGURE_IDS,
    SWEEP_OUTPUTS,
    SWEEPABLE_PARAMETERS,
    SweepSpec,
    evaluate_point,
    figure_preset,
    run_sweep,
)
from hetnet.montecarlo import SimulationWindow, evaluate_user
from hetnet.numerics import IntegralResult, NonConvergenceError

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

    def test_no_preset_reports_the_association_share(self):
        # p_assoc_s is validate's output; the figure CSVs keep their rows
        for figure_id in FIGURE_IDS:
            assert "association" not in figure_preset(figure_id).outputs

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
            params, [TH.T_s], [TH.T_b], DuplexMode.IBFD)[0].value \
            + coverage_macro_batch(params, [TH.T_m], DuplexMode.IBFD)[0][0]
        assert row.analytic["p_total"] == pytest.approx(direct, abs=1e-12)
        assert row.quad_error["p_total"] < 1e-4
        assert row.mc == {} and row.error is None

    def test_db_axis_converted_before_evaluation(self):
        row = run_sweep(SweepSpec("B_s", (20.0,), outputs=("topology",)))[0]
        cases = topology_probabilities(NetworkParams(B_s=100.0))
        for name, case in zip(("p_case_a", "p_case_b", "p_case_c"), cases):
            assert row.analytic[name] == pytest.approx(case.value, abs=1e-12)
            assert row.quad_error[name] == case.error_estimate
            assert math.isfinite(case.error_estimate)

    def test_association_output(self):
        p = NetworkParams(B_s=100.0)
        row = run_sweep(SweepSpec("B_s", (20.0,),
                                  outputs=("association",)))[0]
        p_s = association_probability(p)
        assert row.analytic == {"p_assoc_s": p_s.value}
        assert row.quad_error == {"p_assoc_s": p_s.error_estimate}
        assert math.isfinite(p_s.error_estimate)
        assert row.mc == {}

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
        small, = rate_smallcell_term_result([params], [TH], DuplexMode.IBFD)
        p_cov = coverage_smallcell_result(
            params, [TH.T_s], [TH.T_b], DuplexMode.IBFD)[0].value \
            + coverage_macro_batch(params, [TH.T_m], DuplexMode.IBFD)[0][0]
        assert row.analytic["rate_macro_term"] == pytest.approx(
            macro.value, abs=1e-12)
        assert row.analytic["rate_smallcell_term"] == pytest.approx(
            small.value, abs=1e-12)
        # conditional rate times coverage recovers the two summands
        assert row.analytic["rate_total"] * p_cov == pytest.approx(
            macro.value + small.value, abs=1e-9)

    @pytest.mark.parametrize("mode", [DuplexMode.IBFD, DuplexMode.FDD])
    def test_rate_error_carries_the_coverage_error(self, mode):
        # rate_total = (macro + small) / p_cov, to first order in all three
        row = evaluate_point(NetworkParams(), TH, mode,
                             ("coverage_total", "rate"))
        a, e = row.analytic, row.quad_error
        assert e["rate_total"] == pytest.approx(
            (e["rate_macro_term"] + e["rate_smallcell_term"]) / a["p_total"]
            + a["rate_total"] * e["p_total"] / a["p_total"], rel=1e-12)

    @pytest.mark.parametrize("outputs", [("rate",), ("coverage_total",)])
    def test_unconverged_coverage_fails_every_value_it_enters(
            self, outputs, monkeypatch):
        # p_cov normalizes the rate, so a rate-only request fails with it
        # although p_total is not reported.  The coverage solvers and the
        # small-cell rate take the point as a batch of one (its thresholds
        # or its points as lists); the macro one returns arrays
        def stub(value, converged=True, batch=False):
            def solver(*args, **kwargs):
                result = IntegralResult(value, 1e-6, converged)
                return [result] * len(args[1]) if batch else result
            return solver

        def macro(params, T_m, mode):
            return (np.full(len(T_m), 0.3), np.full(len(T_m), 1e-6),
                    np.ones(len(T_m), dtype=bool))

        monkeypatch.setattr(experiments, "coverage_smallcell_result",
                            stub(0.2, converged=False, batch=True))
        monkeypatch.setattr(experiments, "coverage_macro_batch", macro)
        monkeypatch.setattr(experiments, "rate_macro_term_result", stub(0.1))
        monkeypatch.setattr(experiments, "rate_smallcell_term_result",
                            stub(0.05, batch=True))
        with pytest.raises(NonConvergenceError, match="not converged"):
            evaluate_point(NetworkParams(), TH, DuplexMode.IBFD, outputs)

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

        monkeypatch.setattr("hetnet.experiments.simulate_pass", boom)
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

    @pytest.mark.parametrize("spec", [
        SweepSpec("lambda_ratio", (1.0, 2.0, 3.0, 5.0),
                  modes=tuple(DuplexMode), mc_trials=500),
        SweepSpec("eta", (0.151, 0.451, 0.901), modes=tuple(DuplexMode),
                  outputs=("rate",)),
        # one network: every process tallies its own passes
        # T_s = 7.1 escalates to level 10 under IBFD, so one batch mixes
        # cells that stop at level 6 with one that goes on
        SweepSpec("T_s", (0.1, 0.6, 1.1, 2.1, 7.1), modes=tuple(DuplexMode),
                  outputs=("coverage_breakdown",), mc_trials=300),
        SweepSpec("beta", (-10.0, 0.0, 10.0, 20.0), modes=tuple(DuplexMode),
                  outputs=("coverage_breakdown",), mc_trials=300),
        SweepSpec("B_s", (0.0, 10.0, 22.0, 40.0), modes=tuple(DuplexMode),
                  outputs=("coverage_breakdown", "association"),
                  mc_trials=300),
    ], ids=["coverage-trials", "rate", "threshold-trials", "beta-trials",
            "bias-trials"])
    def test_process_count_does_not_change_results(self, spec, monkeypatch):
        # 3 processes share 4 points unevenly; each run builds its own
        # geometries and draws its own passes, in its own processes
        runs = []
        for count in (1, 2, 3):
            monkeypatch.setattr(fanout, "_process_count",
                                lambda count=count: count)
            runs.append(run_sweep(spec, master_seed=11,
                                  window=SimulationWindow(10.0)))
        assert all(row.error is None for row in runs[0])
        assert runs[0] == runs[1] == runs[2]

    def test_eta_sweep_makes_the_level6_calls_of_one_point(self,
                                                           monkeypatch):
        # fig14's 7 eta points share one small-cell geometry, so one
        # process evaluates them as one batch: one level-6 coverage call
        # for all, and one per round of their lockstep rate integrals.
        # Each row equals the row of its own one-point sweep
        monkeypatch.setattr(fanout, "_process_count", lambda: 1)
        levels = []
        evaluate_joint = smallcell.evaluate_joint

        def counted(params, T_s, T_b, mode, level=6, bearing="circle"):
            levels.append(level)
            return evaluate_joint(params, T_s, T_b, mode, level, bearing)

        for module in (smallcell, rates):
            monkeypatch.setattr(module, "evaluate_joint", counted)
        spec = figure_preset("fig14")
        rows = run_sweep(spec)
        batch_calls, single_calls, singles = levels.count(6), [], []
        for x in spec.grid:
            levels.clear()
            singles += run_sweep(replace(spec, grid=(x,)))
            single_calls.append(levels.count(6))
        assert batch_calls <= max(single_calls) < sum(single_calls)
        assert all(row.error is None for row in rows)
        assert rows == singles

    def test_failed_cell_keeps_its_own_error_row_in_a_batch(self,
                                                            monkeypatch):
        # the three T_s points share one geometry, so one process takes
        # them as one batch; every value at T_s = 0.6 is nan, which fails
        # that cell alone, and its batch-mates' rows equal their one-cell
        # rows
        monkeypatch.setattr(fanout, "_process_count", lambda: 1)
        sizes = []
        evaluate_joint = smallcell.evaluate_joint

        def nan_at(params, T_s, T_b, mode, level=6, bearing="circle"):
            sizes.append((level, np.size(T_s)))
            return np.where(np.asarray(T_s) == 0.6, np.nan, evaluate_joint(
                params, T_s, T_b, mode, level, bearing))

        for module in (smallcell, rates):
            monkeypatch.setattr(module, "evaluate_joint", nan_at)
        spec = SweepSpec("T_s", (0.1, 0.6, 1.1),
                         outputs=("coverage_total", "rate"))
        rows = run_sweep(spec)
        # one level-3 call holds the coverage pairs of all three cells
        assert [n for level, n in sizes if level == 3] == [3]
        assert rows[1].error == "p_total not converged (error estimate nan)"
        assert rows[1].analytic == {}
        for row in (rows[0], rows[2]):
            assert row.error is None
            assert row == run_sweep(replace(spec, grid=(row.x,)))[0]

    def test_worker_error_reaches_caller(self, monkeypatch):
        # the second point runs in the worker, and an error that is not a
        # failed point's leaves no process or thread behind
        evaluate_cells = experiments._evaluate_cells

        def fail_second(cells, *args, **kwargs):
            if any(x == 3.0 for _, _, x in cells):
                raise RuntimeError("cell failed")
            return evaluate_cells(cells, *args, **kwargs)

        monkeypatch.setattr(fanout, "_process_count", lambda: 2)
        monkeypatch.setattr(experiments, "_evaluate_cells", fail_second)
        with pytest.raises(RuntimeError, match="^cell failed$"):
            run_sweep(SweepSpec("lambda_ratio", (2.0, 3.0),
                                outputs=("association",)))
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1

    def test_cell_simulation_runs_in_the_cell_process(self, monkeypatch):
        # a 500-trial pass splits in two on its own; in a split sweep it
        # runs in the process that runs its cell
        cell_pid = []
        simulate_pass = montecarlo.simulate_pass

        def record_pid(*args, **kwargs):
            cell_pid[:] = [os.getpid()]
            return simulate_pass(*args, **kwargs)

        def in_cell_process(*args, **kwargs):
            if os.getpid() != cell_pid[0]:
                raise RuntimeError("simulation left the cell's process")
            return evaluate_user(*args, **kwargs)

        monkeypatch.setattr(fanout, "_process_count", lambda: 2)
        monkeypatch.setattr(experiments, "simulate_pass", record_pid)
        monkeypatch.setattr(montecarlo, "evaluate_user", in_cell_process)
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime
        rows = run_sweep(SweepSpec("lambda_ratio", (2.0, 4.0), mc_trials=500),
                         window=SimulationWindow(10.0))
        assert all(row.error is None and row.mc for row in rows)
        # the second point ran in a worker, which is gone
        assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime > before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("spec", [
        SweepSpec("T_s", (0.1, 0.3, 0.6, 1.1, 2.1, 4.1),
                  modes=tuple(DuplexMode), mc_trials=300),
        SweepSpec("eta", (0.151, 0.451, 0.901), modes=tuple(DuplexMode),
                  outputs=("rate",), mc_trials=300),
        SweepSpec("beta", (-20.0, 0.0, 20.0, 36.0), modes=tuple(DuplexMode),
                  mc_trials=300),
        SweepSpec("B_s", (0.0, 22.0, 40.0), modes=tuple(DuplexMode),
                  outputs=("coverage_breakdown", "association"),
                  mc_trials=300),
    ], ids=["T_s", "eta", "beta", "B_s"])
    def test_one_network_sweep_draws_one_pass(self, spec, count,
                                              monkeypatch):
        # no sample reads T_s, eta, beta or the biases, and one pass serves
        # both modes, so every cell tallies one pass, drawn before the
        # fan-out: on 2 CPUs the worker draws none.  A 300-trial pass is
        # one range, so every call runs in this process, where the counter
        # lives
        parent, calls = os.getpid(), []

        def counted(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("a worker drew trials")
            calls.append(args[3])
            return evaluate_user(*args, **kwargs)

        monkeypatch.setattr(fanout, "_process_count", lambda: count)
        monkeypatch.setattr(montecarlo, "evaluate_user", counted)
        rows = run_sweep(spec, window=SimulationWindow(10.0))
        assert all(row.error is None and row.mc for row in rows)
        assert calls == [tuple(DuplexMode)] * 300

    def test_value_without_a_model_point_keeps_its_error_row(self,
                                                           monkeypatch):
        # eta = 1.5 makes no model point, so no pass is drawn before the
        # fan-out: each process draws its own, and that value records its
        # error without aborting the sweep
        monkeypatch.setattr(fanout, "_process_count", lambda: 2)
        rows = run_sweep(SweepSpec("eta", (0.151, 0.451, 1.5),
                                   modes=tuple(DuplexMode), outputs=("rate",),
                                   mc_trials=300),
                         window=SimulationWindow(10.0))
        assert all(row.error is None and row.mc for row in rows[:4])
        assert all("eta must be in [0, 1]" in row.error for row in rows[4:])

    def test_failed_shared_draw_gives_every_cell_its_error_row(self):
        # a window this small almost never holds a macro, so the pass
        # fails; as when each cell drew its own, each cell records it
        rows = run_sweep(SweepSpec("T_s", (0.1, 1.1), modes=tuple(DuplexMode),
                                   mc_trials=20),
                         window=SimulationWindow(0.1))
        assert len(rows) == 4
        assert all(row.error == "no station in tier: macro" for row in rows)

    @pytest.mark.parametrize("convention", ["ps", "pm"])
    def test_beta_sweep_cells_equal_a_pass_of_their_own(self, convention):
        # the cells of a beta sweep tally one pass per mode, which leaves
        # beta out; each equals a pass drawn at its beta alone
        base = NetworkParams(self_interference_convention=convention)
        window = SimulationWindow(10.0)
        rows = run_sweep(SweepSpec("beta", (-10.0, 10.0, 30.0),
                                   base_params=base, modes=tuple(DuplexMode),
                                   outputs=("coverage_breakdown", "rate"),
                                   mc_trials=300),
                         master_seed=13, window=window)
        for row in rows:
            params = replace(base, beta=db_to_linear(row.x))
            alone = estimate_metrics(params, TH, row.mode, n_trials=300,
                                     window=window, master_seed=13)
            assert set(row.mc) == {"p_total", "p_smallcell_joint",
                                   "p_macro_joint", "rate_total"}
            assert row.mc == {name: alone[name] for name in row.mc}

    def test_shared_pass_rows_agree_with_analytic(self):
        # every row of a threshold, a backhaul-share and a self-interference
        # sweep tallies one pass per mode, so the rows are correlated; each
        # row's interval stays a valid marginal one, and a Bonferroni band
        # over all rows holds the family-wise false-alarm rate at 1 %.  No
        # one seed decides: each row pools the passes of seeds 1-4, the
        # mean of four independent estimates with its standard error, so a
        # change of the draw order cannot be passed by moving to a luckier
        # seed.  The presets use the circle bearing; its gap to the law the
        # simulator realizes is at most 0.0032 in coverage and 0.0055 in
        # rate at the fig9 and fig14 rows, and 0.0030-0.0032 in IBFD
        # coverage (0 in FDD) at the fig11 rows, against pooled bands of
        # 0.014-0.020 in coverage and 0.029-0.10 in rate: under a fifth of
        # each row's band
        fig9 = replace(figure_preset("fig9"), grid=(0.1, 1.1, 2.1, 3.1, 4.1),
                       mc_trials=2000)
        fig11 = replace(figure_preset("fig11"),
                        grid=(-20.0, 20.0, 28.0, 36.0), mc_trials=2000)
        fig14 = replace(figure_preset("fig14"),
                        grid=figure_preset("fig14").grid[1::2],
                        mc_trials=2000)
        seeds = (1, 2, 3, 4)
        runs = [[row for spec in (fig9, fig11, fig14)
                 for row in run_sweep(spec, master_seed=seed)]
                for seed in seeds]
        checks = [(rows, name) for rows in zip(*runs) for name in rows[0].mc]
        assert len(checks) == 2 * 5 + 2 * 4 + 3
        z_max = NormalDist().inv_cdf(1.0 - 0.01 / (2 * len(checks)))
        for rows, name in checks:
            estimates = [row.mc[name] for row in rows]
            mean = math.fsum(est.mean for est in estimates) / len(seeds)
            std_error = math.sqrt(math.fsum(
                est.std_error ** 2 for est in estimates)) / len(seeds)
            z = (mean - rows[0].analytic[name]) / std_error
            assert abs(z) <= z_max, (rows[0].x, rows[0].mode, name, z)

    def test_rate_sweep_builds_each_geometry_once(self, monkeypatch,
                                                  tmp_path):
        # a process holds one point's geometries (levels 3, 6 and 10);
        # both modes of a point run back to back in one process, so they
        # share its geometry.  Builds are logged to a file that the worker
        # appends to as well
        log = tmp_path / "builds.txt"
        outer_grid = smallcell.outer_grid

        def logged_grid(params, level):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{params.lambda_s} {level}\n")
            return outer_grid(params, level)

        monkeypatch.setattr(fanout, "_process_count", lambda: 2)
        monkeypatch.setattr(smallcell, "_HELD", {})
        monkeypatch.setattr(smallcell, "outer_grid", logged_grid)
        rows = run_sweep(SweepSpec("lambda_ratio", (2.0, 3.0, 5.0),
                                   modes=tuple(DuplexMode),
                                   outputs=("rate",)))
        assert all(row.error is None for row in rows)
        built = log.read_text(encoding="utf-8").split("\n")[:-1]
        assert sorted(b for b in built if b.endswith(" 6")) == [
            "2.0 6", "3.0 6", "5.0 6"]
        assert len(built) == len(set(built))

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
