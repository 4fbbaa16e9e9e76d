"""Tests for the command-line front end.

Covers config parsing (linear/dB spellings, rejection rules), the CSV
row schema, exit codes, and end-to-end runs of every subcommand through
``main`` with small workloads.
"""
import json
import math
import sys
from dataclasses import fields

import pytest

from hetnet.analytic import (
    association_probability,
    coverage_smallcell_result,
)
from hetnet.cli import CSV_HEADER, main, parse_config, rows_to_csv
from hetnet.core import DuplexMode, NetworkParams, Thresholds
from hetnet.experiments import FIGURE_IDS, SweepRow, SweepSpec, figure_preset
from hetnet.montecarlo import EstimateWithCI, SimulationWindow, evaluate_user


def config_from_sweep_spec(spec: SweepSpec) -> dict:
    """Flat JSON-ready mapping that parses back to an identical sweep."""
    config = {f.name: getattr(spec.base_params, f.name)
              for f in fields(NetworkParams)}
    config.update({f.name: getattr(spec.base_thresholds, f.name)
                   for f in fields(Thresholds)})
    config.update(
        swept_parameter=spec.swept_parameter,
        grid=list(spec.grid),
        modes=[mode.name.lower() for mode in spec.modes],
        outputs=list(spec.outputs),
        mc_trials=spec.mc_trials,
    )
    if spec.notes:
        config["notes"] = list(spec.notes)
    return config


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def csv_rows(text):
    """Parse emitted CSV into dict rows, skipping '#' comment lines."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == CSV_HEADER
    names = [c.strip() for c in CSV_HEADER.split(",")]
    return [dict(zip(names, (c.strip() for c in line.split(","))))
            for line in lines[1:]]


class TestParseConfig:
    def test_empty_object_gives_reference_defaults(self):
        cfg = parse_config("{}")
        assert cfg.params == NetworkParams()
        assert cfg.thresholds == Thresholds(T_s=0.1, T_b=0.1, T_m=0.1)
        assert cfg.sweep is None and cfg.out is None
        assert cfg.window == SimulationWindow()
        assert cfg.quad_spec is None

    def test_db_suffix_converts_power_decibels(self):
        cfg = parse_config('{"B_s_db": 20, "T_s_db": -10}')
        assert cfg.params.B_s == pytest.approx(100.0, rel=1e-12)
        assert cfg.thresholds.T_s == pytest.approx(0.1, rel=1e-12)

    def test_linear_and_db_spellings_conflict(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            parse_config('{"B_s": 100, "B_s_db": 20}')

    def test_unknown_keys_listed(self):
        with pytest.raises(ValueError, match="unknown keys: bogus, zz"):
            parse_config('{"zz": 1, "bogus": 2}')

    def test_malformed_json_reports_location(self):
        with pytest.raises(ValueError, match=r"cfg\.json:2:11:"):
            parse_config('{\n  "B_s":  ,\n}', source="cfg.json")

    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError, match="top level"):
            parse_config("[1, 2]")

    def test_sweep_requires_parameter_and_grid(self):
        with pytest.raises(ValueError, match="swept_parameter and grid"):
            parse_config('{"grid": [1.0, 2.0]}')

    def test_unknown_mode_rejected(self):
        text = json.dumps({"swept_parameter": "T_s", "grid": [0.1],
                           "modes": ["tdd"]})
        with pytest.raises(ValueError, match="unknown mode 'tdd'"):
            parse_config(text)

    def test_sweep_inherits_config_point(self):
        text = json.dumps({
            "lambda_s": 8.0, "T_b": 0.2,
            "swept_parameter": "B_s", "grid": [10.0, 20.0],
            "modes": ["ibfd", "fdd"], "outputs": ["coverage_breakdown"],
            "mc_trials": 50})
        sweep = parse_config(text).sweep
        assert sweep.base_params.lambda_s == 8.0
        assert sweep.base_thresholds.T_b == 0.2
        assert sweep.grid == (10.0, 20.0)
        assert sweep.modes == (DuplexMode.IBFD, DuplexMode.FDD)
        assert sweep.outputs == ("coverage_breakdown",)
        assert sweep.mc_trials == 50

    def test_window_and_quad_settings(self):
        cfg = parse_config(json.dumps({
            "window_half_width": 15.0, "wrap": True, "fixed_count": True,
            "quad_abs_tol": 1e-9, "out": "result.csv"}))
        assert cfg.window == SimulationWindow(half_width=15.0, wrap=True)
        assert cfg.fixed_count is True
        assert cfg.quad_spec.abs_tol == 1e-9
        assert cfg.out == "result.csv"

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_presets_round_trip_through_config(self, figure_id):
        spec = figure_preset(figure_id)
        text = json.dumps(config_from_sweep_spec(spec))
        assert parse_config(text).sweep == spec


class TestRowsToCsv:
    def test_header_text_is_stable(self):
        assert CSV_HEADER == ("x, mode, metric, analytic, mc_mean, "
                              "mc_ci95_low, mc_ci95_high, n_trials, "
                              "quad_error")

    def test_analytic_only_row(self):
        row = SweepRow(x=4.0, mode=DuplexMode.IBFD,
                       analytic={"p_total": 0.5},
                       quad_error={"p_total": 1e-6})
        text = rows_to_csv([row])
        assert text.splitlines()[0] == CSV_HEADER
        assert text.splitlines()[1] == \
            "4.0, ibfd, p_total, 0.5, nan, nan, nan, 0, 1e-06"

    def test_mc_columns_filled_from_estimate(self):
        est = EstimateWithCI(mean=0.5, std_error=0.01, n_trials=400,
                             ci95_low=0.48, ci95_high=0.52)
        row = SweepRow(x=1.0, mode=DuplexMode.FDD,
                       analytic={"p_total": 0.51},
                       mc={"p_total": est}, quad_error={"p_total": 1e-7})
        fields = [c.strip() for c in
                  rows_to_csv([row]).splitlines()[1].split(",")]
        assert fields[4:8] == ["0.5", "0.48", "0.52", "400"]

    def test_error_row_marker(self):
        row = SweepRow(x=2.0, mode=DuplexMode.IBFD, error="bad point")
        line = rows_to_csv([row]).splitlines()[1]
        assert line == "2.0, ibfd, error, nan, nan, nan, nan, 0, nan"

    def test_notes_precede_header_as_comments(self):
        lines = rows_to_csv([], notes=("context note",)).splitlines()
        assert lines[0] == "# context note"
        assert lines[1] == CSV_HEADER


class TestMainSinglePoint:
    def test_coverage_defaults_to_stdout(self, capsys):
        assert main(["coverage"]) == 0
        rows = csv_rows(capsys.readouterr().out)
        by_metric = {r["metric"]: r for r in rows}
        assert float(by_metric["p_total"]["analytic"]) == pytest.approx(
            0.3574514598, abs=1e-6)
        assert by_metric["p_total"]["mode"] == "ibfd"
        assert float(by_metric["p_total"]["quad_error"]) < 1e-4

    def test_coverage_extreme_thresholds_still_exit_zero(self, tmp_path,
                                                         capsys):
        cfg = write_config(tmp_path,
                           {"T_s": 1e9, "T_b": 1e9, "T_m": 1e9})
        assert main(["coverage", "--config", cfg]) == 0
        rows = csv_rows(capsys.readouterr().out)
        p_total = next(float(r["analytic"]) for r in rows
                       if r["metric"] == "p_total")
        assert p_total <= 1e-3

    def test_rate_mode_switch(self, capsys):
        assert main(["rate", "--mode", "fdd"]) == 0
        fdd = csv_rows(capsys.readouterr().out)
        assert main(["rate", "--mode", "ibfd"]) == 0
        ibfd = csv_rows(capsys.readouterr().out)
        get = lambda rows: next(float(r["analytic"]) for r in rows
                                if r["metric"] == "rate_total")
        assert get(fdd) == pytest.approx(0.141402, abs=1e-4)
        assert get(ibfd) == pytest.approx(0.280904, abs=1e-4)

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        assert main(["coverage", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8").splitlines()[0] == CSV_HEADER

    def test_config_out_used_when_flag_absent(self, tmp_path):
        out = tmp_path / "from_config.csv"
        cfg = write_config(tmp_path, {"out": str(out)})
        assert main(["coverage", "--config", cfg]) == 0
        assert out.exists()

    def test_impossible_tolerance_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"quad_abs_tol": 1e-30,
                                      "quad_rel_tol": 1e-30})
        assert main(["coverage", "--config", cfg]) == 2
        assert "non-convergence" in capsys.readouterr().err


class TestMainErrors:
    def test_malformed_config_exits_one_with_location(self, tmp_path,
                                                      capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"B_s": }', encoding="utf-8")
        assert main(["coverage", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:1:9" in err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bandwith": 3})
        assert main(["coverage", "--config", cfg]) == 1
        assert "unknown keys: bandwith" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, capsys):
        assert main(["coverage", "--config", "/nonexistent/x.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_sweep_without_sweep_config_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        assert main(["sweep", "--config", cfg]) == 1
        assert "does not define a sweep" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["tabulate"]) == 1

    def test_unknown_figure_id_exits_one(self, capsys):
        assert main(["figure", "fig99"]) == 1

    def test_bad_mode_flag_exits_one(self, capsys):
        assert main(["rate", "--mode", "xdd"]) == 1


class TestMainSimulate:
    def test_identical_seeds_give_identical_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--trials", "300", "--seed", "42"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_simulation_columns_populated(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--trials", "200", "--seed", "3",
                     "--out", str(out)]) == 0
        rows = csv_rows(out.read_text(encoding="utf-8"))
        cov = next(r for r in rows if r["metric"] == "p_total")
        assert cov["n_trials"] == "200"
        assert float(cov["mc_ci95_low"]) <= float(cov["mc_mean"]) \
            <= float(cov["mc_ci95_high"])
        rate = next(r for r in rows if r["metric"] == "rate_total")
        assert 0 < int(rate["n_trials"]) <= 200

    def test_one_simulation_pass_and_one_coverage_integral(self, tmp_path,
                                                           monkeypatch):
        calls = {"evaluate_user": 0, "coverage_smallcell_result": 0}

        def count(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        # patch every hetnet namespace that holds the function
        for name, original in (("evaluate_user", evaluate_user),
                               ("coverage_smallcell_result",
                                coverage_smallcell_result)):
            for mod_name, module in list(sys.modules.items()):
                if mod_name.startswith("hetnet") and \
                        getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name,
                                        count(name, original))
        assert main(["simulate", "--trials", "120", "--seed", "4",
                     "--out", str(tmp_path / "sim.csv")]) == 0
        assert calls == {"evaluate_user": 120,
                         "coverage_smallcell_result": 1}


class TestMainSweep:
    def test_sweep_runs_config_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "swept_parameter": "lambda_ratio", "grid": [2.0, 4.0],
            "notes": ["tiny run"]})
        assert main(["sweep", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "# tiny run"
        rows = csv_rows(out)
        assert [float(r["x"]) for r in rows] == [2.0, 4.0]

    def test_trials_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "swept_parameter": "lambda_ratio", "grid": [4.0],
            "mc_trials": 0})
        assert main(["sweep", "--config", cfg, "--trials", "200"]) == 0
        row = csv_rows(capsys.readouterr().out)[0]
        assert row["n_trials"] == "200"
        assert not math.isnan(float(row["mc_mean"]))

    def test_failed_point_exits_two_but_keeps_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "swept_parameter": "T_s", "grid": [-0.5, 0.1]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "failed" in capsys.readouterr().err
        rows = csv_rows(out.read_text(encoding="utf-8"))
        assert rows[0]["metric"] == "error"
        assert rows[1]["metric"] == "p_total"

    def test_thread_count_from_env_matches_serial(self, tmp_path,
                                                  monkeypatch, capsys):
        cfg = write_config(tmp_path, {
            "swept_parameter": "lambda_ratio", "grid": [2.0, 4.0],
            "mc_trials": 150})
        monkeypatch.setenv("HETNET_THREADS", "3")
        assert main(["sweep", "--config", cfg]) == 0
        threaded = capsys.readouterr().out
        monkeypatch.delenv("HETNET_THREADS")
        assert main(["sweep", "--config", cfg, "--threads", "1"]) == 0
        assert capsys.readouterr().out == threaded


class TestMainFigure:
    def test_density_figure_reference_point(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert main(["figure", "fig7", "--out", str(out)]) == 0
        rows = csv_rows(out.read_text(encoding="utf-8"))
        at_four = next(r for r in rows if float(r["x"]) == 4.0
                       and r["metric"] == "p_smallcell_joint")
        assert float(at_four["analytic"]) == pytest.approx(0.2545, abs=0.02)


class TestMainValidate:
    def test_consistency_suite_passes(self, capsys):
        assert main(["validate", "--trials", "800"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "seeded determinism" in out
        assert out.count("PASS") == 11
        # the analytic side follows the bearing law the simulator realizes
        line = next(l for l in out.splitlines()
                    if "ibfd p_smallcell_joint:" in l)
        printed = float(line.split("analytic=")[1].split()[0])
        th = Thresholds(T_s=0.1, T_b=0.1, T_m=0.1)
        arc = coverage_smallcell_result(NetworkParams(), th.T_s, th.T_b,
                                        DuplexMode.IBFD, bearing="arc")
        assert printed == pytest.approx(arc.value, abs=5e-7)
        # the association share comes from the same evaluator
        line = next(l for l in out.splitlines() if "fdd p_assoc_s:" in l)
        printed = float(line.split("analytic=")[1].split()[0])
        assert printed == pytest.approx(
            association_probability(NetworkParams())[0], abs=5e-7)

    def test_rejects_zero_trials(self, capsys):
        assert main(["validate", "--trials", "0"]) == 1
        assert "n_trials" in capsys.readouterr().err
