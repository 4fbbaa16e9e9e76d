"""Tests for the command-line front end.

Covers config parsing (linear/dB spellings, rejection rules), the CSV
row schema, exit codes, and end-to-end runs of every subcommand through
``main`` with small workloads.
"""
import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from hetnet import cli, experiments, fanout, montecarlo
from hetnet.analytic import (
    association_probability,
    coverage_smallcell_result,
)
from hetnet.cli import CSV_HEADER, main, parse_config, rows_to_csv
from hetnet.core import DuplexMode, NetworkParams, Thresholds
from hetnet.experiments import FIGURE_IDS, SweepRow, SweepSpec, figure_preset
from hetnet.montecarlo import (
    EstimateWithCI,
    SimulationWindow,
    evaluate_user,
    sample_ppp,
)


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


def _no_work(*args, **kwargs):
    """Stand-in for an evaluator that a rejected command must not reach."""
    raise AssertionError("work started")


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

    def test_omitted_keys_take_the_field_defaults(self):
        # the parser restates no default: a sweep of only the two keys it
        # needs is the spec with every other field at its own default (the
        # empty config's window is checked above)
        cfg = parse_config('{"swept_parameter": "T_s", "grid": [0.1, 1]}')
        assert cfg.sweep == SweepSpec("T_s", (0.1, 1.0), NetworkParams(),
                                      Thresholds())

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

    def test_window_and_output_settings(self):
        cfg = parse_config(json.dumps({
            "window_half_width": 15.0, "fixed_count": True,
            "out": "result.csv"}))
        assert cfg.window == SimulationWindow(half_width=15.0,
                                              fixed_count=True)
        assert cfg.out == "result.csv"

    @pytest.mark.parametrize("key, value", [
        ("fixed_count", "no"), ("fixed_count", "false"), ("fixed_count", 1),
        ("fixed_count", 0), ("mc_trials", 2.7), ("mc_trials", 1e3),
        ("mc_trials", True), ("mc_trials", "5"),
    ])
    def test_mistyped_value_rejected_by_key(self, key, value):
        payload = {"swept_parameter": "T_s", "grid": [0.1], key: value}
        with pytest.raises(ValueError, match=f"cfg.json: {key} must be a "
                                             f"JSON (boolean|integer)"):
            parse_config(json.dumps(payload), source="cfg.json")

    @pytest.mark.parametrize("key, value, kind", [
        ("grid", "015", "array"), ("notes", "abc", "array"),
        ("modes", "ibfd", "array"), ("outputs", "rate", "array"),
        ("grid", 0.5, "array"), ("window_half_width", "15", "number"),
        ("window_half_width", True, "number"),
        ("B_s", "100", "number"), ("T_s", None, "number"),
        ("B_s_db", "20", "number"), ("B_s_db", True, "number"),
        ("lambda_s", True, "number"), ("out", 5, "string"),
        ("self_interference_convention", 3, "string"),
        ("swept_parameter", 5, "string"),
    ])
    def test_string_or_scalar_for_list_or_number_rejected(self, key, value,
                                                          kind):
        # a string must not be read as a list of its characters, nor a
        # quoted number as a number
        payload = {"swept_parameter": "T_s", "grid": [0.1], key: value}
        with pytest.raises(ValueError, match=f"cfg.json: {key} must be a "
                                             f"JSON {kind}"):
            parse_config(json.dumps(payload), source="cfg.json")

    def test_quoted_grid_entry_rejected_by_position(self):
        payload = {"swept_parameter": "T_s", "grid": [0.1, "0.5"]}
        with pytest.raises(ValueError, match=r"cfg\.json: grid\[1\] must be "
                                             r"a JSON number"):
            parse_config(json.dumps(payload), source="cfg.json")

    def test_integer_window_half_width_accepted(self):
        cfg = parse_config('{"window_half_width": 15}')
        assert cfg.window.half_width == 15.0

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
        # the interval is mean -/+ 1.959963984540054 standard errors
        est = EstimateWithCI(mean=0.5, std_error=0.01, n_trials=400)
        row = SweepRow(x=1.0, mode=DuplexMode.FDD,
                       analytic={"p_total": 0.51},
                       mc={"p_total": est}, quad_error={"p_total": 1e-7})
        fields = [c.strip() for c in
                  rows_to_csv([row]).splitlines()[1].split(",")]
        assert fields[4:8] == ["0.5", "0.48040036015459947",
                               "0.5195996398454006", "400"]

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

    def test_nonconverged_integral_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(
            experiments, "coverage_macro_batch",
            lambda *args, **kwargs: (np.array([0.5]), np.array([0.1]),
                                     np.array([False])))
        assert main(["coverage"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-convergence" in captured.err


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
        # the quadrature tolerances are solver constants, not settings
        cfg = write_config(tmp_path, {"quad_abs_tol": 1e-9,
                                      "quad_rel_tol": 1e-9})
        assert main(["coverage", "--config", cfg]) == 1
        assert "unknown keys: quad_abs_tol, quad_rel_tol" in \
            capsys.readouterr().err
        # the out-of-window tail is the simulator's one bias control
        cfg = write_config(tmp_path, {"wrap": True})
        assert main(["simulate", "--config", cfg]) == 1
        assert "unknown keys: wrap" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [
        ({"swept_parameter": "T_s", "grid": "015"}, "grid"),
        ({"swept_parameter": "T_s", "grid": [0.1], "notes": "abc"}, "notes"),
        ({"window_half_width": "15"}, "window_half_width"),
        ({"swept_parameter": "T_s", "grid": [0.1], "B_s": "100"}, "B_s"),
        ({"swept_parameter": "T_s", "grid": [0.1], "T_s": None}, "T_s"),
        ({"swept_parameter": "T_s", "grid": [0.1], "out": 5}, "out"),
    ])
    def test_string_for_list_or_number_exits_one(self, tmp_path, capsys,
                                                 payload, key):
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg]) == 1
        assert f"{key} must be a JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("notes, message", [
        (["first\nsecond"], "notes[0] must be one line"),
        (["ok", "a\rb"], "notes[1] must be one line"),
        (["ok", "a\u2028b"], "notes[1] must be one line"),
        ([1, {"a": 2}], "notes[0] must be a JSON string, got 1"),
        (["ok", {"a": 2}], "notes[1] must be a JSON string, got {'a': 2}"),
    ])
    def test_note_that_is_not_one_line_of_text_exits_one(
            self, tmp_path, capsys, notes, message):
        # each note is one '#' line above the CSV header: a line break
        # would put a bare line there, and a number or object its repr
        cfg = write_config(tmp_path, {"swept_parameter": "T_s",
                                      "grid": [0.1], "notes": notes})
        assert main(["sweep", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--seed", "-1"], "--seed: seed must be >= 0, got -1"),
        (["validate", "--trials", "0"],
         "--trials: n_trials must be >= 1, got 0"),
        (["simulate", "--trials", "-5"],
         "--trials: n_trials must be >= 1, got -5"),
        (["figure", "fig6", "--trials", "-2"],
         "--trials: mc_trials must be >= 0, got -2"),
        (["sweep", "--seed", "x"], "--seed: invalid int value: 'x'"),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
    def test_bad_count_flag_exits_one_naming_the_flag(self, argv, message,
                                                      monkeypatch, capsys):
        for name in ("evaluate_point", "run_sweep", "simulate_pass",
                     "_validate"):
            monkeypatch.setattr(cli, name, _no_work)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: argument {message}\n"

    @pytest.mark.parametrize("key, value", [("B_s_db", 4000),
                                            ("B_s", 10 ** 400)])
    def test_value_beyond_float_range_exits_one(self, tmp_path, capsys,
                                                key, value):
        cfg = write_config(tmp_path, {key: value})
        assert main(["coverage", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {key}")
        assert "out of range" in err

    @pytest.mark.parametrize("swept", ["B_s", "beta"])
    def test_db_grid_value_beyond_float_range_keeps_an_error_row(
            self, tmp_path, capsys, swept):
        cfg = write_config(tmp_path, {"swept_parameter": swept,
                                      "grid": [20.0, 4000.0],
                                      "outputs": ["topology"]})
        assert main(["sweep", "--config", cfg]) == 2
        captured = capsys.readouterr()
        rows = csv_rows(captured.out)
        assert [r["metric"] for r in rows if r["x"] == "4000.0"] == ["error"]
        assert all(r["metric"] != "error" for r in rows if r["x"] == "20.0")
        assert "out of range" in captured.err

    @pytest.mark.parametrize("half_width", [1e200, 1e308, math.inf])
    @pytest.mark.parametrize("command", [["simulate", "--trials", "300"],
                                         ["validate"]])
    def test_window_with_overflowing_area_exits_one(self, tmp_path, capsys,
                                                    half_width, command):
        cfg = write_config(tmp_path, {"window_half_width": half_width})
        assert main([*command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: window_half_width: half_width")
        assert "area is not finite" in err

    @pytest.mark.parametrize("payload, message", [
        ({"lambda_m": -1}, "invalid NetworkParams: lambda_m must be > 0"),
        ({"eta": 2}, "invalid NetworkParams: eta must be in [0, 1]"),
        ({"T_s": 0}, "all thresholds must be strictly positive"),
        ({"window_half_width": 0},
         "window_half_width: half_width must be > 0"),
        ({"swept_parameter": "B_s", "grid": [3, 1]},
         "grid must be sorted ascending"),
        ({"swept_parameter": "B_s", "grid": [3], "mc_trials": -2},
         "mc_trials must be >= 0"),
    ])
    def test_invalid_value_names_the_config_file(self, tmp_path, capsys,
                                                 payload, message):
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    def test_topology_with_non_finite_mass_keeps_an_error_row(
            self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"swept_parameter": "lambda_ratio",
                                      "grid": [4.0, 1e308],
                                      "outputs": ["topology"]})
        assert main(["sweep", "--config", cfg]) == 2
        captured = capsys.readouterr()
        rows = csv_rows(captured.out)
        assert [r["metric"] for r in rows if r["x"] == "1e+308"] == ["error"]
        assert [r["metric"] for r in rows if r["x"] == "4.0"] == \
            ["p_case_a", "p_case_b", "p_case_c"]
        assert "not converged" in captured.err

    def test_unwritable_out_path_exits_one(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["figure", "fig6", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

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

    @pytest.mark.parametrize("argv", [
        ["figure", "fig6", "--mode", "fdd"],
        ["validate", "--mode", "fdd"],
        ["validate", "--threads", "2"],
        ["simulate", "--threads", "2"],
        ["coverage", "--threads", "2"],
        ["sweep", "--threads", "2"],
        ["figure", "fig7", "--threads", "2"],
    ], ids=lambda argv: f"{argv[0]}-{argv[-2].lstrip('-')}")
    def test_flag_the_command_ignores_exits_one(self, argv, monkeypatch,
                                                capsys):
        for name in ("evaluate_point", "run_sweep", "simulate_pass"):
            monkeypatch.setattr(cli, name, _no_work)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in \
            captured.err


class TestMainSimulate:
    @pytest.mark.parametrize("trials", ["-5", "0"])
    def test_rejects_nonpositive_trials(self, trials, monkeypatch, capsys):
        monkeypatch.setattr(cli, "evaluate_point", _no_work)
        assert main(["simulate", "--trials", trials]) == 1
        assert "n_trials must be >= 1" in capsys.readouterr().err

    def test_identical_seeds_give_identical_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--trials", "300", "--seed", "42"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("mode", ["ibfd", "fdd"])
    def test_equals_a_one_point_sweep_with_its_seed(self, mode, tmp_path):
        # a sweep simulates every cell with its master seed
        argv = ["--trials", "300", "--seed", "9"]
        point, swept = tmp_path / "point.csv", tmp_path / "swept.csv"
        assert main(["simulate", "--mode", mode, "--out", str(point)]
                    + argv) == 0
        cfg = write_config(tmp_path, {
            "swept_parameter": "T_s", "grid": [Thresholds().T_s],
            "modes": [mode], "outputs": ["coverage_breakdown", "rate"]})
        assert main(["sweep", "--config", cfg, "--out", str(swept)]
                    + argv) == 0

        def mc_columns(path):
            return [(r["metric"], r["mc_mean"], r["mc_ci95_low"],
                     r["mc_ci95_high"], r["n_trials"])
                    for r in csv_rows(path.read_text(encoding="utf-8"))]

        simulated = [c for c in mc_columns(point) if c[4] != "0"]
        assert [c[0] for c in simulated] == [
            "p_total", "p_smallcell_joint", "p_macro_joint", "rate_total"]
        assert mc_columns(point) == mc_columns(swept)

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
        argv = ["simulate", "--trials", "120", "--seed", "4",
                "--out", str(tmp_path / "sim.csv")]
        assert main(argv) == 0
        assert calls == {"evaluate_user": 120,
                         "coverage_smallcell_result": 1}
        # no pass outlives the call that drew it: a second run draws again
        assert main(argv) == 0
        assert calls == {"evaluate_user": 240,
                         "coverage_smallcell_result": 2}


class TestFullScale:
    """--full-scale is the one way to fixed station counts for figure,
    which takes no config."""

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_flag_equals_fixed_count_config(self, command, tmp_path):
        base = {"window_half_width": 8.0}
        if command == "sweep":
            base.update(swept_parameter="lambda_ratio", grid=[4.0])
        argv = [command, "--trials", "300", "--seed", "5"]
        flag, fixed = tmp_path / "flag.csv", tmp_path / "fixed.csv"
        assert main(argv + ["--full-scale", "--out", str(flag), "--config",
                            write_config(tmp_path, base, "flag.json")]) == 0
        assert main(argv + ["--out", str(fixed), "--config", write_config(
            tmp_path, {**base, "fixed_count": True}, "fixed.json")]) == 0
        assert flag.read_bytes() == fixed.read_bytes()

    def test_each_tier_draws_round_intensity_times_area(self, tmp_path,
                                                        monkeypatch):
        draws = []

        def spy(intensity, window, rng):
            points = sample_ppp(intensity, window, rng)
            draws.append((intensity, window.area, len(points)))
            return points

        monkeypatch.setattr(montecarlo, "sample_ppp", spy)
        # one process, so that the spy sees every draw
        monkeypatch.setattr(fanout, "_process_count", lambda: 1)
        cfg = write_config(tmp_path, {"window_half_width": 8.0})
        assert main(["simulate", "--config", cfg, "--full-scale",
                     "--trials", "40", "--out", str(tmp_path / "s.csv")]) == 0
        p = NetworkParams()
        assert {i for i, _, _ in draws} == {p.lambda_m, p.lambda_s}
        assert len(draws) == 80
        assert all(n == round(i * area) for i, area, n in draws)


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


class TestMainFigure:
    def test_density_figure_reference_point(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert main(["figure", "fig7", "--out", str(out)]) == 0
        rows = csv_rows(out.read_text(encoding="utf-8"))
        at_four = next(r for r in rows if float(r["x"]) == 4.0
                       and r["metric"] == "p_smallcell_joint")
        assert float(at_four["analytic"]) == pytest.approx(0.2545, abs=0.02)

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        # `python -m hetnet.cli` is the console script without installing
        out = tmp_path / "f.csv"
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, (str(src),
                                             os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "hetnet.cli", "figure", "fig6",
             "--out", str(out)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        rows = csv_rows(out.read_text(encoding="utf-8"))
        assert len(rows) == 3 * len(figure_preset("fig6").grid)

    def test_topology_figure_reports_every_error_estimate(self, capsys):
        assert main(["figure", "fig6"]) == 0
        errors = [float(r["quad_error"])
                  for r in csv_rows(capsys.readouterr().out)]
        assert len(errors) == 3 * len(figure_preset("fig6").grid)
        assert all(math.isfinite(e) and e >= 0.0 for e in errors)


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
        arc, = coverage_smallcell_result(NetworkParams(), [th.T_s], [th.T_b],
                                         DuplexMode.IBFD, bearing="arc")
        assert printed == pytest.approx(arc.value, abs=5e-7)
        # the association share comes from the same evaluator
        line = next(l for l in out.splitlines() if "fdd p_assoc_s:" in l)
        printed = float(line.split("analytic=")[1].split()[0])
        assert printed == pytest.approx(
            association_probability(NetworkParams()).value, abs=5e-7)

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_proportion_with_no_hit_passes(self, tmp_path, capsys, seed):
        # at B_s = 60 dB the analytic macro share is 2e-4, so 4,000 trials
        # expect 0.8 macro users and often draw none: the null standard
        # error sqrt(p (1 - p) / n) still scales such a line's z
        cfg = write_config(tmp_path, {"B_s_db": 60})
        assert main(["validate", "--config", cfg, "--seed", seed,
                     "--trials", "4000"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        line = next(l for l in out.splitlines()
                    if "ibfd p_macro_joint:" in l)
        assert 0.0 < float(line.split("analytic=")[1].split()[0]) < 1e-3

    @pytest.mark.parametrize("name, shift, value", [
        ("p_total", 0.1, None), ("rate_total", -0.05, None),
        # an analytic share of exactly 0 or 1 passes only if every trial
        # agrees with it
        ("p_assoc_s", None, 1.0), ("p_macro_joint", None, 0.0)])
    def test_planted_analytic_error_fails(self, monkeypatch, capsys, name,
                                          shift, value):
        def planted(*args, **kwargs):
            row = experiments.evaluate_point(*args, **kwargs)
            row.analytic[name] = (row.analytic[name] + shift
                                  if value is None else value)
            return row

        monkeypatch.setattr(cli, "evaluate_point", planted)
        assert main(["validate", "--trials", "800"]) == 2
        failed = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("FAIL")]
        assert [l.split(":")[0] for l in failed] == [
            f"FAIL  {mode} {name}" for mode in ("ibfd", "fdd")]
        if value is not None:
            assert all(l.endswith(("z=+inf", "z=-inf")) for l in failed)

    def test_one_pass_serves_both_modes(self, monkeypatch, capsys):
        # both modes tally one pass; the determinism line draws two more
        # of 200 trials
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return evaluate_user(*args, **kwargs)

        monkeypatch.setattr(fanout, "_process_count", lambda: 1)
        monkeypatch.setattr(montecarlo, "evaluate_user", counted)
        assert main(["validate", "--trials", "800"]) == 0
        assert "PASS  seeded determinism" in capsys.readouterr().out
        assert calls == [tuple(DuplexMode)] * (800 + 2 * 200)

    def test_rejects_zero_trials(self, capsys):
        assert main(["validate", "--trials", "0"]) == 1
        assert "n_trials" in capsys.readouterr().err

    def test_out_flag_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "validate.txt"
        assert main(["validate", "--trials", "800", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 11
        assert all(line.startswith("PASS  ") for line in lines)

    def test_unwritable_out_path_exits_one(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setattr(cli, "_validate",
                            lambda *args: ("PASS  stand-in: ok\n", 0))
        out = tmp_path / "missing" / "validate.txt"
        assert main(["validate", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
