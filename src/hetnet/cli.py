"""Command-line front end: JSON config in, schema-stable CSV out.

Configs are flat JSON objects.  Every model field is accepted under its
linear name (P_m, B_s, T_s, ...) or, for power-like quantities, with a
`_db` suffix holding power decibels (10*log10, so 20 dB = 100 linear);
the two spellings of one field are mutually exclusive and unknown keys
are rejected.  A config may also define a sweep (swept_parameter, grid,
modes, outputs, mc_trials, notes), simulation window settings
(window_half_width, fixed_count), and a default output path (out).
Model fields, thresholds and window_half_width are JSON numbers, in
either spelling; self_interference_convention, swept_parameter and out
are strings, fixed_count a boolean, mc_trials an integer, grid an array
of numbers, notes an array of one-line strings, and modes and outputs
arrays.  An omitted key takes the default of the field it sets.

Every command evaluates a point through experiments.evaluate_point (a
sweep through its batch form), so a reported value whose integral missed
its tolerance is never printed: the single-point commands and validate
stop with exit code 2, and a sweep keeps an error marker row for that
point.

Exit codes: 0 success, 1 input error, 2 numerical non-convergence
(including sweep points that recorded an error marker).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

from .core import DuplexMode, NetworkParams, Thresholds, db_to_linear
from .experiments import (FIGURE_IDS, SweepSpec, evaluate_point,
                          figure_preset, run_sweep)
from .montecarlo import SimulationWindow, simulate_pass, tally_metrics
from .numerics import NonConvergenceError

__all__ = [
    "CSV_HEADER",
    "RunConfig",
    "main",
    "parse_config",
    "rows_to_csv",
]

CSV_HEADER = ("x, mode, metric, analytic, mc_mean, mc_ci95_low, "
              "mc_ci95_high, n_trials, quad_error")

# power-like quantities that admit decibel entry
_DB_BASES = ("P_m", "P_s", "B_m", "B_s", "beta") \
    + tuple(f.name for f in fields(Thresholds))
# every config key and its JSON kind; an omitted key takes the default of
# the field it sets
_KEYS = {
    **{f.name: str if f.name == "self_interference_convention" else float
       for f in fields(NetworkParams)},
    **{f.name: float for f in fields(Thresholds)},
    **{base + "_db": float for base in _DB_BASES},
    "swept_parameter": str, "grid": list, "modes": list, "outputs": list,
    "mc_trials": int, "notes": list,
    "window_half_width": float, "fixed_count": bool,
    "out": str,
}
# outputs of the single-point commands
_POINT_OUTPUTS = {"coverage": ("coverage_breakdown",), "rate": ("rate",),
                  "simulate": ("coverage_breakdown", "rate")}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: model point, optional sweep, run settings."""

    params: NetworkParams
    thresholds: Thresholds
    sweep: Optional[SweepSpec] = None
    window: SimulationWindow = SimulationWindow()
    out: Optional[str] = None


def _json_value(key: str, value, kind: type, source: str):
    """value, which must have the JSON type of kind; true and false are
    not numbers, a string is not an array.  A number comes back as a
    float, an array as a tuple."""
    if type(value) not in ((int, float) if kind is float else (kind,)):
        name = {bool: "boolean", int: "integer", float: "number",
                list: "array", str: "string"}[kind]
        raise ValueError(
            f"{source}: {key} must be a JSON {name}, got {value!r}")
    if kind is list:
        return tuple(value)
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise ValueError(f"{source}: {key} is out of range") from None


def _mode(name, source: str) -> DuplexMode:
    try:
        return DuplexMode(str(name).lower())
    except ValueError:
        raise ValueError(
            f"{source}: unknown mode {str(name).lower()!r}; expected "
            f"{' or '.join(mode.value for mode in DuplexMode)}") from None


def _build(cls, source: str, values: dict, **extra):
    """cls from extra and the entries of values that name its fields."""
    try:
        return cls(**{f.name: values[f.name] for f in fields(cls)
                      if f.name in values}, **extra)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def parse_config(text: str, source: str = "config") -> RunConfig:
    """Parse a flat JSON config; errors carry the offending location."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{source}: top level must be a JSON object")

    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ValueError(f"{source}: unknown keys: {', '.join(unknown)}")
    for base in _DB_BASES:
        if base in raw and base + "_db" in raw:
            raise ValueError(
                f"{source}: {base} and {base}_db are mutually exclusive")
    values = {key: _json_value(key, raw[key], kind, source)
              for key, kind in _KEYS.items() if key in raw}
    for key, kind in (("grid", float), ("notes", str)):
        if key in values:
            values[key] = tuple(_json_value(f"{key}[{i}]", v, kind, source)
                                for i, v in enumerate(values[key]))
    for i, note in enumerate(values.get("notes", ())):
        if note.splitlines() not in ([], [note]):  # one '#' line each
            raise ValueError(f"{source}: notes[{i}] must be one line")
    for base in _DB_BASES:
        if base + "_db" in values:
            try:
                values[base] = db_to_linear(values.pop(base + "_db"))
            except ValueError as exc:
                raise ValueError(f"{source}: {base}_db: {exc}") from None
    if "modes" in values:
        values["modes"] = tuple(_mode(m, source) for m in values["modes"])
    if "window_half_width" in values:  # the config's name of half_width
        values["half_width"] = values.pop("window_half_width")

    params = _build(NetworkParams, source, values)
    thresholds = _build(Thresholds, source, values)
    sweep = None
    if any(f.name in values for f in fields(SweepSpec)):
        if "swept_parameter" not in values or "grid" not in values:
            raise ValueError(
                f"{source}: a sweep needs swept_parameter and grid")
        sweep = _build(SweepSpec, source, values, base_params=params,
                       base_thresholds=thresholds)
    window = _build(SimulationWindow, f"{source}: window_half_width", values)
    return _build(RunConfig, source, values, params=params,
                  thresholds=thresholds, sweep=sweep, window=window)


def _fmt(value: float) -> str:
    return repr(float(value))


def rows_to_csv(rows, notes=()) -> str:
    """Render sweep rows; notes become '#' comment lines above the header."""
    lines = [f"# {note}" for note in notes]
    lines.append(CSV_HEADER)
    for row in rows:
        mode = row.mode.value
        if row.error is not None:
            lines.append(", ".join([_fmt(row.x), mode, "error", "nan",
                                    "nan", "nan", "nan", "0", "nan"]))
            continue
        for metric, value in row.analytic.items():
            est = row.mc.get(metric)
            mc_cols = ["nan", "nan", "nan", "0"] if est is None else [
                _fmt(est.mean), _fmt(est.ci95_low), _fmt(est.ci95_high),
                str(est.n_trials)]
            lines.append(", ".join([_fmt(row.x), mode, metric, _fmt(value),
                                    *mc_cols, _fmt(row.quad_error[metric])]))
    return "\n".join(lines) + "\n"


def _validate(cfg: RunConfig, trials: int, seed: int) -> tuple[str, int]:
    """Analytic-vs-simulation consistency report, and 0 if all pass, else 2.

    The analytic side uses the serving-macro bearing law the simulator
    realizes (bearing="arc"), so the comparison stays unbiased at any
    trial count.  A proportion's z takes the standard error under the null,
    sqrt(p (1 - p) / n) at the analytic p, which stays positive when no
    trial hits; at p = 0 or 1 a line passes only if every trial agrees.
    rate_total takes its sample standard error.
    """
    lines = []

    def report(name: str, ok: bool, detail: str) -> None:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")

    th, modes = cfg.thresholds, tuple(DuplexMode)
    simulation = simulate_pass(cfg.params, modes, trials, cfg.window, seed)
    for mode in modes:
        row = evaluate_point(cfg.params, th, mode,
                             ("coverage_breakdown", "rate", "association"),
                             simulation, bearing="arc")
        for name in ("p_total", "p_smallcell_joint", "p_macro_joint",
                     "p_assoc_s", "rate_total"):
            value, est = row.analytic[name], row.mc[name]
            sigma = (est.std_error if name == "rate_total" else
                     math.sqrt(max(value * (1.0 - value), 0.0)
                               / est.n_trials))
            diff = est.mean - value
            z = (diff / sigma if sigma > 0.0
                 else 0.0 if diff == 0.0 else math.copysign(math.inf, diff))
            report(f"{mode.value} {name}", abs(z) <= 3.0,
                   f"analytic={value:.6f} mc={est.mean:.6f} z={z:+.2f}")

    first, second = (simulate_pass(cfg.params, modes, 200, cfg.window, seed)
                     for _ in range(2))
    same = all(tally_metrics(first, cfg.params, th, mode)
               == tally_metrics(second, cfg.params, th, mode)
               for mode in modes)
    report("seeded determinism", same,
           "two identically seeded runs agree" if same
           else "identically seeded runs diverged")
    failed = any(line.startswith("FAIL") for line in lines)
    return "".join(lines), 2 if failed else 0


class _CliParser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def _at_least(name: str, least: int):
    """argparse type of an integer >= least; argparse names the flag."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"{name} must be >= {least}, got {value}")
        return value
    parse.__name__ = "int"  # a non-integer: "invalid int value: 'x'"
    return parse


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="hetnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, config=True, mc=False, trials=None):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (default stdout)")
        if mc:
            # a sweep may run no trial; simulate and validate need one
            p.add_argument("--trials", default=trials,
                           type=_at_least("mc_trials", 0) if trials is None
                           else _at_least("n_trials", 1),
                           help="simulation trial count")
            p.add_argument("--seed", type=_at_least("seed", 0), default=0,
                           help="master seed for simulation draws")
            p.add_argument("--full-scale", action="store_true",
                           help="fixed station counts as in the reference "
                            "setup instead of Poisson-distributed counts")
        return p

    for name, help_text in (
            ("coverage", "single-point analytic coverage"),
            ("rate", "single-point analytic covered rate"),
            ("simulate", "Monte Carlo estimate at one point")):
        command(name, help_text, mc=name == "simulate",
                trials=20_000).add_argument(
            "--mode", default=DuplexMode.IBFD.value,
            choices=sorted(mode.value for mode in DuplexMode),
            help="duplexing mode")
    command("sweep", "run a sweep from a config file", mc=True)
    command("figure", "run a reference-figure preset sweep", config=False,
            mc=True).add_argument("figure_id", choices=list(FIGURE_IDS))
    command("validate", "analytic-vs-simulation consistency suite", mc=True,
            trials=4000)
    return parser


def _load_config(args) -> RunConfig:
    path = getattr(args, "config", None)
    if path is None:
        return parse_config("{}")
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), source=path)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_path = args.out if args.out is not None else cfg.out
    if getattr(args, "full_scale", False):
        cfg = replace(cfg, window=replace(cfg.window, fixed_count=True))
    notes = ()
    try:
        if args.command in _POINT_OUTPUTS:
            mode, simulation = DuplexMode(args.mode), None
            if args.command == "simulate":
                simulation = simulate_pass(cfg.params, (mode,), args.trials,
                                           cfg.window, args.seed)
            rows = [evaluate_point(cfg.params, cfg.thresholds, mode,
                                   _POINT_OUTPUTS[args.command], simulation)]
        elif args.command in ("sweep", "figure"):
            if args.command == "figure":
                spec = figure_preset(args.figure_id)
            elif cfg.sweep is None:
                print("error: config does not define a sweep",
                      file=sys.stderr)
                return 1
            else:
                spec = cfg.sweep
            if args.trials is not None:
                spec = replace(spec, mc_trials=args.trials)
            notes = spec.notes
            rows = run_sweep(spec, master_seed=args.seed, window=cfg.window)
        else:  # validate
            text, code = _validate(cfg, args.trials, args.seed)
            _emit(text, out_path)
            return code
        _emit(rows_to_csv(rows, notes), out_path)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2

    failed = [row for row in rows if row.error is not None]
    for row in failed:
        print(f"point x={row.x} mode={row.mode.value} failed: "
              f"{row.error}", file=sys.stderr)
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
