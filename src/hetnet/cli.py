"""Command-line front end: JSON config in, schema-stable CSV out.

Configs are flat JSON objects.  Every model field is accepted under its
linear name (P_m, B_s, T_s, ...) or, for power-like quantities, with a
`_db` suffix holding power decibels (10*log10, so 20 dB = 100 linear);
the two spellings of one field are mutually exclusive and unknown keys
are rejected.  A config may also define a sweep (swept_parameter, grid,
modes, outputs, mc_trials, notes), simulation window settings
(window_half_width, wrap, fixed_count), quadrature tolerance overrides
(quad_abs_tol, quad_rel_tol; applied to the coverage integrals of every
command that reads a config), and a default output path (out).

Every command evaluates a point through experiments.evaluate_point, so a
reported value whose integral missed its tolerance is never printed: the
single-point commands and validate stop with exit code 2, and a sweep
keeps an error marker row for that point.

Exit codes: 0 success, 1 input error, 2 numerical non-convergence
(including sweep points that recorded an error marker).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

from .core import DuplexMode, NetworkParams, Thresholds
from .experiments import (
    FIGURE_IDS,
    SweepSpec,
    _db_to_linear,
    evaluate_point,
    figure_preset,
    run_sweep,
)
from .montecarlo import SimulationWindow, estimate_metrics
from .numerics import NonConvergenceError, QuadratureSpec

__all__ = [
    "CSV_HEADER",
    "RunConfig",
    "main",
    "parse_config",
    "rows_to_csv",
]

CSV_HEADER = ("x, mode, metric, analytic, mc_mean, mc_ci95_low, "
              "mc_ci95_high, n_trials, quad_error")

_PARAM_KEYS = tuple(f.name for f in fields(NetworkParams))
_THRESHOLD_KEYS = tuple(f.name for f in fields(Thresholds))
# power-like quantities that admit decibel entry
_DB_BASES = ("P_m", "P_s", "B_m", "B_s", "beta") + _THRESHOLD_KEYS
_SWEEP_KEYS = ("swept_parameter", "grid", "modes", "outputs", "mc_trials",
               "notes")
_MC_KEYS = ("window_half_width", "wrap", "fixed_count")
_QUAD_KEYS = ("quad_abs_tol", "quad_rel_tol")
_MODES = {"ibfd": DuplexMode.IBFD, "fdd": DuplexMode.FDD}
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
    fixed_count: bool = False
    quad_spec: Optional[QuadratureSpec] = None
    out: Optional[str] = None


def parse_config(text: str, source: str = "config") -> RunConfig:
    """Parse a flat JSON config; errors carry the offending location."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{source}: top level must be a JSON object")

    allowed = set(_PARAM_KEYS) | set(_THRESHOLD_KEYS) \
        | {b + "_db" for b in _DB_BASES} | set(_SWEEP_KEYS) \
        | set(_MC_KEYS) | set(_QUAD_KEYS) | {"out"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ValueError(f"{source}: unknown keys: {', '.join(unknown)}")
    for base in _DB_BASES:
        if base in raw and base + "_db" in raw:
            raise ValueError(
                f"{source}: {base} and {base}_db are mutually exclusive")

    def scalar_fields(names):
        values = {}
        for name in names:
            if name in raw:
                values[name] = raw[name]
            elif name + "_db" in raw:
                values[name] = _db_to_linear(float(raw[name + "_db"]))
        return values

    params = NetworkParams(**scalar_fields(_PARAM_KEYS))
    # captioned default thresholds (-10 dB) when the config is silent
    threshold_values = {"T_s": 0.1, "T_b": 0.1, "T_m": 0.1}
    threshold_values.update(scalar_fields(_THRESHOLD_KEYS))
    thresholds = Thresholds(**threshold_values)

    sweep = None
    if any(k in raw for k in _SWEEP_KEYS):
        if "swept_parameter" not in raw or "grid" not in raw:
            raise ValueError(
                f"{source}: a sweep needs swept_parameter and grid")
        mode_names = raw.get("modes", ["ibfd"])
        try:
            modes = tuple(_MODES[str(m).lower()] for m in mode_names)
        except KeyError as exc:
            raise ValueError(
                f"{source}: unknown mode {exc.args[0]!r}; expected "
                f"ibfd or fdd") from exc
        sweep = SweepSpec(
            swept_parameter=raw["swept_parameter"],
            grid=tuple(float(v) for v in raw["grid"]),
            base_params=params,
            base_thresholds=thresholds,
            modes=modes,
            outputs=tuple(raw.get("outputs", ("coverage_total",))),
            mc_trials=int(raw.get("mc_trials", 0)),
            notes=tuple(raw.get("notes", ())),
        )

    window = SimulationWindow(
        half_width=float(raw.get("window_half_width", 30.0)),
        wrap=bool(raw.get("wrap", False)))
    quad_spec = None
    if any(k in raw for k in _QUAD_KEYS):
        quad_spec = QuadratureSpec(
            abs_tol=float(raw.get("quad_abs_tol", 1e-7)),
            rel_tol=float(raw.get("quad_rel_tol", 1e-5)))
    return RunConfig(params=params, thresholds=thresholds, sweep=sweep,
                     window=window,
                     fixed_count=bool(raw.get("fixed_count", False)),
                     quad_spec=quad_spec, out=raw.get("out"))


def _fmt(value: float) -> str:
    return repr(float(value))


def rows_to_csv(rows, notes=()) -> str:
    """Render sweep rows; notes become '#' comment lines above the header."""
    lines = [f"# {note}" for note in notes]
    lines.append(CSV_HEADER)
    for row in rows:
        mode = row.mode.name.lower()
        if row.error is not None:
            lines.append(", ".join([_fmt(row.x), mode, "error", "nan",
                                    "nan", "nan", "nan", "0", "nan"]))
            continue
        for metric, value in row.analytic.items():
            est = row.mc.get(metric)
            mc_cols = ["nan", "nan", "nan", "0"] if est is None else [
                _fmt(est.mean), _fmt(est.ci95_low), _fmt(est.ci95_high),
                str(est.n_trials)]
            qe = row.quad_error.get(metric, math.nan)
            lines.append(", ".join([_fmt(row.x), mode, metric, _fmt(value),
                                    *mc_cols, _fmt(qe)]))
    return "\n".join(lines) + "\n"


def _validate(cfg: RunConfig, trials: int, seed: int, fixed_count: bool,
              stream) -> int:
    """Analytic-vs-simulation consistency checks; 0 if all pass, else 2.

    The analytic side uses the serving-macro bearing law the simulator
    realizes (bearing="arc"), so the comparison stays unbiased at any
    trial count.
    """
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", file=stream)

    if trials < 1:  # evaluate_point simulates only when trials > 0
        raise ValueError("n_trials must be >= 1")
    th = cfg.thresholds
    for mode_name, mode in _MODES.items():
        row = evaluate_point(cfg.params, th, mode,
                             ("coverage_breakdown", "rate", "association"),
                             trials=trials, seed=seed, window=cfg.window,
                             fixed_count=fixed_count,
                             quad_spec=cfg.quad_spec, bearing="arc")
        for name in ("p_total", "p_smallcell_joint", "p_macro_joint",
                     "p_assoc_s", "rate_total"):
            value, est = row.analytic[name], row.mc[name]
            sigma = max(est.std_error, 1e-9)
            z = (est.mean - value) / sigma
            report(f"{mode_name} {name}", abs(z) <= 3.0,
                   f"analytic={value:.6f} mc={est.mean:.6f} z={z:+.2f}")

    first = estimate_metrics(cfg.params, th, DuplexMode.IBFD, n_trials=200,
                             window=cfg.window, master_seed=seed)
    second = estimate_metrics(cfg.params, th, DuplexMode.IBFD, n_trials=200,
                              window=cfg.window, master_seed=seed)
    report("seeded determinism", first == second,
           "two identically seeded runs agree" if first == second
           else "identically seeded runs diverged")
    return 2 if failures else 0


class _CliParser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="hetnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, mc=False):
        if config:
            p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--mode", default="ibfd", choices=sorted(_MODES),
                       help="duplexing mode for single-point commands")
        if mc:
            p.add_argument("--trials", type=int, default=None,
                           help="simulation trial count")
            p.add_argument("--seed", type=int, default=0,
                           help="master seed for simulation draws")
            p.add_argument("--full-scale", action="store_true",
                           help="fixed station counts as in the reference "
                            "setup instead of Poisson-distributed counts")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default HETNET_THREADS or 1)")

    common(sub.add_parser("coverage", help="single-point analytic coverage"))
    common(sub.add_parser("rate", help="single-point analytic covered rate"))
    common(sub.add_parser("simulate",
                          help="Monte Carlo estimate at one point"),
           mc=True)
    sweep_p = sub.add_parser("sweep", help="run a sweep from a config file")
    common(sweep_p, mc=True)
    figure_p = sub.add_parser(
        "figure", help="run a reference-figure preset sweep")
    figure_p.add_argument("figure_id", choices=list(FIGURE_IDS))
    common(figure_p, config=False, mc=True)
    validate_p = sub.add_parser(
        "validate", help="analytic-vs-simulation consistency suite")
    common(validate_p, mc=True)
    return parser


def _load_config(args) -> RunConfig:
    path = getattr(args, "config", None)
    if path is None:
        return RunConfig(params=NetworkParams(),
                         thresholds=Thresholds(T_s=0.1, T_b=0.1, T_m=0.1))
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

    threads = args.threads if args.threads is not None \
        else int(os.environ.get("HETNET_THREADS", "1"))
    out_path = args.out if args.out is not None else cfg.out
    fixed_count = cfg.fixed_count or getattr(args, "full_scale", False)
    notes = ()
    try:
        if args.command in _POINT_OUTPUTS:
            trials = 0
            if args.command == "simulate":
                trials = args.trials if args.trials is not None else 20_000
            rows = [evaluate_point(
                cfg.params, cfg.thresholds, _MODES[args.mode],
                _POINT_OUTPUTS[args.command], trials=trials,
                seed=getattr(args, "seed", 0), window=cfg.window,
                fixed_count=fixed_count, quad_spec=cfg.quad_spec)]
        elif args.command == "sweep":
            if cfg.sweep is None:
                print("error: config does not define a sweep",
                      file=sys.stderr)
                return 1
            spec = cfg.sweep
            if args.trials is not None:
                spec = replace(spec, mc_trials=args.trials)
            notes = spec.notes
            rows = run_sweep(spec, master_seed=args.seed, threads=threads,
                             window=cfg.window, fixed_count=fixed_count,
                             quad_spec=cfg.quad_spec)
        elif args.command == "figure":
            spec = figure_preset(args.figure_id)
            if args.trials is not None:
                spec = replace(spec, mc_trials=args.trials)
            notes = spec.notes
            rows = run_sweep(spec, master_seed=args.seed, threads=threads,
                             fixed_count=fixed_count)
        else:  # validate
            trials = args.trials if args.trials is not None else 4000
            stream = sys.stdout if out_path is None \
                else open(out_path, "w", encoding="utf-8")
            try:
                return _validate(cfg, trials, args.seed, fixed_count, stream)
            finally:
                if stream is not sys.stdout:
                    stream.close()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2

    _emit(rows_to_csv(rows, notes), out_path)
    failed = [row for row in rows if row.error is not None]
    for row in failed:
        print(f"point x={row.x} mode={row.mode.name.lower()} failed: "
              f"{row.error}", file=sys.stderr)
    return 2 if failed else 0
