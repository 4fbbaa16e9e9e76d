"""hetnet benchmark runner (standard library only).

Run from the repository root:

    python3 bench/run.py --workload fig14_rate_eta --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 25 --trace 0

Each workload is a fixed list of `hetnet` CLI commands.  One closed-loop
client runs them one after another, each in a fresh interpreter with the
BLAS/OpenMP thread pools pinned to 1 and no --threads, as a user running
the one-shot CLI would (the geometry cache starts cold in every launch).
The whole command list repeats while another repetition is expected to
end within --seconds (at least once).  Import-only launches (set-up
samples) come before the first repetition and after every command
launch, so they see the same machine drift as the commands; every timing
is a median over the run's repetitions or launches.  Every CSV the CLI
writes is checked against the
reference CSVs in bench/reference/ (recorded by record_reference.py at
the seed commit); an error row, a non-zero exit or a failed check is a
failed operation.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain and
traced repetitions and reports the per-layer metrics computed from the
traced spans (see child.py), plus trace.overhead_s, the traced minus the
plain wall time.  A traced run makes at least two traced repetitions, and
their exact counts must be equal or the run is incorrect.  Nothing is
carried from one run to the next.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 means the run
completed (correct may still be false); 2 means it could not run at all.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
REFERENCE = BENCH / "reference"
CHILD_TIMEOUT_S = 150.0
SETUP_LAUNCHES = 2          # import-only launches before the first repetition
Z95 = 1.959963984540054
# an MC mean may differ from the reference mean by this many standard
# errors of the difference: a false alarm has a chance of 6e-5 per row,
# 5e-4 per simulate_2k run (8 rows); the shift it detects at 2,000 trials
# is listed in NOTES.md
MC_SIGMAS = 4.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Each command: (reference CSV stem, CLI arguments, requested MC trials);
# "{seed}" is replaced by the run's seed.  cells counts (grid point x mode)
# rows sets per repetition.
SIM_TRIALS = 2000
WORKLOADS = {
    "fig7_coverage_density": {
        "commands": [("fig7", ["figure", "fig7"], 0)],
        "cells": 20,
    },
    "fig9_coverage_threshold": {
        "commands": [("fig9", ["figure", "fig9"], 0)],
        "cells": 80,
    },
    "fig14_rate_eta": {
        "commands": [("fig14", ["figure", "fig14"], 0)],
        "cells": 7,
    },
    "simulate_2k": {
        "commands": [
            (f"simulate_{mode}",
             ["simulate", "--trials", str(SIM_TRIALS), "--seed", "{seed}",
              "--mode", mode], SIM_TRIALS)
            for mode in ("ibfd", "fdd")],
        "cells": 2,
    },
}

END_TO_END = ("wall_s", "setup_s", "cells_per_s", "peak_rss_mb")
UNITS = {"wall_s": "s", "setup_s": "s", "cells_per_s": "1/s",
         "peak_rss_mb": "MB", "trials_per_s": "1/s"}

# per-layer metric -> unit; order follows the layers outside in
PER_LAYER = {
    "cli.main.self_s": "s",
    "experiments.run_sweep.self_s": "s",
    "smallcell.coverage.calls": "count",
    "smallcell.coverage.s": "s",
    "smallcell.coverage.calls_per_command": "count",
    "smallcell.coverage.escalations": "count",
    "smallcell.coverage.nonconverged": "count",
    "rates.smallcell_term.s": "s",
    "rates.smallcell_term.joint_calls_per_term": "count",
    "rates.macro_term.s": "s",
    "rates.macro_term.macro_calls_per_term": "count",
    "macro.coverage.calls": "count",
    "macro.coverage.s": "s",
    "smallcell.joint.calls.L3": "count",
    "smallcell.joint.calls.L6": "count",
    "smallcell.joint.calls.L10": "count",
    "smallcell.joint.s.L3": "s",
    "smallcell.joint.s.L6": "s",
    "smallcell.joint.s.L10": "s",
    "smallcell.joint.cold_calls": "count",
    "smallcell.joint.cold_s": "s",
    "smallcell.joint.warm_ms_per_call": "ms",
    "distances.outer_grid.calls": "count",
    "distances.outer_grid.s": "s",
    "distances.joint_pdf.s": "s",
    "montecarlo.estimate.self_s": "s",
    "montecarlo.sample_ppp.calls": "count",
    "montecarlo.sample_ppp.s": "s",
    "montecarlo.evaluate_user.calls": "count",
    "montecarlo.evaluate_user.s": "s",
    "montecarlo.evaluate_user.us_per_call": "us",
    "montecarlo.useful_trial_ratio": "ratio",
    "montecarlo.pico_share": "ratio",
    "montecarlo.sir_cap_share": "ratio",
    "trace.overhead_s": "s",
}
# counts that must repeat exactly from one traced run to the next
EXACT = (
    "smallcell.coverage.calls", "smallcell.coverage.calls_per_command",
    "smallcell.coverage.escalations", "smallcell.coverage.nonconverged",
    "rates.smallcell_term.joint_calls_per_term",
    "rates.macro_term.macro_calls_per_term", "macro.coverage.calls",
    "smallcell.joint.calls.L3", "smallcell.joint.calls.L6",
    "smallcell.joint.calls.L10", "smallcell.joint.cold_calls",
    "distances.outer_grid.calls", "montecarlo.sample_ppp.calls",
    "montecarlo.evaluate_user.calls", "montecarlo.useful_trial_ratio",
)


# --------------------------------------------------------------------------
# launching

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("HETNET_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(kind: str, cli_args=(), run_id: str = "") -> dict:
    """Run child.py once; returns its result with setup_s added."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"child-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(result_path), kind]
    if kind != "import-only":
        argv += [run_id, "--", *cli_args]
    t_spawn = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"launch {cli_args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result_path.unlink()
    if not Path(result["hetnet_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported hetnet from {result['hetnet_file']}, "
                           f"not from {ROOT / 'src'}")
    result["setup_s"] = result["t_imported"] - t_spawn
    result["stderr"] = proc.stderr
    return result


def environment(seed: int) -> dict:
    probe = (
        "import json, platform, numpy, scipy; print(json.dumps({"
        "'python': platform.python_version(), 'numpy': numpy.__version__, "
        "'scipy': scipy.__version__}))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    env = json.loads(proc.stdout)
    env.update(nproc=os.cpu_count(), machine=platform.machine(), seed=seed,
               threads={var: child_env()[var] for var in THREAD_VARS})
    return env


# --------------------------------------------------------------------------
# correctness gate

def read_csv(text: str):
    """(header, {(x, mode, metric): row dict}, duplicate keys)."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        return None, {}, []
    header = lines[0]
    names = [h.strip() for h in header.split(",")]
    rows, dups = {}, []
    for line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        row = dict(zip(names, cells))
        key = (row.get("x"), row.get("mode"), row.get("metric"))
        if key in rows:
            dups.append(key)
        rows[key] = row
    return header, rows, dups


def _num(row: dict, name: str) -> float:
    try:
        return float(row[name])
    except (KeyError, ValueError):
        return math.nan


def _se(row: dict) -> float:
    return (_num(row, "mc_ci95_high") - _num(row, "mc_ci95_low")) / (2 * Z95)


def check_row(row: dict, ref: dict, trials: int, covered: float) -> list:
    """Problems with one output row against its reference row."""
    problems = []
    value, expected = _num(row, "analytic"), _num(ref, "analytic")
    quad_error = _num(ref, "quad_error")
    tol = max(quad_error if math.isfinite(quad_error) else 0.0,
              1e-12 * max(1.0, abs(expected)))
    if math.isnan(expected) != math.isnan(value) or \
            (not math.isnan(expected) and not abs(value - expected) <= tol):
        problems.append(f"analytic {value!r} vs reference {expected!r} "
                        f"(tolerance {tol:.3g})")
    n_ref = _num(ref, "n_trials")
    n_run = _num(row, "n_trials")
    mean, mean_ref = _num(row, "mc_mean"), _num(ref, "mc_mean")
    if n_ref == 0:
        if n_run != 0 or not math.isnan(mean):
            problems.append(f"unexpected simulation columns ({n_run!r})")
        return problems
    # coverage rows count every trial; the conditional rate counts the
    # covered ones, which is the same sample's p_total hit count
    want = trials if row["metric"].startswith("p_") else covered
    if n_run != want:
        problems.append(f"n_trials {n_run!r}, expected {want!r}")
    low, high = _num(row, "mc_ci95_low"), _num(row, "mc_ci95_high")
    if not low <= mean <= high:
        problems.append(f"mc_mean {mean!r} outside its own CI "
                        f"[{low!r}, {high!r}]")
    band = MC_SIGMAS * math.hypot(_se(row), _se(ref))
    if not abs(mean - mean_ref) <= band:
        problems.append(f"mc_mean {mean!r} vs reference {mean_ref!r} "
                        f"(band {band:.3g})")
    return problems


def check_csv(text: str, ref_text: str, trials: int):
    """(rows attempted, rows failed, messages) for one CLI output."""
    ref_header, ref_rows, _ = read_csv(ref_text)
    header, rows, dups = read_csv(text)
    extra = [key for key in rows if key not in ref_rows]
    attempted = len(ref_rows) + len(extra)
    if header != ref_header:
        return attempted, attempted, [f"header {header!r} != {ref_header!r}"]
    messages = [f"duplicate row {key}" for key in dups]
    messages += [f"unexpected row {key}" for key in extra]
    failed = len(dups) + len(extra)
    for key, ref in ref_rows.items():
        row = rows.get(key)
        if row is None:
            problems = ["missing row"]
        else:
            total = rows.get((key[0], key[1], "p_total"), {})
            covered = round(_num(total, "mc_mean") * trials) \
                if math.isfinite(_num(total, "mc_mean")) else math.nan
            problems = check_row(row, ref, trials, covered)
        failed += bool(problems)
        messages += [f"{key}: {problem}" for problem in problems]
    return attempted, min(failed, attempted), messages


# --------------------------------------------------------------------------
# per-layer metrics from spans

def _self_time(span, children, spans) -> float:
    """Span duration minus the union of its children's intervals."""
    start, end = span[1], span[2]
    covered, cursor = 0.0, start
    for c in sorted((spans[i] for i in children), key=lambda s: s[1]):
        lo, hi = max(c[1], cursor), min(c[2], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def layer_metrics(commands: list, trials: int) -> dict:
    """Per-layer metrics from the span lists of one traced repetition."""
    m = {name: 0 if unit == "count" else 0.0
         for name, unit in PER_LAYER.items()}
    n_main = n_cov = n_user = n_pico = n_sirs = n_capped = 0
    n_joint_warm = n_st = n_mt = st_joint = mt_macro = 0
    warm_s = 0.0
    for spans in commands:
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(i)

        def below(i, name):
            stack, found = list(children[i]), []
            while stack:
                j = stack.pop()
                if spans[j][0] == name:
                    found.append(j)
                stack.extend(children[j])
            return found

        for i, (name, start, end, _, attrs) in enumerate(spans):
            dur = end - start
            if name == "cli.main":
                n_main += 1
                m["cli.main.self_s"] += _self_time(spans[i], children[i],
                                                   spans)
            elif name == "experiments.run_sweep":
                m["experiments.run_sweep.self_s"] += _self_time(
                    spans[i], children[i], spans)
            elif name == "montecarlo.estimate":
                m["montecarlo.estimate.self_s"] += _self_time(
                    spans[i], children[i], spans)
            elif name == "smallcell.coverage":
                n_cov += 1
                m["smallcell.coverage.s"] += dur
                levels = {spans[j][4].get("level")
                          for j in below(i, "smallcell.joint")}
                m["smallcell.coverage.escalations"] += 10 in levels
                m["smallcell.coverage.nonconverged"] += \
                    attrs.get("converged") is False
            elif name == "smallcell.joint":
                level = attrs.get("level")
                if level in (3, 6, 10):
                    m[f"smallcell.joint.calls.L{level}"] += 1
                    m[f"smallcell.joint.s.L{level}"] += dur
                if below(i, "distances.outer_grid"):
                    m["smallcell.joint.cold_calls"] += 1
                    m["smallcell.joint.cold_s"] += dur
                else:
                    n_joint_warm += 1
                    warm_s += dur
            elif name == "rates.smallcell_term":
                n_st += 1
                m["rates.smallcell_term.s"] += dur
                st_joint += len(below(i, "smallcell.joint"))
            elif name == "rates.macro_term":
                n_mt += 1
                m["rates.macro_term.s"] += dur
                mt_macro += len(below(i, "macro.coverage"))
            elif name == "macro.coverage":
                m["macro.coverage.calls"] += 1
                m["macro.coverage.s"] += dur
            elif name == "distances.outer_grid":
                m["distances.outer_grid.calls"] += 1
                m["distances.outer_grid.s"] += dur
            elif name == "distances.joint_pdf":
                m["distances.joint_pdf.s"] += dur
            elif name == "montecarlo.sample_ppp":
                m["montecarlo.sample_ppp.calls"] += 1
                m["montecarlo.sample_ppp.s"] += dur
            elif name == "montecarlo.evaluate_user":
                n_user += 1
                m["montecarlo.evaluate_user.s"] += dur
                n_pico += bool(attrs.get("pico"))
                n_sirs += attrs.get("sirs", 0)
                n_capped += attrs.get("capped", 0)
    m["smallcell.coverage.calls"] = n_cov
    m["smallcell.coverage.calls_per_command"] = n_cov / max(n_main, 1)
    m["rates.smallcell_term.joint_calls_per_term"] = st_joint / max(n_st, 1)
    m["rates.macro_term.macro_calls_per_term"] = mt_macro / max(n_mt, 1)
    m["smallcell.joint.warm_ms_per_call"] = \
        1e3 * warm_s / max(n_joint_warm, 1)
    m["montecarlo.evaluate_user.calls"] = n_user
    m["montecarlo.evaluate_user.us_per_call"] = \
        1e6 * m["montecarlo.evaluate_user.s"] / max(n_user, 1)
    # ratios are 0 where the workload evaluates no trials
    m["montecarlo.useful_trial_ratio"] = trials / n_user if n_user else 0.0
    m["montecarlo.pico_share"] = n_pico / max(n_user, 1)
    m["montecarlo.sir_cap_share"] = n_capped / max(n_sirs, 1)
    return m


# --------------------------------------------------------------------------
# one workload

def run_repetition(name: str, seed: int, traced: bool, tally: dict) -> dict:
    """All commands of a workload once; checks every output."""
    spec = WORKLOADS[name]
    run_id = f"{name}-s{seed}-{os.getpid()}-{time.time_ns()}"
    rep = {"wall_s": 0.0, "peak_rss_mb": 0.0, "setup": [], "spans": [],
           "trials": 0, "run_id": run_id, "ok": True}
    for index, (stem, template, trials) in enumerate(spec["commands"]):
        out_csv = OUT / f"{name}-{index}.csv"
        out_csv.unlink(missing_ok=True)
        args = [a.replace("{seed}", str(seed)) for a in template]
        args += ["--out", str(out_csv)]
        ref_text = (REFERENCE / f"{stem}.csv").read_text(encoding="utf-8")
        try:
            res = launch("traced" if traced else "plain", args, run_id)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            n_ref = len(read_csv(ref_text)[1])
            tally["attempted"] += n_ref
            tally["failed"] += n_ref
            tally["problems"].append(f"{stem}: {exc}")
            rep["ok"] = False
            continue
        rep["wall_s"] += res["wall_s"]
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], res["peak_rss_mb"])
        rep["setup"].append(res["setup_s"])
        rep["spans"].append(res.get("spans", []))
        for layer in res.get("missing_layers", []):
            print(f"# warning: {layer} not found; its per-layer metrics "
                  f"read 0", file=sys.stderr)
        rep["trials"] += trials
        text = out_csv.read_text(encoding="utf-8") \
            if out_csv.exists() else ""
        attempted, failed, messages = check_csv(text, ref_text, trials)
        if res["rc"] != 0:
            failed = attempted
            messages.append(f"exit code {res['rc']}: "
                            f"{res['stderr'].strip()[-500:]}")
        tally["attempted"] += attempted
        tally["failed"] += failed
        tally["problems"] += [f"{stem}: {msg}" for msg in messages]
        rep["setup"].append(launch("import-only")["setup_s"])
    return rep


def check_repeat(layers: list, tally: dict) -> None:
    """Exact counts of every traced repetition must equal the first's."""
    for index, layer in enumerate(layers[1:], start=2):
        for key in EXACT:
            if layer[key] != layers[0][key]:
                tally["problems"].append(
                    f"count {key} = {layer[key]!r} in traced repetition "
                    f"{index}, {layers[0][key]!r} in the first")


def write_spans(name: str, rep: dict) -> None:
    with open(OUT / f"trace-{name}.jsonl", "w", encoding="utf-8") as fh:
        for command, spans in enumerate(rep["spans"]):
            for index, (span, start, end, parent, attrs) in \
                    enumerate(spans):
                fh.write(json.dumps({
                    "run": rep["run_id"], "command": command, "id": index,
                    "parent": parent, "name": span, "start": start,
                    "end": end, "attrs": attrs}) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    tally = {"attempted": 0, "failed": 0, "problems": []}
    launch("import-only")                        # warm the file cache
    setup = [launch("import-only")["setup_s"] for _ in range(SETUP_LAUNCHES)]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_repetition(name, seed, False, tally))
        if trace:
            traced.append(run_repetition(name, seed, True, tally))
        elapsed = time.monotonic() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break                                # the next one would overrun
    while trace and len(traced) < 2:             # for the repeat check
        traced.append(run_repetition(name, seed, True, tally))
    for rep in plain + traced:
        setup += rep["setup"]
    # a repetition with a crashed launch is already counted as failed;
    # if every one crashed, the timings read 0 next to correct: false
    plain = [rep for rep in plain if rep["ok"]] or [
        {"wall_s": math.inf, "peak_rss_mb": 0.0, "trials": 0}]
    traced = [rep for rep in traced if rep["ok"]]
    walls = [rep["wall_s"] for rep in plain]
    wall = statistics.median(walls)
    result = {
        "wall_s": wall if math.isfinite(wall) else 0.0,
        "setup_s": statistics.median(setup),
        "cells_per_s": spec["cells"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "trials_per_s": plain[0]["trials"] / wall,
    }
    details = {"plain_walls": walls, "setup_samples": setup}
    if trace:
        layers = [layer_metrics(rep["spans"], rep["trials"])
                  for rep in traced] or [layer_metrics([], 0)]
        per_layer = {key: statistics.median(l[key] for l in layers)
                     for key in PER_LAYER}
        check_repeat(layers, tally)
        if traced and math.isfinite(wall):
            per_layer["trace.overhead_s"] = statistics.median(
                rep["wall_s"] for rep in traced) - wall
            write_spans(name, traced[-1])
        result["per_layer"] = per_layer
        details["traced_walls"] = [rep["wall_s"] for rep in traced]
    result.update(tally=tally, details=details)
    return result


# --------------------------------------------------------------------------
# command line

def _metric_block(values: dict, units: dict) -> dict:
    return {key: {"value": values[key], "unit": units[key]} for key in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hetnet" / "cli.py").is_file():
        print(f"error: no hetnet sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        tally = res["tally"]
        for problem in tally["problems"][:20]:
            print(f"# {name} FAIL {problem}", file=sys.stderr)
        correct &= not tally["problems"]
        attempted += tally["attempted"]
        failed += tally["failed"]
        line = "  ".join(f"{key}={res[key]:.4g} {UNITS[key]}"
                         for key in (*END_TO_END, "trials_per_s")
                         if key != "trials_per_s" or res[key] > 0)
        print(f"# {name}: {line}  rows={tally['attempted']} "
              f"failed={tally['failed']}")
        if args.trace:
            block = _metric_block(res["per_layer"], PER_LAYER)
            for key, item in block.items():
                print(f"#   {key} = {item['value']:.6g} {item['unit']}")
        else:
            block = _metric_block(res, {k: UNITS[k] for k in END_TO_END})
        if args.workload == "all":
            block = {f"{name}.{k}": v for k, v in block.items()}
        metrics.update(block)
        record = {"workload": name, "env": env, "trace": args.trace,
                  "seconds": args.seconds, "metrics": block,
                  "details": res["details"], "tally": tally}
        (OUT / f"result-{name}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
