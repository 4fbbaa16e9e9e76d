"""Fast self-test of the benchmark harness (about 25 s).

Run from the repository root:

    python3 bench/selftest.py

It runs a tiny simulate command (FDD) through the real launch, trace and
gate path: twice with 40 trials, then once with 60, whose counts differ
and must still pass.  It checks that every end-to-end and per-layer
metric is emitted, that the exact counts repeat and that a count changed
inside one run trips the repeat check.  It checks that the correctness
gate trips on deliberately perturbed CSVs; the MC gate is checked on the
reference rows rescaled to the standard errors of a 2,000-trial run, and
the smallest shift each row detects is printed.  Exit code 0 means every
check passed.
"""
import math
import sys

import run

TINY = "selftest_simulate_fdd"
TINY_TRIALS = 40
OTHER_TRIALS = 60     # a second tiny run whose counts differ
failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def perturb(text: str, metric: str, column: str, new) -> str:
    """Replace one column of the first data row with the given metric."""
    lines = text.splitlines()
    names = [h.strip() for h in lines[0].split(",")]
    for i, line in enumerate(lines[1:], start=1):
        cells = [c.strip() for c in line.split(",")]
        if cells[2] == metric:
            row = dict(zip(names, cells))
            cells[names.index(column)] = str(new(row))
            lines[i] = ", ".join(cells)
            break
    return "\n".join(lines) + "\n"


def gate_checks() -> None:
    fig = (run.REFERENCE / "fig7.csv").read_text(encoding="utf-8")
    sim = (run.REFERENCE / "simulate_ibfd.csv").read_text(encoding="utf-8")
    n_fig = len(run.read_csv(fig)[1])
    check(run.check_csv(fig, fig, 0) == (n_fig, 0, []),
          "gate passes the reference figure CSV against itself")
    trials = int(run.read_csv(sim)[1][("nan", "ibfd", "p_total")]
                 ["n_trials"])
    check(run.check_csv(sim, sim, trials)[1] == 0,
          "gate passes the reference simulate CSV against itself")

    def trips(text, ref, n, what):
        attempted, failed, messages = run.check_csv(text, ref, n)
        check(failed >= 1 and attempted >= failed,
              f"gate trips on {what} ({failed} of {attempted} rows)")

    lines = fig.splitlines()
    trips(perturb(fig, "p_smallcell_joint", "analytic",
                  lambda r: float(r["analytic"]) + 10 * float(r["quad_error"])
                  + 1e-9), fig, 0, "an analytic value beyond quad_error")
    trips("\n".join(lines[:-1]) + "\n", fig, 0, "a missing row")
    trips(fig + "21.0, ibfd, p_total, 0.1, nan, nan, nan, 0, 1e-06\n",
          fig, 0, "an extra row")
    trips(fig.replace("p_macro_joint", "error", 1), fig, 0, "an error row")
    trips(fig.replace("quad_error", "quad_err", 1), fig, 0,
          "a changed header")
    trips(perturb(sim, "p_total", "n_trials", lambda r: trials - 1), sim,
          trials, "n_trials off by one")
    for stem in ("simulate_ibfd", "simulate_fdd"):
        mc_shift_checks(stem)


def as_run(ref_text: str, trials: int) -> str:
    """The reference with the n_trials and CI width of a `trials` run."""
    _, rows, _ = run.read_csv(ref_text)
    p_total = next(float(r["mc_mean"]) for k, r in rows.items()
                   if k[2] == "p_total")
    text = ref_text
    for (_, _, metric), row in rows.items():
        n_ref = float(row["n_trials"])
        if not n_ref:
            continue
        n_run = trials if metric.startswith("p_") else round(p_total * trials)
        half = run.Z95 * run._se(row) * math.sqrt(n_ref / n_run)
        mean = float(row["mc_mean"])
        for column, value in (("mc_ci95_low", mean - half),
                              ("mc_ci95_high", mean + half),
                              ("n_trials", n_run)):
            text = perturb(text, metric, column, lambda r, v=value: v)
    return text


def mc_shift_checks(stem: str) -> None:
    """At 2,000 trials no shift passes; one just past the band trips."""
    trials = run.SIM_TRIALS
    ref = (run.REFERENCE / f"{stem}.csv").read_text(encoding="utf-8")
    text = as_run(ref, trials)
    check(run.check_csv(text, ref, trials)[1] == 0,
          f"{stem}: an unshifted {trials}-trial run passes")
    _, rows, _ = run.read_csv(text)
    _, ref_rows, _ = run.read_csv(ref)
    for key, row in rows.items():
        if not float(row["n_trials"]):
            continue
        band = run.MC_SIGMAS * math.hypot(run._se(row), run._se(ref_rows[key]))
        shifted = text
        for column in ("mc_mean", "mc_ci95_low", "mc_ci95_high"):
            shifted = perturb(shifted, key[2], column,
                              lambda r, c=column: float(r[c]) + 1.01 * band)
        failed = run.check_csv(shifted, ref, trials)[1]
        mean = float(row["mc_mean"])
        check(failed >= 1, f"{stem} {key[2]}: a shift of {band:.4f} "
                           f"({band / mean:.0%} of {mean:.3f}) trips the "
                           f"gate at {row['n_trials']} trials")


def tiny_workload(trials: int) -> int:
    run.WORKLOADS[TINY] = {
        "commands": [("simulate_fdd",
                      ["simulate", "--trials", str(trials), "--seed",
                       "{seed}", "--mode", "fdd"], trials)],
        "cells": 1,
    }
    return trials


def harness_checks() -> None:
    tiny_workload(TINY_TRIALS)
    try:
        results = [run.run_workload(TINY, seed, 0.0, True)
                   for seed in (1, 2)]
        # changed code changes the counts; with nothing carried over from
        # an earlier run, that must not make the new run incorrect
        other = tiny_workload(OTHER_TRIALS)
        results.append(run.run_workload(TINY, 1, 0.0, True))
    finally:
        (run.OUT / f"trace-{TINY}.jsonl").unlink(missing_ok=True)
        (run.OUT / f"{TINY}-0.csv").unlink(missing_ok=True)
    check(results[2]["per_layer"]["montecarlo.evaluate_user.calls"]
          == 2 * other, "the last tiny run evaluates other counts")
    for res in results:
        tally = res["tally"]
        check(tally["failed"] == 0 and tally["attempted"] > 0
              and not tally["problems"],
              f"tiny run correct ({tally['attempted']} rows, "
              f"problems {tally['problems'][:3]})")
        check(all(res[k] > 0 for k in run.END_TO_END),
              "every end-to-end metric is emitted and positive")
        check(set(res["per_layer"]) == set(run.PER_LAYER),
              "every per-layer metric is emitted")
    layer = results[0]["per_layer"]
    expected = {
        "montecarlo.evaluate_user.calls": 2 * TINY_TRIALS,
        "montecarlo.sample_ppp.calls": 4 * TINY_TRIALS,
        "montecarlo.useful_trial_ratio": 0.5,
        "smallcell.coverage.calls_per_command": 2,
        "smallcell.joint.cold_calls": 2,
        "distances.outer_grid.calls": 2,
    }
    for key, value in expected.items():
        check(layer[key] == value, f"{key} = {layer[key]!r} "
                                   f"(expected {value!r})")
    check(0 < layer["montecarlo.pico_share"] < 1,
          "pico_share read from the returned samples")
    check(all(results[1]["per_layer"][k] == layer[k] for k in run.EXACT),
          "exact counts repeat across two traced runs")

    # a count that changes between the repetitions of one run trips it
    tally = {"problems": []}
    tampered = dict(layer, **{"montecarlo.evaluate_user.calls": 1})
    run.check_repeat([layer, layer], tally)
    check(not tally["problems"], "repeat check passes equal counts")
    run.check_repeat([layer, layer, tampered], tally)
    check(len(tally["problems"]) == 1,
          "repeat check trips on a changed count")


def main() -> int:
    if not (run.ROOT / "src" / "hetnet" / "cli.py").is_file():
        print("error: run from a checkout with src/hetnet", file=sys.stderr)
        return 2
    gate_checks()
    harness_checks()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
