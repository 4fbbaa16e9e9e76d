"""One launch of the hetnet CLI, timed from inside the process.

Usage (from the repository root, with PYTHONPATH pointing at src/):

    python3 bench/child.py RESULT_JSON import-only
    python3 bench/child.py RESULT_JSON plain RUN_ID -- CLI_ARGS...
    python3 bench/child.py RESULT_JSON traced RUN_ID -- CLI_ARGS...

The first import below is what a user of the one-shot `hetnet` command
pays on every run; the parent reads its end time against the launch time
(both CLOCK_MONOTONIC, shared across processes) as setup_s.  In traced
mode, wrappers are swapped into every hetnet module namespace that holds
a layer's public function, so calls resolve to them without any change
under src/; each wrapper records one span (name, start, end, parent).
Spans stay in memory and go out with the result when the command ends.
"""
import sys
import time

import hetnet.cli  # noqa: E402  (timed as part of set-up)

T_IMPORTED = time.monotonic()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402

# (span name, defining module, function name); every namespace that holds
# the same function object gets the wrapper
LAYERS = (
    ("cli.main", "hetnet.cli", "main"),
    ("experiments.run_sweep", "hetnet.experiments", "run_sweep"),
    ("smallcell.coverage", "hetnet.analytic.smallcell",
     "coverage_smallcell_result"),
    ("smallcell.joint", "hetnet.analytic.smallcell", "evaluate_joint"),
    ("distances.outer_grid", "hetnet.analytic.distances", "outer_grid"),
    ("distances.joint_pdf", "hetnet.analytic.distances", "joint_pdf"),
    ("rates.smallcell_term", "hetnet.analytic.rates",
     "rate_smallcell_term_result"),
    ("rates.macro_term", "hetnet.analytic.rates", "rate_macro_term_result"),
    ("macro.coverage", "hetnet.analytic.macro", "coverage_macro_result"),
    ("montecarlo.estimate", "hetnet.montecarlo",
     "estimate_coverage_breakdown"),
    ("montecarlo.estimate", "hetnet.montecarlo", "estimate_rate"),
    ("montecarlo.sample_ppp", "hetnet.montecarlo", "sample_ppp"),
    ("montecarlo.evaluate_user", "hetnet.montecarlo", "evaluate_user"),
)


class Tracer:
    """In-memory span recorder for one single-threaded command."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, attrs]
        self._stack = []

    def wrap(self, name, fn):
        attrs_of = _ATTRS.get(name)
        signature = inspect.signature(fn) if name in _NEEDS_ARGUMENTS \
            else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    {}]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                arguments = None
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                span[4].update(attrs_of(arguments, out))
            return out

        return traced

    def install(self):
        """Swap wrappers in; returns the layers that were not found."""
        missing = []
        for name, module_name, attr in LAYERS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("hetnet") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return missing


def _user_attrs(arguments, sample):
    tier = getattr(sample, "associated_tier", None)
    sirs = [getattr(sample, f, math.nan) for f in ("sir_us", "sir_sm",
                                                   "sir_um")]
    cap = getattr(sys.modules["hetnet.montecarlo"], "_SIR_CAP", 1e12)
    finite = [s for s in sirs if not math.isnan(s)]
    return {"pico": tier == "pico", "sirs": len(finite),
            "capped": sum(s >= cap for s in finite)}


# span name -> attrs(bound arguments or None, return value)
_NEEDS_ARGUMENTS = ("smallcell.joint",)
_ATTRS = {
    "smallcell.joint": lambda a, out: {"level": int(a["level"])},
    "smallcell.coverage": lambda a, out: {
        "converged": bool(getattr(out, "converged", True))},
    "montecarlo.evaluate_user": _user_attrs,
}


def main(argv):
    result_path, kind = argv[0], argv[1]
    result = {"t_imported": T_IMPORTED, "hetnet_file": hetnet.cli.__file__}
    if kind != "import-only":
        run_id = argv[2]
        cli_args = argv[argv.index("--") + 1:]
        tracer = Tracer() if kind == "traced" else None
        if tracer is not None:
            result["missing_layers"] = tracer.install()
        t0, c0 = time.monotonic(), time.process_time()
        rc = hetnet.cli.main(cli_args)
        result.update(rc=rc, wall_s=time.monotonic() - t0,
                      cpu_s=time.process_time() - c0, run_id=run_id)
        if tracer is not None:
            result["spans"] = tracer.spans
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
