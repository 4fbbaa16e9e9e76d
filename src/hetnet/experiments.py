"""Parameter sweeps and figure presets emitting tabular analytic/MC data.

A sweep varies one scalar knob over a sorted grid and evaluates the
requested outputs at every grid point for every duplexing mode, pairing
each analytic value with an optional simulation estimate.  Points are
independent, so they can be dispatched to a thread pool; row order always
follows the grid regardless of completion order.  Each point goes
through evaluate_point, which the single-point CLI commands call too.

Swept-parameter units follow the figure axes: B_s and beta grids are in
power dB (converted to linear before evaluation), all other grids are in
natural units (thresholds linear, densities as the pico-per-macro ratio).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .analytic import (
    association_probability,
    coverage_macro_result,
    coverage_smallcell_result,
    rate_macro_term_result,
    rate_smallcell_term_result,
    topology_probabilities,
)
from .core import DuplexMode, NetworkParams, Thresholds
from .montecarlo import SimulationWindow, estimate_metrics
from .numerics import NonConvergenceError, QuadratureSpec

__all__ = [
    "SWEEPABLE_PARAMETERS",
    "SWEEP_OUTPUTS",
    "FIGURE_IDS",
    "SweepRow",
    "SweepSpec",
    "evaluate_point",
    "figure_preset",
    "run_sweep",
]

SWEEPABLE_PARAMETERS = ("B_s", "T_s", "lambda_ratio", "eta", "beta",
                        "alpha_s")
SWEEP_OUTPUTS = ("coverage_total", "coverage_breakdown", "topology", "rate",
                 "association")


def _db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


@dataclass(frozen=True)
class SweepSpec:
    """One swept knob, a grid in axis units, and what to evaluate.

    lambda_ratio sweeps the pico density as a multiple of the macro
    density.  mc_trials=0 keeps the sweep purely analytic.
    """

    swept_parameter: str
    grid: tuple
    base_params: NetworkParams = NetworkParams()
    base_thresholds: Thresholds = Thresholds(T_s=0.1, T_b=0.1, T_m=0.1)
    modes: tuple = (DuplexMode.IBFD,)
    outputs: tuple = ("coverage_total",)
    mc_trials: int = 0
    notes: tuple = ()

    def __post_init__(self) -> None:
        if self.swept_parameter not in SWEEPABLE_PARAMETERS:
            raise ValueError(
                f"unknown swept parameter {self.swept_parameter!r}; "
                f"expected one of {SWEEPABLE_PARAMETERS}")
        if len(self.grid) == 0:
            raise ValueError("grid non-empty")
        if any(b < a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be sorted ascending")
        if not self.modes:
            raise ValueError("at least one duplexing mode required")
        bad = [o for o in self.outputs if o not in SWEEP_OUTPUTS]
        if bad or not self.outputs:
            raise ValueError(
                f"outputs must be a non-empty subset of {SWEEP_OUTPUTS}, "
                f"got {self.outputs!r}")
        if self.mc_trials < 0:
            raise ValueError("mc_trials must be >= 0")


@dataclass(frozen=True)
class SweepRow:
    """All metrics for one (grid value, mode) cell.

    analytic maps metric name to value; mc carries the matching simulation
    estimates when the sweep ran with trials; quad_error holds the
    solver's own error estimate where one is available (nan otherwise).
    A failed point keeps its row with the failure message in `error`.
    """

    x: float
    mode: DuplexMode
    analytic: dict = field(default_factory=dict)
    mc: dict = field(default_factory=dict)
    quad_error: dict = field(default_factory=dict)
    error: Optional[str] = None


def _apply_swept_value(spec: SweepSpec, x: float):
    """Base params/thresholds with the swept knob set to grid value x."""
    p, th = spec.base_params, spec.base_thresholds
    name = spec.swept_parameter
    if name == "B_s":
        return replace(p, B_s=_db_to_linear(x)), th
    if name == "beta":
        return replace(p, beta=_db_to_linear(x)), th
    if name == "T_s":
        return p, replace(th, T_s=x)
    if name == "lambda_ratio":
        return replace(p, lambda_s=x * p.lambda_m), th
    if name == "eta":
        return replace(p, eta=x), th
    return replace(p, alpha_s=x), th


def _converged(name: str, result):
    if not result.converged:
        raise NonConvergenceError(
            f"{name} did not reach the requested tolerance "
            f"(estimate {result.error_estimate:.2e})",
            level=name, result=result)
    return result


def _topology_metrics(params, analytic, quad_error) -> None:
    p_a, p_b, p_c = topology_probabilities(params)
    for name, value in (("p_case_a", p_a), ("p_case_b", p_b),
                        ("p_case_c", p_c)):
        analytic[name] = value
        quad_error[name] = math.nan


def evaluate_point(params: NetworkParams, th: Thresholds, mode: DuplexMode,
                   outputs: tuple = ("coverage_total",), trials: int = 0,
                   seed: int = 0, window: Optional[SimulationWindow] = None,
                   fixed_count: bool = False,
                   quad_spec: Optional[QuadratureSpec] = None,
                   bearing: str = "circle", x: float = math.nan) -> SweepRow:
    """Every requested output (SWEEP_OUTPUTS) at one model point.

    This is the package's one analytic entry point, for library callers
    as for every command.  The coverage event is a disjoint union over
    the association outcome: pico-associated with both links up, or
    macro-associated with its one link up.  Both tier solvers return
    probabilities joint with their association event, so p_total is
    their plain sum, with no extra association weighting.
    Coverage is integrated once and also normalizes the covered rate;
    with trials > 0 and coverage or rate requested, one seeded simulation
    pass supplies the Monte Carlo estimate of every reported metric it
    covers.  topology (p_case_*) and association (p_assoc_s) are closed
    forms with quad_error NaN.  quad_spec overrides the coverage
    tolerances; bearing is the serving-macro bearing convention of the
    small-cell integrals; x labels the row.

    Raises NonConvergenceError when an integral behind a reported value
    misses its tolerance, and ValueError when the rate's conditioning
    event is empty (zero analytic coverage, or no covered trial).
    """
    analytic: dict = {}
    quad_error: dict = {}
    wants_coverage = "coverage_total" in outputs \
        or "coverage_breakdown" in outputs
    wants_rate = "rate" in outputs
    if wants_coverage or wants_rate:
        small = _converged("small-cell coverage integral",
                           coverage_smallcell_result(
                               params, th.T_s, th.T_b, mode, spec=quad_spec,
                               bearing=bearing))
        macro = _converged("macro coverage integral",
                           coverage_macro_result(params, th.T_m, mode,
                                                 spec=quad_spec))
        p_cov = small.value + macro.value
    if wants_coverage:
        analytic["p_total"] = p_cov
        quad_error["p_total"] = small.error_estimate + macro.error_estimate
        if "coverage_breakdown" in outputs:
            analytic["p_smallcell_joint"] = small.value
            analytic["p_macro_joint"] = macro.value
            quad_error["p_smallcell_joint"] = small.error_estimate
            quad_error["p_macro_joint"] = macro.error_estimate
    if "topology" in outputs:
        _topology_metrics(params, analytic, quad_error)
    if "association" in outputs:
        analytic["p_assoc_s"] = association_probability(params)[0]
        quad_error["p_assoc_s"] = math.nan
    if wants_rate:
        macro_rate = _converged("macro rate integral",
                                rate_macro_term_result(params, th, mode))
        small_rate = _converged("small-cell rate integral",
                                rate_smallcell_term_result(
                                    params, th, mode, bearing=bearing))
        if p_cov <= 0.0:
            raise ValueError("conditioning event has zero probability")
        analytic["rate_macro_term"] = macro_rate.value
        analytic["rate_smallcell_term"] = small_rate.value
        analytic["rate_total"] = (macro_rate.value + small_rate.value) / p_cov
        quad_error["rate_macro_term"] = macro_rate.error_estimate
        quad_error["rate_smallcell_term"] = small_rate.error_estimate
        quad_error["rate_total"] = \
            (macro_rate.error_estimate + small_rate.error_estimate) / p_cov

    mc: dict = {}
    if trials > 0 and (wants_coverage or wants_rate):
        estimates = estimate_metrics(params, th, mode, n_trials=trials,
                                     window=window, master_seed=seed,
                                     fixed_count=fixed_count)
        if wants_rate and "rate_total" not in estimates:
            raise ValueError("conditioning event empty in sample")
        mc = {name: est for name, est in estimates.items()
              if name in analytic}
    return SweepRow(x=x, mode=mode, analytic=analytic, mc=mc,
                    quad_error=quad_error)


def _sweep_cell(spec: SweepSpec, x: float, mode: DuplexMode, seed: int,
                window: SimulationWindow, fixed_count: bool,
                quad_spec: Optional[QuadratureSpec]) -> SweepRow:
    try:
        params, th = _apply_swept_value(spec, x)
        return evaluate_point(params, th, mode, spec.outputs,
                              trials=spec.mc_trials, seed=seed,
                              window=window, fixed_count=fixed_count,
                              quad_spec=quad_spec, x=x)
    except (ValueError, NonConvergenceError) as exc:
        return SweepRow(x=x, mode=mode, error=str(exc))


def run_sweep(spec: SweepSpec, master_seed: int = 0, threads: int = 1,
              window: Optional[SimulationWindow] = None,
              fixed_count: bool = False,
              quad_spec: Optional[QuadratureSpec] = None) -> list:
    """Evaluate the sweep; one row per grid point per mode, grid-ordered.

    Simulation seeds derive from master_seed by cell index, so results are
    reproducible and independent of thread count.  A failing point is
    reported in its row's `error` field without aborting the sweep.
    """
    if window is None:
        window = SimulationWindow()
    cells = [(x, mode) for x in spec.grid for mode in spec.modes]
    seeds = np.random.SeedSequence(master_seed).generate_state(len(cells))
    jobs = [(spec, x, mode, int(seed), window, fixed_count, quad_spec)
            for (x, mode), seed in zip(cells, seeds)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda j: _sweep_cell(*j), jobs))
    return [_sweep_cell(*job) for job in jobs]


_TS_GRID = tuple(round(0.1 + 0.25 * k, 2) for k in range(40))
_FIG8_NOTES = (
    "the first grid point (T_s = 0.1) matches the fig7 preset at density "
    "ratio 4 parameter-for-parameter, yet the two reference series give "
    "0.228 and 0.254 for that same quantity; this solver computes 0.271 "
    "for both points, in agreement with its Monte Carlo cross-check "
    "(see the repository decision log)",
)


def _presets() -> dict:
    both = (DuplexMode.IBFD, DuplexMode.FDD)
    ratio_20 = tuple(float(k) for k in range(1, 21))
    ratio_40 = tuple(float(k) for k in range(1, 41))
    return {
        "fig6": SweepSpec("B_s", tuple(float(v) for v in range(22, 61, 2)),
                          outputs=("topology",)),
        "fig7": SweepSpec("lambda_ratio", ratio_20,
                          outputs=("coverage_breakdown",)),
        "fig8": SweepSpec("T_s", _TS_GRID,
                          outputs=("coverage_breakdown",),
                          notes=_FIG8_NOTES),
        "fig9": SweepSpec("T_s", _TS_GRID, modes=both),
        "fig10": SweepSpec("lambda_ratio", ratio_40, modes=both,
                           base_params=NetworkParams(B_s=10.0 ** 3.4)),
        "fig11": SweepSpec("beta",
                           tuple(float(v) for v in range(-20, 37, 4)),
                           modes=both),
        "fig12": SweepSpec("B_s", tuple(float(v) for v in range(-10, 61, 2)),
                           modes=both, outputs=("rate",)),
        "fig13": SweepSpec("lambda_ratio", ratio_40, modes=both,
                           outputs=("rate",)),
        "fig14": SweepSpec("eta",
                           tuple(round(0.001 + 0.15 * k, 3)
                                 for k in range(7)),
                           outputs=("rate",)),
    }


FIGURE_IDS = tuple(f"fig{n}" for n in range(6, 15))


def figure_preset(figure_id: str) -> SweepSpec:
    """Captioned sweep setup for one of the reference figures (fig6-fig14).

    All presets use the linear reference powers (P_m=150, P_s=1) and the
    captioned thresholds; dB-axis grids stay in dB.  Presets are analytic
    by default (mc_trials=0); callers opt into simulation columns.
    """
    presets = _presets()
    if figure_id not in presets:
        raise ValueError(
            f"unknown figure id {figure_id!r}; expected one of "
            f"{', '.join(FIGURE_IDS)}")
    return presets[figure_id]
