"""Parameter sweeps and figure presets emitting tabular analytic/MC data.

A sweep varies one scalar knob over a sorted grid and evaluates the
requested outputs at every grid point for every duplexing mode, pairing
each analytic value with an optional simulation estimate.  run_sweep
spreads the points, each with all its modes, over the usable CPUs
(fanout); rows follow the grid for any CPU count.  Within a process,
the cells of one mode whose points differ only in eta and kappa share
one small-cell geometry and go through _evaluate_cells as one batch;
evaluate_point, which the single-point CLI commands call, is its
one-cell case.

Swept-parameter units follow the figure axes: B_s and beta grids are in
power dB (converted to linear before evaluation), all other grids are in
natural units (thresholds linear, densities as the pico-per-macro ratio).
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Optional

from .analytic import (
    association_probability,
    coverage_macro_result,
    coverage_smallcell_result,
    rate_macro_term_result,
    rate_smallcell_term_result,
    topology_probabilities,
)
from .core import DuplexMode, NetworkParams, Thresholds, db_to_linear
from .fanout import fan_out, process_count
from .montecarlo import (SimulationPass, SimulationWindow, simulate_pass,
                         tally_metrics)
from .numerics import NonConvergenceError

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


@dataclass(frozen=True)
class SweepSpec:
    """One swept knob, a grid in axis units, and what to evaluate.

    lambda_ratio sweeps the pico density as a multiple of the macro
    density.  mc_trials=0 keeps the sweep purely analytic.
    """

    swept_parameter: str
    grid: tuple
    base_params: NetworkParams = NetworkParams()
    base_thresholds: Thresholds = Thresholds()
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

    analytic maps metric name to value and quad_error maps the same names
    to their error estimates; mc carries the matching simulation
    estimates when the sweep ran with trials.
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
    p, th, name = spec.base_params, spec.base_thresholds, spec.swept_parameter
    if name == "T_s":
        return p, replace(th, T_s=x)
    if name == "lambda_ratio":
        return replace(p, lambda_s=x * p.lambda_m), th
    if name in ("B_s", "beta"):  # power dB grids
        x = db_to_linear(x)
    return replace(p, **{name: x}), th


def evaluate_point(params: NetworkParams, th: Thresholds, mode: DuplexMode,
                   outputs: tuple = ("coverage_total",),
                   simulation: Optional[SimulationPass] = None,
                   bearing: str = "circle",
                   x: float = math.nan) -> SweepRow:
    """Every requested output (SWEEP_OUTPUTS) at one model point.

    This is the package's one analytic entry point, for library callers
    as for every command, and the one-cell case of _evaluate_cells, which
    evaluates a sweep's cells.  The coverage event is a disjoint union
    over the association outcome: pico-associated with both links up, or
    macro-associated with its one link up.  Both tier solvers return
    probabilities joint with their association event, so p_total is
    their plain sum, with no extra association weighting.
    Coverage is integrated once and also normalizes the covered rate.
    simulation, a simulate_pass result of this network that holds this
    mode, or None, is tallied at this point's thresholds, eta, kappa and
    beta for the Monte Carlo estimate of every reported metric it
    covers.  Every analytic value comes with its solver's error estimate;
    p_total and rate_total carry their inputs' estimates and converge
    only when all of their inputs did.  bearing is the serving-macro
    bearing convention of the small-cell integrals; x labels the row.

    Raises NonConvergenceError when an integral behind a reported value
    misses its tolerance, and ValueError when the rate's conditioning
    event is empty (zero analytic coverage, or no covered trial).
    """
    row = _evaluate_cells([(params, th, x)], mode, outputs, simulation,
                          bearing)[0]
    if isinstance(row, Exception):
        raise row
    return row


def _evaluate_cells(cells: list, mode: DuplexMode, outputs: tuple,
                    simulation: Optional[SimulationPass] = None,
                    bearing: str = "circle") -> list:
    """evaluate_point at each (params, th, x) cell of cells, whose params
    share one joint_key: the cell's row, or the exception it raises there.

    The cells share every small-cell evaluation: one
    coverage_smallcell_result call takes all their threshold pairs and
    one rate_smallcell_term_result call all their rate integrals, and each
    cell's results equal its own calls.  The other solvers run per cell.
    """
    params, ths = [cell[0] for cell in cells], [cell[1] for cell in cells]
    wants_coverage = "coverage_total" in outputs \
        or "coverage_breakdown" in outputs
    wants_rate = "rate" in outputs
    if wants_coverage or wants_rate:
        small = coverage_smallcell_result(params[0], [th.T_s for th in ths],
                                          [th.T_b for th in ths], mode,
                                          bearing=bearing)
    if wants_rate:
        small_rate = rate_smallcell_term_result(params, ths, mode,
                                                bearing=bearing)
    rows: list = []
    for i, (p, th, x) in enumerate(cells):
        results: dict = {}
        try:
            if wants_coverage or wants_rate:
                macro = coverage_macro_result(p, th.T_m, mode)
                p_cov = small[i] + macro
            if wants_coverage:
                results["p_total"] = p_cov
                if "coverage_breakdown" in outputs:
                    results["p_smallcell_joint"] = small[i]
                    results["p_macro_joint"] = macro
            if "topology" in outputs:
                results.update(zip(("p_case_a", "p_case_b", "p_case_c"),
                                   topology_probabilities(p)))
            if "association" in outputs:
                results["p_assoc_s"] = association_probability(p)
            if wants_rate:
                macro_rate = rate_macro_term_result(p, th, mode)
                if p_cov.value <= 0.0:
                    raise ValueError("conditioning event has zero probability")
                results["rate_macro_term"] = macro_rate
                results["rate_smallcell_term"] = small_rate[i]
                results["rate_total"] = (macro_rate + small_rate[i]) / p_cov
            for name, result in results.items():
                if not result.converged:
                    raise NonConvergenceError(
                        f"{name} not converged (error estimate "
                        f"{result.error_estimate:.2e})")
            mc: dict = {}
            if simulation is not None:
                estimates = tally_metrics(simulation, p, th, mode)
                if wants_rate and "rate_total" not in estimates:
                    raise ValueError("conditioning event empty in sample")
                mc = {name: est for name, est in estimates.items()
                      if name in results}
            rows.append(SweepRow(
                x=x, mode=mode, mc=mc,
                analytic={n: r.value for n, r in results.items()},
                quad_error={n: r.error_estimate
                            for n, r in results.items()}))
        except (ValueError, NonConvergenceError) as exc:
            rows.append(exc)
    return rows


def _network_pass(spec: SweepSpec, params: NetworkParams, seed: int,
                  window: SimulationWindow) -> Optional[SimulationPass]:
    """The pass of params' network, all the sweep's modes in one, that its
    rows tally; None when they carry no simulation estimate."""
    if spec.mc_trials == 0 or {"coverage_total", "coverage_breakdown",
                               "rate"}.isdisjoint(spec.outputs):
        return None
    return simulate_pass(params, spec.modes, spec.mc_trials, window, seed)


def _sweep_cells(spec: SweepSpec, cells: list, seed: int,
                 window: SimulationWindow, held: tuple) -> list:
    """The row of each (x, mode) cell, in order.

    The cells of one mode whose params share one joint_key are evaluated
    as one batch (_evaluate_cells), the batches in the order of their
    first cells.  held is a (network, pass) pair; a batch of another
    network draws that network's pass, and a batch that fails as a whole
    gives each of its cells the error row.
    """
    network, simulation = held
    rows: list = [None] * len(cells)
    batches: dict = {}
    for i, (x, mode) in enumerate(cells):
        try:
            params, th = _apply_swept_value(spec, x)
        except ValueError as exc:
            rows[i] = exc
            continue
        batches.setdefault((mode, params.joint_key), []).append(
            (i, (params, th, x)))
    for (mode, key), batch in batches.items():
        indices, batch_cells = zip(*batch)
        try:
            if key.network != network:
                network, simulation = key.network, _network_pass(
                    spec, batch_cells[0][0], seed, window)
            evaluated = _evaluate_cells(list(batch_cells), mode,
                                        spec.outputs, simulation)
        except (ValueError, NonConvergenceError) as exc:
            evaluated = [exc] * len(batch)
        for i, row in zip(indices, evaluated):
            rows[i] = row
    return [SweepRow(x=x, mode=mode, error=str(row))
            if isinstance(row, Exception) else row
            for (x, mode), row in zip(cells, rows)]


def run_sweep(spec: SweepSpec, master_seed: int = 0,
              window: SimulationWindow = SimulationWindow()) -> list:
    """Evaluate the sweep; one row per grid point per mode, grid-ordered.

    Every cell simulates with master_seed, and one pass serves all modes
    of a network.  If the grid never changes the network (T_s, eta, beta
    or B_s), that pass is drawn once, before the grid is split over the
    CPUs.  Each process evaluates its cells in batches that share a
    small-cell geometry (_sweep_cells).  Results do not depend on the CPU
    count.  A failing point is reported in its row's `error` field
    without aborting the sweep.
    """
    held = (None, None)
    with suppress(ValueError):  # each cell then records the error itself
        points = [_apply_swept_value(spec, x)[0] for x in spec.grid]
        if len({point.network for point in points}) == 1:
            held = points[0].network, _network_pass(spec, points[0],
                                                    master_seed, window)
    cells = [(x, mode) for x in spec.grid for mode in spec.modes]
    m, n = len(spec.modes), min(process_count(), len(spec.grid))
    # grid point i, with all its modes, goes to process i % n
    rows = [iter(part) for part in fan_out(_sweep_cells, [
        (spec, [c for i, c in enumerate(cells) if i // m % n == j],
         master_seed, window, held)
        for j in range(n)])]
    return [next(rows[i // m % n]) for i in range(len(cells))]


_TS_GRID = tuple(round(0.1 + 0.25 * k, 2) for k in range(40))
_FIG8_NOTES = (
    "the first grid point (T_s = 0.1) matches the fig7 preset at density "
    "ratio 4 parameter-for-parameter, yet the two reference series give "
    "0.228 and 0.254 for that same quantity; this solver computes 0.271 "
    "for both points, in agreement with its Monte Carlo cross-check "
    "(see the repository decision log)",
)


_BOTH = (DuplexMode.IBFD, DuplexMode.FDD)
_RATIO_20 = tuple(float(k) for k in range(1, 21))
_RATIO_40 = tuple(float(k) for k in range(1, 41))
_PRESETS = {
    "fig6": SweepSpec("B_s", tuple(float(v) for v in range(22, 61, 2)),
                      outputs=("topology",)),
    "fig7": SweepSpec("lambda_ratio", _RATIO_20,
                      outputs=("coverage_breakdown",)),
    "fig8": SweepSpec("T_s", _TS_GRID,
                      outputs=("coverage_breakdown",),
                      notes=_FIG8_NOTES),
    "fig9": SweepSpec("T_s", _TS_GRID, modes=_BOTH),
    "fig10": SweepSpec("lambda_ratio", _RATIO_40, modes=_BOTH,
                       base_params=NetworkParams(B_s=10.0 ** 3.4)),
    "fig11": SweepSpec("beta",
                       tuple(float(v) for v in range(-20, 37, 4)),
                       modes=_BOTH),
    "fig12": SweepSpec("B_s", tuple(float(v) for v in range(-10, 61, 2)),
                       modes=_BOTH, outputs=("rate",)),
    "fig13": SweepSpec("lambda_ratio", _RATIO_40, modes=_BOTH,
                       outputs=("rate",)),
    "fig14": SweepSpec("eta",
                       tuple(round(0.001 + 0.15 * k, 3)
                             for k in range(7)),
                       outputs=("rate",)),
}


FIGURE_IDS = tuple(_PRESETS)


def figure_preset(figure_id: str) -> SweepSpec:
    """Captioned sweep setup for one of the reference figures (fig6-fig14).

    All presets use the linear reference powers (P_m=150, P_s=1) and the
    captioned thresholds; dB-axis grids stay in dB.  Presets are analytic
    by default (mc_trials=0); callers opt into simulation columns.
    """
    if figure_id not in _PRESETS:
        raise ValueError(
            f"unknown figure id {figure_id!r}; expected one of "
            f"{', '.join(FIGURE_IDS)}")
    return _PRESETS[figure_id]
