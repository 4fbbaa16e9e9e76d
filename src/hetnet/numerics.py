"""Adaptive quadrature and improper-integral handling.

No domain knowledge lives here: the analytic layer composes its nested
integrals from ``integrate_1d`` (finite or semi-infinite intervals) plus
the fixed Gauss-Legendre panel helpers at the bottom (used by vectorized
fast paths).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate as _sciint

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "NonConvergenceError",
    "integrate_1d",
    "gauss_panel_nodes",
]


class NonConvergenceError(RuntimeError):
    """Raised when a caller requires a converged integral and the estimate
    did not reach tolerance."""


# subinterval budget of the adaptive pass in integrate_1d
_MAX_SUBDIVISIONS = 200


@dataclass(frozen=True)
class QuadratureSpec:
    """Absolute and relative tolerances shared by all integrals."""

    abs_tol: float = 1e-7
    rel_tol: float = 1e-5

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    converged: bool

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")


def _tolerance(spec: QuadratureSpec, value: float) -> float:
    return max(spec.abs_tol, spec.rel_tol * abs(value))


def integrate_1d(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> IntegralResult:
    """Integrate f on [lower, upper]; upper may be math.inf / np.inf.

    Semi-infinite domains are mapped to (0, 1) with t = lower + u/(1-u)
    (Jacobian 1/(1-u)^2) before the adaptive pass, so no truncation of the
    domain occurs.  Non-convergence is reported through ``converged``;
    the value is still returned so the caller can decide.
    """
    points: list[float] | None = None
    if math.isinf(upper):
        a = float(lower)

        def g(u: float) -> float:
            om = 1.0 - u
            if om <= 0.0:
                return 0.0  # u = 1 is the image of t = inf; integrand limit
            return f(a + u / om) / (om * om)

        lo, hi, fn = 0.0, 1.0, g
        if a > 10.0:
            # a large lower bound squeezes the image of scales t ~ O(a)
            # against u = 1, invisible to the initial global rule.  A few
            # breakpoints bracketing t - a ~ a locate the bulk; adaptive
            # bisection then follows the tail on its own.  (More points
            # would force evaluations deep into the Jacobian blow-up and
            # cost accuracy through cancellation.)
            t_shift = a * 2.0 ** np.array([-3.0, 0.0, 3.0])
            u_pts = t_shift / (1.0 + t_shift)
            points = [float(u) for u in u_pts if 1e-12 < u < 1.0 - 1e-14]
    else:
        lo, hi, fn = float(lower), float(upper), f

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", _sciint.IntegrationWarning)
        value, abserr = _sciint.quad(
            fn, lo, hi,
            epsabs=spec.abs_tol, epsrel=spec.rel_tol,
            limit=_MAX_SUBDIVISIONS if points is None
            else max(_MAX_SUBDIVISIONS, len(points) + 50),
            points=points,
        )
    warned = any(issubclass(w.category, _sciint.IntegrationWarning) for w in caught)
    converged = (not warned) and abserr <= _tolerance(spec, value)
    return IntegralResult(value=value, error_estimate=abserr, converged=converged)


# ---------------------------------------------------------------------------
# fixed Gauss-Legendre panels, vectorized over leading batch dimensions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_panel_nodes(
    breakpoints: np.ndarray, nodes_per_panel: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on consecutive panels.

    breakpoints: array (..., K+1), non-decreasing along the last axis.
    Returns (x, w) of shape (..., K * nodes_per_panel); zero-width panels
    contribute zero weight.
    """
    b = np.asarray(breakpoints, dtype=float)
    gx, gw = _leggauss(nodes_per_panel)
    lo = b[..., :-1, None]
    half = 0.5 * (b[..., 1:, None] - lo)
    x = lo + half * (gx + 1.0)
    w = half * gw
    flat = x.shape[-2] * x.shape[-1]
    return x.reshape(*x.shape[:-2], flat), w.reshape(*w.shape[:-2], flat)
