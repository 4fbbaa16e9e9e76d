"""Fixed, vectorized quadrature rules with nested error estimates.

No domain knowledge lives here.  Each rule takes all of its nodes in one
call of the integrand, and a sub-rule on some of the same nodes gives
the error: Gauss-Legendre panels (gauss_panel_nodes, _leggauss), the
G10/K21 Gauss-Kronrod pair of QUADPACK (Piessens et al. 1983;
kronrod_panel), and an exp-sinh rule (Takahasi and Mori 1974) for
Int_0^inf exp(-v - b v^gamma) dv (exp_power_integral).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "IntegralResult",
    "NonConvergenceError",
    "exp_power_integral",
    "gauss_panel_nodes",
    "kronrod_panel",
]


class NonConvergenceError(RuntimeError):
    """Raised when a caller requires a converged integral and the estimate
    did not reach tolerance."""


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    converged: bool

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")

    # a value derived from integrals carries their errors to first order
    # and converges only when every one of them did
    def __add__(self, other: "IntegralResult") -> "IntegralResult":
        return IntegralResult(self.value + other.value,
                              self.error_estimate + other.error_estimate,
                              self.converged and other.converged)

    def __truediv__(self, other: "IntegralResult") -> "IntegralResult":
        value = self.value / other.value
        return IntegralResult(
            value, self.error_estimate / other.value
            + value * other.error_estimate / other.value,
            self.converged and other.converged)


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(n)


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


# QUADPACK qk21 on [-1, 1] (to double precision), outermost first: the
# non-negative Kronrod abscissae (odd positions: the Gauss nodes), the
# Kronrod weights, and the Gauss weights of the odd positions
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
        0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
        0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
        0.14887433898163122, 0.0)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
        0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
        0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
        0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
       0.26926671930999635, 0.29552422471475287)
_K21_X = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_K21_W = np.array(_WGK[:-1] + _WGK[::-1])
_G10_W = np.zeros(21)
_G10_W[1:10:2] = _WG
_G10_W[11:20:2] = _WG[::-1]


def kronrod_panel(lo: float, hi: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, w_k21, w_g10) on [lo, hi]: the 21 Kronrod nodes in ascending
    order, their weights, and the 10-point Gauss weights on the same nodes
    (zero on the 11 Kronrod-only ones)."""
    half = 0.5 * (hi - lo)
    return lo + half * (_K21_X + 1.0), half * _K21_W, half * _G10_W


# v_k = exp(pi/2 sinh(k h)), h = 1/16, k = -62..54: below the first node
# (3.7e-17) and, for gamma >= 1/3, beyond the last (9.0e9) the scaled
# integrand of exp_power_integral leaves less than 1e-16 of its integral
_DE_STEP = 1.0 / 16.0
_DE_K = np.arange(-62, 55)
_DE_NODES = np.exp(0.5 * np.pi * np.sinh(_DE_K * _DE_STEP))
_DE_WEIGHTS = _DE_STEP * 0.5 * np.pi * np.cosh(_DE_K * _DE_STEP) * _DE_NODES
# the h = 1/8 sub-rule: every other node, at twice the weight
_DE_HALF_WEIGHTS = np.where(_DE_K % 2 == 0, 2.0 * _DE_WEIGHTS, 0.0)
# a value counts as converged when its error estimate is below
# max(_DE_ABS_TOL, _DE_REL_TOL * value); the estimate is the error of the
# h = 1/8 sub-rule, which reaches 3e-8 of the value at gamma = 2
_DE_ABS_TOL = 1e-9
_DE_REL_TOL = 1e-7


def exp_power_integral(b, gamma: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """I(b) = Int_0^inf exp(-v - b v^gamma) dv for an array of b >= 0,
    gamma > 0, as (value, error, converged) arrays.

    v = c w with c = 1/(1 + b^(1/gamma)) leaves coefficients of w and
    w^gamma that are at most 1, one of them at least 1/2, so the mass sits
    near w ~ 1 for any b.  error is |I_h - I_2h| plus c times the first
    node (the integrand is at most 1 below it).  For gamma in [0.5, 2] the
    nested difference stays below 3e-8 I, the value within 1e-13 I.
    """
    b = np.asarray(b, dtype=float)
    root = b ** (1.0 / gamma)
    c = 1.0 / (1.0 + root)
    f = np.exp(-c[..., None] * _DE_NODES
               - ((root * c) ** gamma)[..., None] * _DE_NODES ** gamma)
    # row sums of equal length keep each result independent of the batch
    value = c * np.sum(f * _DE_WEIGHTS, axis=-1)
    half = c * np.sum(f * _DE_HALF_WEIGHTS, axis=-1)
    error = np.abs(value - half) + c * _DE_NODES[0]
    converged = error <= np.maximum(_DE_ABS_TOL, _DE_REL_TOL * value)
    return value, error, converged
