"""Coverage of macro-associated users.

Condition on the nearest macro at distance r'.  Macro association
additionally requires an empty pico disc B(o, d) with
d = delta_s * r'^{a_m/a_s} (no pico offers a larger biased power), which
contributes the void factor exp(-pi l_s d^2).  With Rayleigh fading each
interferer field reduces to the closed exterior-disc functional
(tails.shifted_functional_radius2), and both reductions share the scale
invariance that makes the inner integrals r'-independent profiles:

  Pr = Int_0^inf 2 pi l_m r' exp(- pi l_m r'^2 (1 + T^{2/a_m} C_M)
                                 - pi l_s r'^{2 a_m/a_s} W) dr'

  C_M = tail_profile(T^{-2/a_m}, a_m)              macro field beyond r'
  W   = delta_s^2 + (T P_s/P_m)^{2/a_s} C_S        pico void + pico field
  C_S = tail_profile((B_s/(B_m T))^{2/a_s}, a_s)   ... beyond d

FDD puts the pico tier on an orthogonal band: the C_S interference term
drops, the association void delta_s^2 stays.

Quadrature: u = r'^2 and v = A u turn Pr into (pi l_m / A) times
Int_0^inf exp(-v - (B/A^gamma) v^gamma) dv (A, B, gamma below), which
numerics.exp_power_integral takes for a 1-D array of thresholds (a sweep
batch's T_m, a rate panel's nodes) in one pass.
"""
from __future__ import annotations

import math

import numpy as np

from ..core import DuplexMode, NetworkParams, delta_s
from ..numerics import exp_power_integral
from .tails import tail_profile

__all__ = ["coverage_macro_batch"]


def _exponent_coefficients(params: NetworkParams, T_m: np.ndarray,
                           mode: DuplexMode):
    """(A, B, gamma) with integrand exp(-A u - B u^gamma), u = r'^2, for
    an array of thresholds."""
    a_m, a_s = params.alpha_m, params.alpha_s
    c_macro = tail_profile(T_m ** (-2.0 / a_m), a_m)
    A = math.pi * params.lambda_m * (1.0 + T_m ** (2.0 / a_m) * c_macro)
    gamma = a_m / a_s
    W = delta_s(params) ** 2
    if mode is DuplexMode.IBFD:
        cut = (params.B_s / (params.B_m * T_m)) ** (2.0 / a_s)
        W = W + (T_m * params.P_s / params.P_m) ** (2.0 / a_s) \
            * tail_profile(cut, a_s)
    B = math.pi * params.lambda_s * W
    return A, B, gamma


def coverage_macro_batch(params: NetworkParams, T_m,
                         mode: DuplexMode = DuplexMode.IBFD) -> tuple:
    """Pr{macro association, access SIR > T_m} (joint, not conditional) at
    each T_m of a 1-D array, as (value, error, converged) arrays.  A T_m
    must be positive, and an infinite one gives 0, converged."""
    T_m = np.asarray(T_m, dtype=float)
    if not np.all(T_m > 0.0):
        raise ValueError("threshold must be strictly positive")
    finite = np.isfinite(T_m)  # an infinite T_m: 1 stands in, scaled by 0
    A, B, gamma = _exponent_coefficients(
        params, np.where(finite, T_m, 1.0), mode)
    value, error, converged = exp_power_integral(B / A ** gamma, gamma)
    scale = np.where(finite, math.pi * params.lambda_m / A, 0.0)
    return scale * value, scale * error, converged | ~finite
