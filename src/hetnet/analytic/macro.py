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
"""
from __future__ import annotations

import math
from typing import Optional

from ..core import DuplexMode, NetworkParams, delta_s
from ..numerics import IntegralResult, NonConvergenceError, QuadratureSpec, integrate_1d
from .tails import tail_profile

__all__ = ["coverage_macro", "coverage_macro_result"]


def _exponent_coefficients(params: NetworkParams, T_m: float,
                           mode: DuplexMode):
    """(A, B, gamma) with integrand exp(-A u - B u^gamma), u = r'^2."""
    a_m, a_s = params.alpha_m, params.alpha_s
    c_macro = float(tail_profile(T_m ** (-2.0 / a_m), a_m))
    A = math.pi * params.lambda_m * (1.0 + T_m ** (2.0 / a_m) * c_macro)
    gamma = a_m / a_s
    ds2 = delta_s(params) ** 2
    if mode is DuplexMode.FDD:
        W = ds2
    else:
        cut = (params.B_s / (params.B_m * T_m)) ** (2.0 / a_s)
        c_pico = float(tail_profile(cut, a_s))
        W = ds2 + (T_m * params.P_s / params.P_m) ** (2.0 / a_s) * c_pico
    B = math.pi * params.lambda_s * W
    return A, B, gamma


def coverage_macro_result(params: NetworkParams, T_m: float,
                          mode: DuplexMode = DuplexMode.IBFD,
                          spec: Optional[QuadratureSpec] = None) -> IntegralResult:
    """Pr{macro association, access SIR > T_m} with error estimate."""
    if not T_m > 0.0:
        raise ValueError("threshold must be strictly positive")
    if spec is None:
        spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-8)
    if not math.isfinite(T_m):
        return IntegralResult(value=0.0, error_estimate=0.0, converged=True)
    A, B, gamma = _exponent_coefficients(params, T_m, mode)
    # rescale u -> v/A so the integrand is O(1)-scaled for every threshold
    # (A grows like T^{2/a_m}; without this the mass is a needle near 0)
    scale = math.pi * params.lambda_m / A
    b2 = B / A ** gamma

    def f(v: float) -> float:
        return scale * math.exp(-v - b2 * v ** gamma)

    res = integrate_1d(f, 0.0, math.inf, spec)
    return IntegralResult(value=res.value,
                          error_estimate=res.error_estimate,
                          converged=res.converged)


def coverage_macro(params: NetworkParams, T_m: float,
                   mode: DuplexMode = DuplexMode.IBFD) -> float:
    """Pr{macro association, access SIR > T_m} (joint, not conditional)."""
    res = coverage_macro_result(params, T_m, mode)
    if not res.converged:
        raise NonConvergenceError(
            f"macro coverage integral not converged "
            f"(estimate {res.error_estimate:.2e})",
            level="macro nearest-distance integral", result=res)
    return min(max(res.value, 0.0), 1.0)
