"""Tier-association probabilities of the typical user."""
from __future__ import annotations

import math

from ..core import NetworkParams, delta_m
from ..numerics import NonConvergenceError, QuadratureSpec, integrate_1d

__all__ = ["association_probability"]

# The one tolerance of every caller (topology_probabilities, validate's
# p_assoc_s).  The integrand is smooth and cheap, so near machine precision
# costs about 0.1 ms; the shared QuadratureSpec default (rel_tol 1e-5) is
# 4e-6 off the equal-exponent closed form at some draws.
_ASSOCIATION_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)


def association_probability(params: NetworkParams) -> tuple[float, float]:
    """(p_s, p_m): probabilities that the typical user attaches to the pico
    tier or the macro tier under biased strongest-average-power association.

    p_s integrates the nearest-pico distance density against the probability
    that no macro is close enough to win the biased comparison:

        p_s = 2 pi l_s Int_0^inf x exp(-pi (l_m dm^-2 x^(2 a_s/a_m) + l_s x^2)) dx.
    """
    if params.lambda_s == 0.0:
        return 0.0, 1.0
    dm = delta_m(params)
    lm, ls = params.lambda_m, params.lambda_s
    ratio = 2.0 * params.alpha_s / params.alpha_m
    coef = lm * dm ** -2.0

    def integrand(x: float) -> float:
        return 2.0 * math.pi * ls * x * math.exp(
            -math.pi * (coef * x ** ratio + ls * x * x)
        )

    res = integrate_1d(integrand, 0.0, math.inf, _ASSOCIATION_SPEC)
    if not res.converged:
        raise NonConvergenceError(
            "association probability integral did not converge")
    p_s = min(max(res.value, 0.0), 1.0)
    return p_s, 1.0 - p_s
