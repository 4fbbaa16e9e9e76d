"""Tier-association probabilities of the typical user."""
from __future__ import annotations

import math

from ..core import NetworkParams, delta_m
from ..numerics import IntegralResult, exp_power_integral

__all__ = ["association_probability"]


def association_probability(params: NetworkParams) -> IntegralResult:
    """p_s, the probability that the typical user attaches to the pico
    tier under biased strongest-average-power association (the macro tier
    takes 1 - p_s), with the exp-sinh rule's error estimate.

    p_s integrates the nearest-pico distance density against the probability
    that no macro is close enough to win the biased comparison:

        p_s = 2 pi l_s Int_0^inf x exp(-pi (l_m dm^-2 x^(2 a_s/a_m) + l_s x^2)) dx.

    v = pi l_s x^2 makes it Int_0^inf exp(-v - b v^gamma) dv with
    gamma = a_s/a_m and b = pi l_m dm^-2 (pi l_s)^-gamma, the integral of
    numerics.exp_power_integral.  The value is clamped to [0, 1].
    """
    if params.lambda_s == 0.0:
        return IntegralResult(0.0, 0.0, True)
    gamma = params.alpha_s / params.alpha_m
    log_b = math.log(math.pi * params.lambda_m * delta_m(params) ** -2.0) \
        - gamma * math.log(math.pi * params.lambda_s)
    if log_b > 700.0:  # p_s < Gamma(1 + 1/gamma) b^(-1/gamma): negligible
        return IntegralResult(
            0.0, math.gamma(1.0 + 1.0 / gamma) * math.exp(-log_b / gamma),
            True)
    value, error, converged = exp_power_integral(math.exp(log_b), gamma)
    return IntegralResult(min(max(float(value), 0.0), 1.0), float(error),
                          bool(converged))
