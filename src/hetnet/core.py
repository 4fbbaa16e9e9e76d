"""Parameter model, derived constants, and planar geometry primitives.

Everything here is a pure function over immutable value types.  Powers,
biases and the self-interference factor are stored in linear scale; dB
conversion happens at the CLI boundary only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "NetworkParams",
    "Thresholds",
    "DuplexMode",
    "delta_m",
    "delta_s",
    "lens_area",
    "disc_union_area",
    "circle_arc_outside_disc",
]


@dataclass(frozen=True)
class NetworkParams:
    """Constants of the two-tier downlink model.

    lambda_m, lambda_s : tier intensities (stations per unit area)
    P_m, P_s           : transmit powers, linear scale
    B_m, B_s           : association biases, linear scale
    alpha_m, alpha_s   : path-loss exponents (> 2 for integral convergence)
    beta               : residual self-interference factor, linear scale
    eta                : fraction of macro bandwidth used for backhaul, [0, 1]
    kappa              : FDD inter-tier bandwidth split, [0, 1)
    self_interference_convention : which transmit power the residual loop
        couples back, "ps" (pico's own power, default) or "pm" (macro power)
    """

    lambda_m: float = 1.0
    lambda_s: float = 4.0
    P_m: float = 150.0
    P_s: float = 1.0
    B_m: float = 1.0
    B_s: float = 10.0 ** 2.2
    alpha_m: float = 2.8
    alpha_s: float = 4.0
    beta: float = 1.0
    eta: float = 0.8
    kappa: float = 0.5
    self_interference_convention: str = "ps"

    def __post_init__(self) -> None:
        checks = [
            (self.self_interference_convention in ("ps", "pm"),
             "self_interference_convention must be 'ps' or 'pm'"),
            (self.lambda_m > 0, "lambda_m must be > 0"),
            (self.lambda_s >= 0, "lambda_s must be >= 0"),
            (self.P_m > 0 and self.P_s > 0, "powers must be > 0"),
            (self.B_m > 0 and self.B_s > 0, "biases must be > 0"),
            (self.alpha_m > 2, "alpha_m must be > 2"),
            (self.alpha_s > 2, "alpha_s must be > 2"),
            (0.0 <= self.eta <= 1.0, "eta must be in [0, 1]"),
            (0.0 <= self.kappa < 1.0, "kappa must be in [0, 1)"),
            (self.beta >= 0, "beta must be >= 0"),
        ]
        bad = [msg for ok, msg in checks if not ok]
        if bad:
            raise ValueError("invalid NetworkParams: " + "; ".join(bad))
        for name in ("lambda_m", "lambda_s", "P_m", "P_s", "B_m", "B_s",
                     "alpha_m", "alpha_s", "beta", "eta", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"invalid NetworkParams: {name} must be finite")

    @property
    def picos_per_macro(self) -> float:
        """Mean number of pico stations per macro station, lambda_s/lambda_m."""
        return self.lambda_s / self.lambda_m


@dataclass(frozen=True)
class Thresholds:
    """SIR thresholds, linear scale: access (T_s), backhaul (T_b), macro (T_m)."""

    T_s: float
    T_b: float
    T_m: float

    def __post_init__(self) -> None:
        if not (self.T_s > 0 and self.T_b > 0 and self.T_m > 0):
            raise ValueError("all thresholds must be strictly positive")


class DuplexMode(Enum):
    """Backhaul duplexing of the pico tier.

    IBFD: backhaul and access share one band; everything interferes with
    everything, plus residual self-interference at the pico.
    FDD: tiers transmit on orthogonal bands; only same-tier interference.
    """

    IBFD = "ibfd"
    FDD = "fdd"


def delta_m(params: NetworkParams) -> float:
    """Bias-and-power offset scale with the macro path-loss root.

    The user attaches to the pico tier iff the nearest-macro distance
    x_m satisfies x_m >= delta_m^{-1} * x_s^{alpha_s/alpha_m}, where x_s is
    the nearest-pico distance.
    """
    ratio = (params.P_s * params.B_s) / (params.P_m * params.B_m)
    return ratio ** (1.0 / params.alpha_m)


def delta_s(params: NetworkParams) -> float:
    """Pico-exclusion scale under macro association (pico path-loss root).

    Under macro attachment at distance x_m, no pico lies closer than
    delta_s * x_m^{alpha_m/alpha_s}.  Identity: delta_s ==
    delta_m^{alpha_m/alpha_s}.
    """
    ratio = (params.P_s * params.B_s) / (params.P_m * params.B_m)
    return ratio ** (1.0 / params.alpha_s)


def lens_area(d, R1, R2):
    """Area of intersection of two discs with center distance d.

    Accepts scalars or broadcastable arrays.  The arccos arguments are
    clamped to [-1, 1] so that tangency configurations (d = R1 + R2 or
    d = |R1 - R2|), where rounding can push the argument out of domain,
    evaluate to their continuous limits.
    """
    d = np.asarray(d, dtype=float)
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)

    d, R1, R2 = np.broadcast_arrays(d, R1, R2)
    disjoint = d >= R1 + R2
    contained = d <= np.abs(R1 - R2)

    # partial overlap formula on a division-safe copy of d; both chord
    # projections are computed directly (not via d - d1) so that swapping
    # R1 and R2 gives a bitwise-identical result
    safe_d = np.where(d > 0, d, 1.0)
    # subnormal d can overflow these intermediates; such configurations
    # land in the disjoint/contained masks below, so the noise is inert
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = (d * d + R1 * R1 - R2 * R2) / (2.0 * safe_d)
        d2 = (d * d + R2 * R2 - R1 * R1) / (2.0 * safe_d)
        a1 = np.clip(d1 / R1, -1.0, 1.0)
        a2 = np.clip(d2 / R2, -1.0, 1.0)
        seg1 = R1 * R1 * np.arccos(a1) - d1 * np.sqrt(np.maximum(R1 * R1 - d1 * d1, 0.0))
        seg2 = R2 * R2 * np.arccos(a2) - d2 * np.sqrt(np.maximum(R2 * R2 - d2 * d2, 0.0))

    full = np.pi * np.minimum(R1, R2) ** 2
    out = np.where(disjoint, 0.0, np.where(contained, full, seg1 + seg2))
    if out.ndim == 0:
        return float(out)
    return out


def disc_union_area(d, R1, R2):
    """Area of the union of two discs with center distance d."""
    return np.pi * np.asarray(R1, dtype=float) ** 2 \
        + np.pi * np.asarray(R2, dtype=float) ** 2 - lens_area(d, R1, R2)


def circle_arc_outside_disc(d, r, R):
    """Angle (radians, in [0, 2*pi]) of the circle of radius r, centered a
    distance d from the origin, that lies outside the disc B(origin, R).

    This is the derivative of ``disc_union_area`` with respect to r, divided
    by r, and also 2*pi times the fraction of directions (seen from the
    circle's own center) pointing out of the disc.  Scalars or arrays.
    """
    d = np.asarray(d, dtype=float)
    r = np.asarray(r, dtype=float)
    R = np.asarray(R, dtype=float)
    d, r, R = np.broadcast_arrays(d, r, R)
    denom = np.maximum(2.0 * d * r, np.finfo(float).tiny)
    arg = np.clip((d * d + r * r - R * R) / denom, -1.0, 1.0)
    out = 2.0 * (np.pi - np.arccos(arg))
    if out.ndim == 0:
        return float(out)
    return out
