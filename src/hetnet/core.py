"""Parameter model, derived constants, and planar geometry primitives.

Everything here is a pure function over immutable value types.  Powers,
biases and the self-interference factor are stored in linear scale;
db_to_linear is the one decibel conversion, of the `_db` config keys and
of the B_s and beta sweep grids alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

__all__ = [
    "NetworkParams",
    "Thresholds",
    "DuplexMode",
    "db_to_linear",
    "delta_m",
    "delta_s",
    "band_shares",
    "lens_area",
    "chord_angle",
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
        for field in fields(self):
            if field.type == "float" \
                    and not math.isfinite(getattr(self, field.name)):
                raise ValueError(
                    f"invalid NetworkParams: {field.name} must be finite")

    @property
    def network(self) -> tuple:
        """Densities, powers and path-loss exponents: every field that a
        simulation pass reads."""
        return (self.lambda_m, self.lambda_s, self.P_m, self.P_s,
                self.alpha_m, self.alpha_s)

    @property
    def joint_key(self) -> "NetworkParams":
        """These params with eta and kappa, the two fields that the joint
        small-cell coverage (smallcell.evaluate_joint) does not read, set
        to 0: points with one key share every evaluate_joint call."""
        return replace(self, eta=0.0, kappa=0.0)

    @property
    def picos_per_macro(self) -> float:
        """Mean number of pico stations per macro station, lambda_s/lambda_m."""
        return self.lambda_s / self.lambda_m


@dataclass(frozen=True)
class Thresholds:
    """SIR thresholds, linear scale: access (T_s), backhaul (T_b), macro (T_m).

    The defaults are the captioned -10 dB of the reference figures.
    """

    T_s: float = 0.1
    T_b: float = 0.1
    T_m: float = 0.1

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


def db_to_linear(value_db: float) -> float:
    """Power decibels to linear scale: 10^(value_db / 10)."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"{value_db!r} dB is out of range") from None


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


def band_shares(params: NetworkParams, mode: DuplexMode):
    """(k_access, backhaul_share, macro_prefactor): the rate prefactors of
    log2(1 + SIR) on the pico access link, on one pico's backhaul link and
    for a macro user.

    IBFD runs every link on the whole band; FDD gives the pico access
    kappa of the band and the macro band k_b = 1 - kappa.  The backhaul
    takes eta of the macro band, split across the lambda_s/lambda_m picos
    per macro (nan with no pico tier), and macro users get the 1 - eta
    that it leaves.
    """
    k_a, k_b = 1.0, 1.0
    if mode is DuplexMode.FDD:
        k_a, k_b = params.kappa, 1.0 - params.kappa
    backhaul = (params.eta * k_b / params.picos_per_macro
                if params.lambda_s > 0.0 else math.nan)
    return k_a, backhaul, k_b * (1.0 - params.eta)


def lens_area(d, R1, R2):
    """Area of intersection of two discs with center distance d.

    Each disc adds the segment that the common chord cuts off it,
    R^2 (t - sin(2 t) / 2), with t the chord_angle of its circle inside
    the other disc.  Tangent, disjoint and nested discs come out exact,
    swapping R1 and R2 gives a bitwise-identical result, and no difference
    of nearly equal terms forms at a thin lens.  Broadcastable arrays in,
    an array out.
    """
    t1, t2 = chord_angle(d, R1, R2), chord_angle(d, R2, R1)
    return (R1 * R1 * (t1 - 0.5 * np.sin(2.0 * t1))
            + R2 * R2 * (t2 - 0.5 * np.sin(2.0 * t2)))


def chord_angle(d, r, R):
    """Half-angle (in [0, pi]) of the arc of the circle of radius r,
    centered a distance d from the origin, inside the disc B(origin, R),
    seen from the circle's center: arccos((d^2 + r^2 - R^2) / 2 d r),
    clamped so that tangency gives exactly 0 (circle outside) or pi
    (inside), as does d = 0 when r != R.  Broadcastable scalars or arrays.
    """
    d, r, R = (np.asarray(v, dtype=float) for v in (d, r, R))
    denom = np.maximum(2.0 * d * r, np.finfo(float).tiny)
    # at d*r = 0 the quotient overflows to +-inf, which the clip takes to
    # the limit
    with np.errstate(over="ignore"):
        return np.arccos(np.clip((d * d + r * r - R * R) / denom, -1.0, 1.0))
