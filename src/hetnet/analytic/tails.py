"""Scalar building blocks shared by the coverage integrals.

The central quantity is

    C(c, alpha) = Int_c^inf dt / (1 + t^(alpha/2)),   alpha > 2, c >= 0,

which is the radial profile of every single-interferer exponential
functional: the mean interference functional of a field of unit-power
transmitters with fading, beyond a disc, reduces to

    Int_{||z|| > R} [1 - 1/(1 + s*||z||^-alpha)] dz
        = pi * s^(2/alpha) * C(R^2 * s^(-2/alpha), alpha).

C is evaluated in closed form only (tail_profile: elementary at alpha = 4,
Gauss hypergeometric otherwise), vectorized for the hot paths; the tests
check it against adaptive quadrature of the defining integral and against
mpmath.
"""
from __future__ import annotations

import numpy as np
from scipy import special as sp

from ..numerics import _leggauss

__all__ = [
    "tail_profile",
    "shifted_functional_radius2",
    "power_tail_nodes",
]


def tail_profile(c, alpha: float):
    """C(c, alpha) in closed form, vectorized over c.

    At alpha = 4 it is arctan(1/c).  Otherwise, with p = alpha/2, c < 1
    uses C(0, alpha) = (pi/p)/sin(pi/p) minus the head
    Int_0^c dt/(1+t^p) = c * 2F1(1, 1/p; 1 + 1/p; -c^p), and c >= 1 the
    tail itself, c^(1-p)/(p-1) * 2F1(1, 1 - 1/p; 2 - 1/p; -c^-p), which
    cannot cancel however large c grows.
    """
    p = alpha / 2.0
    c = np.asarray(c, dtype=float)
    if p == 2.0:
        out = np.arctan2(1.0, c)
    else:
        out = np.empty_like(c)
        head = c < 1.0
        ch, ct = c[head], c[~head]
        out[head] = ((np.pi / p) / np.sin(np.pi / p)
                     - ch * sp.hyp2f1(1.0, 1.0 / p, 1.0 + 1.0 / p, -(ch ** p)))
        b = 1.0 - 1.0 / p
        out[~head] = ct ** (1.0 - p) / (p - 1.0) * sp.hyp2f1(
            1.0, b, 1.0 + b, -(ct ** -p))
    return float(out) if out.ndim == 0 else out


def shifted_functional_radius2(s, alpha: float, r2):
    """pi * s^(2/alpha) * C(r2 * s^(-2/alpha), alpha): the exact integral of
    1 - 1/(1 + s*||z||^-alpha) over the exterior of a disc of squared radius
    r2 centered at the integrand's singular point.  Vectorized over s and
    r2 (squared radius, the quantity callers typically have cached)."""
    s = np.asarray(s, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    s_safe = np.maximum(s, np.finfo(float).tiny)
    scale2 = s_safe ** (2.0 / alpha)
    return np.where(s > 0.0,
                    np.pi * scale2 * tail_profile(r2 / scale2, alpha),
                    0.0)


def power_tail_nodes(L, alpha: float, n: int):
    """Nodes/weights turning Int_L^inf F(l) dl into sum(w * F(x)) exactly for
    F proportional to l^(1-alpha), and accurately for any F that decays at
    least that fast with a slowly varying prefactor.

    L may be an array (leading batch dims); returns arrays with one extra
    trailing axis of length n.  Substitution: v = (l/L)^(2-alpha) on (0, 1].
    """
    gx, gw = _leggauss(n)
    v = 0.5 * (gx + 1.0)          # (0,1)
    wv = 0.5 * gw
    L = np.asarray(L, dtype=float)[..., None]
    q = 1.0 / (alpha - 2.0)
    x = L * v ** (-q)
    w = wv * L * q * v ** (-(alpha - 1.0) * q)
    return x, np.broadcast_to(w, x.shape).copy()
