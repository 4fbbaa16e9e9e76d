"""Building blocks shared by the coverage integrals.

The central quantity is

    C(c, alpha) = Int_c^inf dt / (1 + t^(alpha/2)),   alpha > 2, c >= 0,

which is the radial profile of every single-interferer exponential
functional: the mean interference functional of a field of unit-power
transmitters with fading, beyond a disc, reduces to

    Int_{||z|| > R} [1 - 1/(1 + s*||z||^-alpha)] dz
        = pi * s^(2/alpha) * C(R^2 * s^(-2/alpha), alpha).

tail_profile evaluates C over an array of c, into an array of its shape:
arctan(1/c) at alpha = 4, and otherwise two exact forms that each reduce
to the Euler integral b Int_0^1 u^(b-1) / (1 + x u) du with 0 <= x <= 1,
which a 12-node Gauss-Jacobi rule (Golub and Welsch 1969) takes to rounding.
The tests check C against adaptive quadrature of the defining integral
and against 60-digit mpmath.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..numerics import _leggauss

__all__ = [
    "tail_profile",
    "shifted_functional_radius2",
    "power_tail_nodes",
]


# nodes of the Gauss-Jacobi rule: its truncation error at x = 1 is at most
# 2e-17 for exponents b from 0.024 to 0.98, against 8e-16 with 10 nodes
_JACOBI_NODES = 12
# elements per (nodes x elements) temporary of _euler_integral
_CHUNK = 4096


@lru_cache(maxsize=16)
def _jacobi_rule(b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule on (0, 1) for the unit-mass weight b u^(b-1),
    0 < b < 1, as columns (1/u_k, w_k/u_k).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials P^(0, b-1), mapped from [-1, 1] by u = (1 + t)/2,
    and the weights the squared first components of its eigenvectors,
    normalised to unit sum.
    """
    beta = b - 1.0
    k = np.arange(_JACOBI_NODES, dtype=float)
    s = 2.0 * k + beta
    diag = beta * beta / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    # eigh reads the lower triangle only
    t, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    u = 0.5 * (1.0 + t)
    w = vec[0] ** 2
    w /= w.sum()      # the eigenvectors' norms are 1 only to a few ulps
    return (1.0 / u)[:, None], (w / u)[:, None]


def _euler_integral(x: np.ndarray, b: float) -> np.ndarray:
    """2F1(1, b; 1 + b; -x) = b Int_0^1 u^(b-1) / (1 + x u) du for a 1-D
    array of 0 <= x <= 1 and 0 < b < 1.

    The integrand's pole sits at u = -1/x <= -1, so the Gauss-Jacobi rule
    for the weight converges like 5.83^(-2n).  Each element's terms are
    added by the same elementwise adds whatever the array's length, so an
    element's value does not depend on the batch it came in.
    """
    inv_u, w_u = _jacobi_rule(b)
    out = np.empty_like(x)
    for i in range(0, x.size, _CHUNK):
        terms = w_u / (x[i:i + _CHUNK] + inv_u)   # w_k / (1 + x u_k)
        while len(terms) % 2 == 0:                # fold: 12 -> 6 -> 3
            half = len(terms) // 2
            terms = terms[:half] + terms[half:]
        acc = terms[0]
        for row in terms[1:]:
            acc = acc + row
        out[i:i + _CHUNK] = acc
    return out


def tail_profile(c, alpha: float) -> np.ndarray:
    """C(c, alpha) at every element of the array c.

    At alpha = 4 it is arctan(1/c).  Otherwise, with p = alpha/2 and
    F(x, b) = 2F1(1, b; 1 + b; -x) from _euler_integral, c < 1 uses
    C(0, alpha) = (pi/p)/sin(pi/p) minus the head
    Int_0^c dt/(1+t^p) = c * F(c^p, 1/p), and c >= 1 the tail itself,
    c^(1-p)/(p-1) * F(c^-p, 1 - 1/p), which cannot cancel however large c
    grows.
    """
    p = alpha / 2.0
    c = np.asarray(c, dtype=float)
    if p == 2.0:
        out = np.arctan2(1.0, c)
    else:
        out = np.empty_like(c)
        head = c < 1.0
        ch, ct = c[head], c[~head]
        b = (p - 1.0) / p
        # sin(pi/p) = sin(pi b), taken at the smaller of the two arguments,
        # where rounding the argument costs no digits
        full = (np.pi / p) / np.sin(np.pi * min(b, 1.0 / p))
        out[head] = full - ch * _euler_integral(ch ** p, 1.0 / p)
        out[~head] = (ct ** (1.0 - p) / (p - 1.0)
                      * _euler_integral(ct ** -p, b))
    return out


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
