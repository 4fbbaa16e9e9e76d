"""Joint law of the access and backhaul distances under pico association.

Conditioning event: the user (at the origin) attaches to its nearest pico S
at distance r_s, and S backhauls to its nearest macro at distance r.  Two
voids then constrain the macro process:

  * the association disc B(o, R_i), R_i = r_s^(a_s/a_m) / delta_m — a macro
    inside it would have won the biased association;
  * the backhaul disc B(S, r) — a macro inside it would be the backhaul.

The joint density over (r_s, r) is the derivative of the void probability
of the union of those discs:

  f(r_s, r) = 2 pi l_s r_s exp(-pi l_s r_s^2)
              * l_m * L(r_s, r) * exp(-l_m * U(r_s, r)),

with U the union area and L = dU/dr = r * (arc angle of the circle
dB(S, r) outside B(o, R_i)).  L vanishes exactly where the backhaul circle
is swallowed by the association disc (an impossible configuration), is
2*pi*r when the discs are disjoint or the backhaul disc engulfs the
association disc, and interpolates continuously through the lens regime.
Marginalizing over r recovers the pico association probability, so the
density's total mass is p_s, not 1.

The relative geometry splits into the three cases used throughout:
  A: backhaul circle and association disc have no common point (r small);
  B: they intersect in a lens;
  C: the backhaul disc engulfs the association disc (r large).
"""
from __future__ import annotations

import numpy as np

from ..core import NetworkParams, chord_angle, delta_m, lens_area
from ..numerics import IntegralResult, gauss_panel_nodes
from .association import association_probability

__all__ = [
    "inner_disc_radius",
    "joint_pdf",
    "topology_probabilities",
]


def inner_disc_radius(r_s, params: NetworkParams):
    """Radius R_i of the macro-free association disc around the user."""
    return np.asarray(r_s, dtype=float) ** (params.alpha_s / params.alpha_m) \
        / delta_m(params)


def joint_pdf(r_s, r, params: NetworkParams):
    """Joint density of (nearest-pico distance, its backhaul distance).

    Vectorized over broadcastable arrays r_s, r.
    """
    if np.any(r_s < 0) or np.any(r < 0):
        raise ValueError("distances must be non-negative")
    lm, ls = params.lambda_m, params.lambda_s
    R_i = inner_disc_radius(r_s, params)
    U = np.pi * R_i ** 2 + np.pi * r ** 2 - lens_area(r_s, R_i, r)
    L = r * (2.0 * (np.pi - chord_angle(r_s, r, R_i)))
    f = 2.0 * np.pi * ls * r_s * np.exp(-np.pi * ls * r_s ** 2) \
        * lm * L * np.exp(-lm * U)
    return f


# ---------------------------------------------------------------------------
# shared vectorized (r_s, r) grid; also used by the small-cell coverage solver
# ---------------------------------------------------------------------------

_RS_KNOTS = np.array([0.0, 0.3, 0.6, 0.9, 1.2, 1.55, 1.95, 2.4, 3.0, 3.8, 4.8])
_R_SCALE_KNOTS = np.array([0.25, 0.55, 0.9, 1.3, 1.75, 2.3, 3.0, 3.9, 4.8])


def outer_grid(params: NetworkParams, nodes_per_panel: int = 6):
    """Tensor grid over (r_s, r) with panel edges at the case boundaries.

    Returns a dict of flat arrays: rs, r, w (combined quadrature weight,
    without any density factor), ri (association disc radius at each rs).
    """
    sigma_s = 1.0 / np.sqrt(np.pi * params.lambda_s)
    sigma_m = 1.0 / np.sqrt(np.pi * params.lambda_m)
    rs_nodes, rs_w = gauss_panel_nodes(sigma_s * _RS_KNOTS, nodes_per_panel)
    ri = inner_disc_radius(rs_nodes, params)

    r_max = np.full_like(ri, sigma_m * _RS_KNOTS[-1])
    lo = np.minimum(np.abs(rs_nodes - ri), r_max)
    hi = np.minimum(rs_nodes + ri, r_max)
    scale = sigma_m * _R_SCALE_KNOTS
    knots = np.concatenate(
        [
            np.zeros((rs_nodes.size, 1)),
            lo[:, None],
            hi[:, None],
            np.broadcast_to(scale, (rs_nodes.size, scale.size)),
            r_max[:, None],
        ],
        axis=1,
    )
    knots = np.sort(np.clip(knots, 0.0, None), axis=1)
    r_nodes, r_w = gauss_panel_nodes(knots, nodes_per_panel)

    n_rs, n_r = rs_nodes.size, r_nodes.shape[1]
    RS = np.repeat(rs_nodes, n_r)
    RI = np.repeat(ri, n_r)
    W = (rs_w[:, None] * r_w).reshape(-1)
    R = r_nodes.reshape(-1)
    return dict(rs=RS, r=R, w=W, ri=RI)


# largest fine-vs-coarse gap (12 vs 8 nodes per panel) accepted for any
# of the three case probabilities
_TOPOLOGY_TOL = 1e-5


def _case_masses(params: NetworkParams, nodes_per_panel: int
                 ) -> tuple[float, float, float]:
    g = outer_grid(params, nodes_per_panel)
    f = joint_pdf(g["rs"], g["r"], params)
    contrib = f * g["w"]
    in_a = g["r"] <= np.abs(g["rs"] - g["ri"])
    in_c = g["r"] >= g["rs"] + g["ri"]
    in_b = ~(in_a | in_c)
    return (
        float(contrib[in_a].sum()),
        float(contrib[in_b].sum()),
        float(contrib[in_c].sum()),
    )


def topology_probabilities(
        params: NetworkParams) -> tuple[IntegralResult, ...]:
    """(p_A, p_B, p_C): probabilities of the three relative-geometry cases,
    conditioned on pico association (masses of the joint density per case
    region, normalized by the association probability).

    A mass's error is its 12- versus 8-node gap, carried through the
    division with p_s's own; the three converge together, when every gap
    is within _TOPOLOGY_TOL of p_s and p_s converged.
    """
    p_s = association_probability(params)
    if p_s.value <= 0.0:
        raise ValueError("pico association has zero probability")
    # at extreme densities a mass can come out inf or nan; its error is
    # then nan, which fails the gate, so the warnings are not needed
    with np.errstate(invalid="ignore", over="ignore"):
        fine = _case_masses(params, 12)
        coarse = _case_masses(params, 8)
    gaps = [abs(f - c) for f, c in zip(fine, coarse)]
    converged = all(gap / p_s.value <= _TOPOLOGY_TOL for gap in gaps)
    return tuple(IntegralResult(m, gap, converged) / p_s
                 for m, gap in zip(fine, gaps))
