"""The paper's cost functions (Section 2).

- ``cost^(r)(Q, Z[, w])`` — uncapacitated: every point pays dist^r to its
  nearest center (t = ∞ in the paper's notation).
- ``cost_t^(r)(Q, Z[, w])`` — capacitated: the minimum over partitions of Q
  into clusters of (weighted) size ≤ t of the total dist^r to each cluster's
  center; ``∞`` when no feasible partition exists.

For unit weights and integer t, the capacitated cost is computed *exactly*:
the transportation LP is integral (totally unimodular constraint matrix), so
the fractional optimum equals the paper's partition-based definition.  For
weighted point sets (coresets) the partition-based definition is a bin-
packing-hard integer program; following the paper's own Section 3.3 we use
the fractional transportation optimum as the canonical weighted cost — it
lower-bounds the integral cost and matches it up to the ≤ k−1 split points
whose individual weights the coreset construction keeps ≤ η·|Q|/k².
"""

from __future__ import annotations

import math

import numpy as np

from repro.metrics.distances import nearest_center

__all__ = [
    "uncapacitated_cost",
    "capacitated_cost",
    "optimal_uncapacitated_cost_upper_bound",
    "min_capacity",
]


def uncapacitated_cost(
    points: np.ndarray,
    centers: np.ndarray,
    r: float = 2.0,
    weights: np.ndarray | None = None,
) -> float:
    """cost^(r)(Q, Z, w) = Σ_p w(p) · dist^r(p, Z)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] == 0:
        return 0.0
    _, dr = nearest_center(pts, centers, r)
    if weights is not None:
        dr = dr * np.asarray(weights, dtype=np.float64)
    return float(dr.sum())


def min_capacity(total_weight: float, k: int) -> float:
    """The smallest admissible capacity t ≥ |Q|/k (weighted: W/k).

    The strong-coreset definition quantifies over all t ≥ ⌈|Q|/k⌉; below
    that no partition into k clusters of size ≤ t can cover Q.
    """
    return float(total_weight) / float(k)


def capacitated_cost(
    points: np.ndarray,
    centers: np.ndarray,
    t,
    r: float = 2.0,
    weights: np.ndarray | None = None,
) -> float:
    """cost_t^(r)(Q, Z[, w]): optimal capacitated clustering cost.

    ``t`` may be a scalar (the paper's uniform capacity), a (k,) vector, or
    ``math.inf`` / ``None`` for the uncapacitated cost.
    """
    # Imported here to break the metrics <-> assignment import cycle
    # (assignment.capacitated needs metrics.distances at module scope).
    from repro.assignment.capacitated import capacitated_assignment

    if t is None or (np.isscalar(t) and math.isinf(float(t))):
        return uncapacitated_cost(points, centers, r, weights)
    return capacitated_assignment(
        points, centers, t, r=r, weights=weights, integral=False
    ).fractional_cost


def optimal_uncapacitated_cost_upper_bound(
    points: np.ndarray, k: int, r: float, delta: int
) -> float:
    """The trivial upper bound Δ^d-free bound n · (√d · Δ)^r on OPT^(r).

    Used as the top of the guess-``o`` enumeration range (Algorithm 1's
    predetermined interval [1, Δ^d (√d Δ)^r] is a universe-size bound; with n
    known, n·(√dΔ)^r suffices and keeps the enumeration short, exactly as in
    the proof of Theorem 3.19).
    """
    pts = np.asarray(points)
    n, d = pts.shape
    return float(n) * (math.sqrt(d) * delta) ** r

