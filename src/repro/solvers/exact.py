"""Exact capacitated k-clustering for tiny instances (test ground truth).

Enumerates every size-k subset of a candidate center pool (default: the
points themselves — for ℓ1/ℓ2 on tiny instances medoid optima are close
enough for *relative* comparisons, and the paper's model restricts centers
to the finite grid anyway; pass ``candidates=[Δ]^d grid`` for true optima on
very small Δ) and solves the optimal capacitated assignment for each with
the exact transportation solve over the k centers
(:func:`~repro.assignment.capacitated.capacitated_assignment`).
Exponential — use only for n ≲ 20, k ≤ 3.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.assignment.capacitated import capacitated_assignment

__all__ = ["exact_capacitated_kclustering", "ExactSolution"]


@dataclass
class ExactSolution:
    """The brute-force optimum (centers, labels, cost)."""

    centers: np.ndarray
    labels: np.ndarray
    cost: float


def exact_capacitated_kclustering(
    points: np.ndarray,
    k: int,
    t: float,
    r: float = 2.0,
    weights: np.ndarray | None = None,
    candidates: np.ndarray | None = None,
) -> ExactSolution:
    """Brute-force optimum over all k-subsets of the candidate centers."""
    pts = np.asarray(points, dtype=np.float64)
    cand = pts if candidates is None else np.asarray(candidates, dtype=np.float64)
    cand = np.unique(cand, axis=0)
    m = cand.shape[0]
    if m < k:
        raise ValueError(f"need at least k={k} distinct candidates, got {m}")
    best_cost = math.inf
    best = None
    for combo in itertools.combinations(range(m), k):
        Z = cand[list(combo)]
        res = capacitated_assignment(pts, Z, t, r=r, weights=weights, integral=False)
        if res.fractional_cost < best_cost:
            best_cost = res.fractional_cost
            best = (Z, res.labels)
    if best is None:
        raise ValueError("no feasible center set (capacity too small?)")
    return ExactSolution(centers=best[0], labels=best[1], cost=best_cost)
