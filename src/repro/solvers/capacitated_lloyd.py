"""Capacitated k-clustering by alternating assignment and center updates.

The (α, β)-approximation black box the coreset theorems assume.  The descent
alternates:

1. **assignment step** — optimal capacitated assignment of (weighted) points
   to the current centers (transportation problem; ``greedy`` method inside
   the loop for speed, the exact successive-shortest-path solve over the k
   centers at the final step);
2. **center step** — each cluster's center moves to its cost-minimizing
   point (mean / geometric median).

Cost is monotone under the exact assignment method; with the greedy inner
assignment we keep the best iterate seen.  Multiple k-means++ restarts guard
against bad seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.assignment.capacitated import AssignmentResult, capacitated_assignment
from repro.solvers.kmeanspp import kmeans_plusplus
from repro.solvers.lloyd import weighted_center
from repro.utils.rng import as_rng, derive_seed

__all__ = ["CapacitatedKClustering", "CapacitatedSolution"]


@dataclass
class CapacitatedSolution:
    """A capacitated clustering solution."""

    centers: np.ndarray
    labels: np.ndarray
    cost: float
    sizes: np.ndarray
    capacity: float
    iterations: int

    def max_violation(self) -> float:
        """Multiplicative capacity violation max load / t (≥ 1)."""
        if self.sizes.size == 0:
            return 1.0
        return float(max(1.0, (self.sizes / self.capacity).max()))


class CapacitatedKClustering:
    """Alternating capacitated ℓr k-clustering solver.

    Parameters
    ----------
    k, capacity:
        Number of clusters and the uniform capacity t > 0 (must satisfy
        k·t ≥ total weight).
    r:
        ℓr exponent (1 = k-median, 2 = k-means).
    restarts:
        k-means++ restarts; each runs at most :attr:`MAX_ITER` alternations.

    The inner loop assigns with the ``"greedy"`` method; the returned
    solution is always re-assigned with the exact ``"auto"`` method
    (successive shortest paths over the k centers, no scipy).
    """

    #: Alternation iterations per restart.
    MAX_ITER = 25

    def __init__(
        self,
        k: int,
        capacity: float,
        r: float = 2.0,
        restarts: int = 3,
        seed: int = 0,
    ):
        self.k = int(k)
        self.capacity = float(capacity)
        if not self.capacity > 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.r = float(r)
        self.restarts = int(restarts)
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        self.seed = int(seed)

    def fit(self, points: np.ndarray, weights: np.ndarray | None = None) -> CapacitatedSolution:
        """Solve on a (weighted) point set; returns the best restart."""
        pts = np.asarray(points, dtype=np.float64)
        n = pts.shape[0]
        if n == 0:
            raise ValueError("empty input")
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        if w.sum() > self.k * self.capacity * (1 + 1e-9):
            raise ValueError(
                f"infeasible: total weight {w.sum():.1f} exceeds k*t = "
                f"{self.k * self.capacity:.1f}"
            )
        best: CapacitatedSolution | None = None
        for rep in range(self.restarts):
            sol = self._fit_once(pts, w, derive_seed(self.seed, f"restart-{rep}"))
            if best is None or sol.cost < best.cost:
                best = sol
        return best

    # ------------------------------------------------------------------ inner
    def _fit_once(self, pts: np.ndarray, w: np.ndarray, seed: int) -> CapacitatedSolution:
        rng = as_rng(seed)
        centers = kmeans_plusplus(pts, self.k, r=self.r, weights=w, seed=rng)
        best_cost = math.inf
        best_centers = centers
        it = 0
        for it in range(1, self.MAX_ITER + 1):
            res = capacitated_assignment(
                pts, centers, self.capacity, r=self.r, weights=w,
                method="greedy",
            )
            if res.labels is None:
                break
            if res.cost < best_cost * (1 - 1e-9):
                best_cost = res.cost
                best_centers = centers
            else:
                break
            centers = self._update_centers(pts, w, res, centers)
        # Final exact assignment (successive shortest paths) against the
        # best centers found.
        final = capacitated_assignment(
            pts, best_centers, self.capacity, r=self.r, weights=w, method="auto",
        )
        if final.labels is None:
            raise RuntimeError("final assignment infeasible (should not happen)")
        return CapacitatedSolution(
            centers=best_centers,
            labels=final.labels,
            cost=final.cost,
            sizes=final.sizes,
            capacity=self.capacity,
            iterations=it,
        )

    def _update_centers(
        self,
        pts: np.ndarray,
        w: np.ndarray,
        res: AssignmentResult,
        centers: np.ndarray,
    ) -> np.ndarray:
        new_centers = centers.copy()
        for c in range(self.k):
            sel = res.labels == c
            if sel.any():
                new_centers[c] = weighted_center(pts[sel], w[sel], self.r)
        return new_centers
