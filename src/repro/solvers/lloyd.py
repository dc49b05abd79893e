"""Weighted Lloyd-style refinement for uncapacitated k-means / k-median.

Center updates minimize Σ w·dist^r within each cluster:

- r = 2 → the weighted mean (classical Lloyd);
- r = 1 → the weighted geometric median via Weiszfeld iterations;
- other r → gradient descent on the smooth power cost (rarely needed; the
  paper's headline applications are r ∈ {1, 2}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.distances import nearest_center
from repro.solvers.kmeanspp import kmeans_plusplus
from repro.utils.rng import as_rng

__all__ = ["lloyd", "KMeansResult", "weighted_center"]


@dataclass
class KMeansResult:
    """Uncapacitated clustering solution."""

    centers: np.ndarray
    labels: np.ndarray
    cost: float
    iterations: int


def weighted_center(points: np.ndarray, weights: np.ndarray, r: float) -> np.ndarray:
    """argmin_c Σ w·dist^r(p, c) for one cluster."""
    pts = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if pts.shape[0] == 0:
        raise ValueError("empty cluster")
    if r == 2.0:
        return (pts * w[:, None]).sum(axis=0) / w.sum()
    if r == 1.0:
        return _weiszfeld(pts, w)
    # General r: a few damped Newton-free gradient steps from the mean.
    c = (pts * w[:, None]).sum(axis=0) / w.sum()
    for _ in range(50):
        diff = pts - c
        dist = np.linalg.norm(diff, axis=1)
        dist = np.maximum(dist, 1e-12)
        grad = -(w * r * dist ** (r - 2))[:, None] * diff
        g = grad.sum(axis=0)
        step = 1.0 / (w.sum() * r * max(dist.max() ** (r - 2), 1e-12))
        new_c = c - step * g
        if np.linalg.norm(new_c - c) < 1e-9 * (1 + np.linalg.norm(c)):
            break
        c = new_c
    return c


def _weiszfeld(pts: np.ndarray, w: np.ndarray, iters: int = 64) -> np.ndarray:
    """Weighted geometric median (Weiszfeld with perturbation at vertices)."""
    c = (pts * w[:, None]).sum(axis=0) / w.sum()
    for _ in range(iters):
        dist = np.linalg.norm(pts - c, axis=1)
        at = dist < 1e-12
        if at.any():
            dist = np.maximum(dist, 1e-12)
        inv = w / dist
        new_c = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        if np.linalg.norm(new_c - c) < 1e-10 * (1 + np.linalg.norm(c)):
            return new_c
        c = new_c
    return c


def lloyd(
    points: np.ndarray,
    k: int,
    r: float = 2.0,
    weights: np.ndarray | None = None,
    seed=0,
    max_iter: int = 64,
) -> KMeansResult:
    """k-means++-seeded weighted Lloyd for the uncapacitated ℓr problem."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("empty input")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    rng = as_rng(seed)
    centers = kmeans_plusplus(pts, k, r=r, weights=w, seed=rng)
    labels, dr = nearest_center(pts, centers, r)
    cost = float((dr * w).sum())
    it = 0
    for it in range(1, max_iter + 1):
        new_centers = centers.copy()
        for c in range(k):
            sel = labels == c
            if sel.any():
                new_centers[c] = weighted_center(pts[sel], w[sel], r)
            else:
                # Re-seed an empty cluster at the currently worst point.
                new_centers[c] = pts[int(np.argmax(dr * w))]
        new_labels, dr = nearest_center(pts, new_centers, r)
        new_cost = float((dr * w).sum())
        converged = new_cost >= cost * (1 - 1e-9)
        centers, labels, cost = new_centers, new_labels, new_cost
        if converged:
            break
    return KMeansResult(centers=centers, labels=labels, cost=cost, iterations=it)
