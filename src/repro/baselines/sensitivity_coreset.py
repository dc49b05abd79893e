"""Sensitivity-sampling coreset for *uncapacitated* k-clustering.

The classical importance-sampling construction (Feldman-Langberg 2011 /
Chen 2009 lineage): fit a bicriteria solution B, set each point's
sensitivity bound

    s(p) = w(p)·dist^r(p, B) / cost(B)  +  w(p) / (weight of p's B-cluster),

sample m points with probability ∝ s(p) and weight them by w(p)/(m·prob).
This preserves cost^(r)(Q, Z) for every Z — the *uncapacitated* guarantee —
but nothing about per-assignment costs, so it carries no capacitated
guarantee: experiment E6 shows where it breaks while the paper's
construction holds.
"""

from __future__ import annotations

import numpy as np

from repro.core.weighted import WeightedPointSet
from repro.metrics.distances import nearest_center
from repro.solvers.kmeanspp import kmeans_plusplus
from repro.utils.rng import as_rng, derive_seed

__all__ = ["sensitivity_coreset"]


def sensitivity_coreset(
    points: np.ndarray,
    k: int,
    size: int,
    r: float = 2.0,
    weights: np.ndarray | None = None,
    seed=0,
) -> WeightedPointSet:
    """Importance-sampled coreset of ``size`` points for uncapacitated ℓr."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("empty input")
    rng = as_rng(seed)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    m = int(min(size, n))

    # Bicriteria solution: 2k k-means++ seeds.
    B = kmeans_plusplus(pts, min(n, 2 * k), r=r, weights=w,
                        seed=derive_seed(int(rng.integers(2**31)), "bicriteria"))
    labels, dr = nearest_center(pts, B, r)
    total = float((dr * w).sum())
    cluster_w = np.bincount(labels, weights=w, minlength=B.shape[0])
    cluster_w = np.maximum(cluster_w, 1e-12)
    sens = np.zeros(n)
    if total > 0:
        sens += w * dr / total
    sens += w / cluster_w[labels]
    probs = sens / sens.sum()

    idx = rng.choice(n, size=m, replace=True, p=probs)
    out_w = w[idx] / (m * probs[idx])
    # Merge duplicate draws (with replacement) into single weighted rows.
    uniq, inv = np.unique(idx, return_inverse=True)
    merged_w = np.bincount(inv, weights=out_w)
    return WeightedPointSet(points=np.asarray(points)[uniq], weights=merged_w)
