"""Pilot estimate of the optimal uncapacitated clustering cost.

The guess-``o`` drivers want a value within a small factor of
OPT^(r)_{k-clus} (the *standard* clustering optimum — that is what
Algorithm 1's thresholds are defined against).  A k-means++ seeding followed
by a couple of Lloyd steps on a weight-proportional subsample gives an upper
bound within an O(log k) factor in expectation, which is all the descent
rule o = pilot/8, /16, … needs.

This plays the role of the [HSYZ18] streaming 2-approximation the paper runs
in parallel (see DESIGN.md substitution table).
"""

from __future__ import annotations

import numpy as np

from repro.metrics.costs import uncapacitated_cost
from repro.solvers.lloyd import lloyd
from repro.utils.rng import as_rng

__all__ = ["estimate_opt_cost"]

#: Most points the pilot's centers are fit on.
SAMPLE_SIZE = 4096


def estimate_opt_cost(
    points: np.ndarray,
    k: int,
    r: float = 2.0,
    weights: np.ndarray | None = None,
    seed=0,
) -> float:
    """Upper-bound estimate of OPT^(r) for the uncapacitated problem.

    Centers are fit on a subsample (≤ :data:`SAMPLE_SIZE` points, drawn with
    probability ∝ weight) but the returned cost is evaluated on the *full*
    weighted set, so the estimate is a genuine upper bound on OPT.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        return 0.0
    rng = as_rng(seed)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if n > SAMPLE_SIZE:
        idx = rng.choice(n, size=SAMPLE_SIZE, replace=False, p=w / w.sum())
        fit_pts, fit_w = pts[idx], None  # proportional sampling ⇒ unit weights
    else:
        fit_pts, fit_w = pts, w
    res = lloyd(fit_pts, k, r=r, weights=fit_w, seed=rng, max_iter=8)
    return uncapacitated_cost(pts, res.centers, r=r, weights=w)
