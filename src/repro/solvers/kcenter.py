"""Capacitated k-center (the r = ∞ member of the paper's problem class).

Section 1: "capacitated k-clustering in ℓr … extends capacitated k-median
(r=1), capacitated k-means (r=2) and capacitated k-center (r=∞)."  The
coreset theorems are stated for constant r, but the assignment machinery
extends verbatim to the bottleneck objective, and a balanced-clustering
library is expected to ship it:

- :func:`capacitated_kcenter_assignment` — given centers and capacity t,
  minimize the *maximum* point-center distance: binary search over the
  O(n·k) candidate radii, checking feasibility with the from-scratch Dinic
  max-flow of :class:`~repro.assignment.maxflow.MaxFlow`;
- :func:`gonzalez_seeding` — the classical farthest-point 2-approximation
  for uncapacitated k-center, used as the center black box;
- :func:`capacitated_kcenter` — seeding + assignment, the end-to-end solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.assignment.capacitated import _as_capacities
from repro.assignment.maxflow import MaxFlow
from repro.metrics.distances import pairwise_distances
from repro.utils.rng import as_rng

__all__ = [
    "gonzalez_seeding",
    "capacitated_kcenter_assignment",
    "capacitated_kcenter",
    "KCenterSolution",
]


@dataclass
class KCenterSolution:
    """A capacitated k-center solution (bottleneck objective)."""

    centers: np.ndarray
    labels: np.ndarray
    radius: float
    sizes: np.ndarray


def gonzalez_seeding(points: np.ndarray, k: int, seed=0) -> np.ndarray:
    """Farthest-point traversal: a 2-approximation for uncapacitated k-center."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("empty input")
    rng = as_rng(seed)
    first = int(rng.integers(n))
    chosen = [first]
    dist = pairwise_distances(pts, pts[first][None, :])[:, 0]
    while len(chosen) < k:
        nxt = int(dist.argmax())
        chosen.append(nxt)
        np.minimum(dist, pairwise_distances(pts, pts[nxt][None, :])[:, 0],
                   out=dist)
    return pts[chosen]


def _feasible_at_radius(D: np.ndarray, radius: float,
                        caps: np.ndarray) -> np.ndarray | None:
    """Integral assignment with dist ≤ radius and loads ≤ caps, or None.

    Feasibility is a bipartite max-flow (Dinic): point i connects to center
    j iff D[i, j] ≤ radius.
    """
    n, k = D.shape
    net = MaxFlow(n + k + 2)
    s, t = n + k, n + k + 1
    edge_ids = {}
    for i in range(n):
        net.add_edge(s, i, 1)
    for j in range(k):
        net.add_edge(n + j, t, int(caps[j]))
    for i in range(n):
        row = D[i]
        for j in range(k):
            if row[j] <= radius + 1e-12:
                edge_ids[(i, j)] = net.add_edge(i, n + j, 1)
    if net.max_flow(s, t) < n:
        return None
    labels = np.full(n, -1, dtype=np.int64)
    for (i, j), eid in edge_ids.items():
        if net.edge_flow(eid) > 0:
            labels[i] = j
    return labels


def capacitated_kcenter_assignment(
    points: np.ndarray,
    centers: np.ndarray,
    t,
) -> KCenterSolution:
    """Minimize the bottleneck radius subject to at most t points per center.

    Points are unweighted.  Binary-searches the sorted set of point-center
    distances; O(log(nk)) flow feasibility checks.  ``t`` follows
    :func:`~repro.assignment.capacitated.capacitated_assignment`'s rule
    (scalar or ``(k,)``, no NaN, non-negative; ``inf`` is uncapacitated);
    no points give an empty solution of radius 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.asarray(centers, dtype=np.float64)
    n, k = pts.shape[0], ctr.shape[0]
    caps = _as_capacities(t, k)
    if n == 0:
        return KCenterSolution(centers=ctr, labels=np.empty(0, dtype=np.int64),
                               radius=0.0, sizes=np.zeros(k))
    icaps = np.floor(np.minimum(caps, n) + 1e-9).astype(np.int64)
    if n > icaps.sum():
        return KCenterSolution(centers=ctr, labels=None, radius=math.inf,
                               sizes=None)

    D = pairwise_distances(pts, ctr)
    radii = np.unique(D)
    lo, hi = 0, len(radii) - 1
    best_labels = _feasible_at_radius(D, radii[hi], icaps)
    if best_labels is None:
        return KCenterSolution(centers=ctr, labels=None, radius=math.inf,
                               sizes=None)
    best_radius = float(radii[hi])
    while lo <= hi:
        mid = (lo + hi) // 2
        labels = _feasible_at_radius(D, radii[mid], icaps)
        if labels is not None:
            best_labels, best_radius = labels, float(radii[mid])
            hi = mid - 1
        else:
            lo = mid + 1
    sizes = np.bincount(best_labels, minlength=k).astype(np.float64)
    return KCenterSolution(centers=ctr, labels=best_labels,
                           radius=best_radius, sizes=sizes)


def capacitated_kcenter(points: np.ndarray, k: int, t, seed=0) -> KCenterSolution:
    """Gonzalez seeding + optimal capacitated bottleneck assignment."""
    centers = gonzalez_seeding(points, k, seed=seed)
    return capacitated_kcenter_assignment(points, centers, t)
