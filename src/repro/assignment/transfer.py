"""Section 3.3 — constructing an assignment for the *original* point set.

In capacitated clustering, knowing good centers is not enough: one still has
to route every input point to a center within capacity.  The paper shows the
coreset carries enough structure to do this without re-reading Q's geometry:

1. solve the capacitated assignment on the weighted coreset (the exact
   successive-shortest-path min-cost flow over the k centers; at most k−1
   split points after forestification);
2. per weight class (= grid level, since all of Q'_i shares weight 1/φ_i),
   canonicalize the assignment by the switching procedure so it is induced
   by a set of assignment half-spaces H_i (Lemma 3.8 / step 1c);
3. for every retained part P ∈ PI_i, estimate the per-region masses B from
   the coreset samples and build the transferred assignment (Def. 3.11);
4. any original point of P follows its region's transferred center; points
   outside all retained parts go to their nearest center.

The result violates capacity by at most a (1+O(η)) factor and costs at most
(1+O(ε)) times the coreset assignment — the guarantee experiment E5 checks.
"""

from __future__ import annotations

import numpy as np

from repro.assignment.capacitated import capacitated_assignment
from repro.core.halfspace import (
    halfspaces_from_assignment,
    region_weights,
    transferred_assignment,
)
from repro.core.params import CoresetParams
from repro.core.partition import partition_heavy_cells
from repro.core.weighted import Coreset
from repro.grid.grids import HierarchicalGrids
from repro.metrics.distances import nearest_center

__all__ = ["extend_assignment_to_points", "coreset_assignment"]


def coreset_assignment(
    coreset: Coreset,
    centers: np.ndarray,
    t: float,
    r: float = 2.0,
):
    """Step 1: integral capacitated assignment of the weighted coreset."""
    return capacitated_assignment(
        coreset.points, centers, t, r=r, weights=coreset.weights, integral=True,
    )


def extend_assignment_to_points(
    points: np.ndarray,
    coreset: Coreset,
    params: CoresetParams,
    grids: HierarchicalGrids,
    centers: np.ndarray,
    t: float,
    r: float = 2.0,
) -> np.ndarray:
    """Assign every original point using only the coreset's assignment.

    ``grids`` must be the same grid object (same shift) the coreset was built
    with, and ``coreset.o`` records the accepted guess, so the heavy-cell
    partition is reproduced deterministically.

    Returns center labels in [0, k) for every row of ``points``.
    """
    pts = np.asarray(points)
    ctr = np.asarray(centers, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if len(coreset) == 0:
        return nearest_center(pts, ctr, r)[0]

    res = coreset_assignment(coreset, ctr, t, r=r)
    if res.labels is None:
        raise ValueError(f"capacity t={t} infeasible for the coreset")
    labels_q = np.asarray(res.labels, dtype=np.int64)

    # --- step 2: per-level canonical half-spaces from the coreset. ---------
    core_levels = coreset.levels()
    halfspaces: dict[int, object] = {}
    for level in np.unique(core_levels):
        sel = core_levels == level
        halfspaces[int(level)] = halfspaces_from_assignment(
            coreset.points[sel], labels_q[sel], ctr, r=r, canonicalize=True
        )

    # --- reproduce the partition of Q and match parts to coreset parts. ----
    partition = partition_heavy_cells(pts, params, coreset.o, grids)
    retained = {
        (info.level, info.parent_cell_key): pid
        for pid, info in enumerate(coreset.parts)
    }

    out = np.full(n, -1, dtype=np.int64)
    covered = np.zeros(n, dtype=bool)
    k = ctr.shape[0]
    for part in partition.parts:
        key = (part.level, int(part.parent_cell_key))
        pid = retained.get(key)
        if pid is None or part.level not in halfspaces:
            continue
        H = halfspaces[part.level]
        # Region masses from the coreset samples of this part (step 3).
        core_sel = coreset.part_ids == pid
        if not core_sel.any():
            continue
        regions_core = H.regions(coreset.points[core_sel])
        B = region_weights(regions_core, k, coreset.weights[core_sel])
        T = 0.5 * params.small_part_cutoff(part.level, coreset.o)
        # Transferred assignment applied to the original points (step 4).
        regions_pts = H.regions(pts[part.point_idx])
        out[part.point_idx] = transferred_assignment(regions_pts, B, params.xi, T)
        covered[part.point_idx] = True

    # Points outside retained parts: nearest center (their total number is
    # O(η)·|Q|/k and their cost O(ε)·cost by Lemma 3.4's argument).
    rest = ~covered
    if rest.any():
        out[rest] = nearest_center(pts[rest], ctr, r)[0]
    return out
