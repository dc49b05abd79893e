"""Algorithm 1 — partitioning via heavy cells (Section 3.1).

Walking the randomly shifted grid hierarchy top-down, a cell C ∈ G_i is
**heavy** when its (estimated) point count reaches the level threshold
T_i(o) = 0.01·o/(√d·g_i)^r *and* all its ancestors are heavy; a cell whose
ancestors are all heavy but which is not itself heavy is **crucial**.  Every
point lies in exactly one crucial cell (walk down its ancestor chain until
the first non-heavy cell; level-L cells terminate the recursion).  The
partition groups the crucial cells of level i by their heavy parent in
G_{i-1}: part Q_{i,j} collects the points of all crucial cells inside the
j-th heavy cell.  Its diameter is at most √d·g_{i-1} = 2√d·g_i, which is the
bound every variance argument of Section 3.2 uses.

Level −1 is the conceptual root: a single cell containing all of [Δ]^d
(Fact A.1 — it is heavy whenever o is not an overestimate of OPT).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.params import CoresetParams
from repro.grid.grids import HierarchicalGrids
from repro.utils.validation import FailedConstruction

__all__ = ["HeavyCellPartition", "Part", "partition_heavy_cells", "ROOT_CELL_KEY"]

#: Sentinel key for the level-(-1) root cell containing all of [Δ]^d.
ROOT_CELL_KEY = -1


@dataclass
class Part:
    """One part Q_{i,j}: the crucial-cell points inside one heavy parent cell."""

    level: int
    parent_cell_key: int
    point_idx: np.ndarray
    size_estimate: float

    @property
    def size(self) -> int:
        """Exact number of points in the part."""
        return int(self.point_idx.shape[0])


@dataclass
class HeavyCellPartition:
    """Output of Algorithm 1.

    Attributes
    ----------
    parts:
        All parts Q_{i,j} with at least the heavy parent recorded (parts are
        created per heavy parent that owns crucial-cell points).
    part_of_point:
        For each input point, the index into ``parts`` of its part, or −1
        when the point fell through without a crucial cell (only possible if
        the root was not heavy, i.e. the guess ``o`` was far too large).
    heavy_counts:
        s_i for i = 0…L — the number of heavy cells in G_{i-1}
        (Algorithm 1 line 13).
    heavy_keys:
        Per level i ∈ {−1 … L−1}, the integer keys of the heavy cells —
        Algorithm 1's actual output (line 15), which the streaming and
        distributed implementations ship around.
    """

    parts: list = field(default_factory=list)
    part_of_point: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    heavy_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    heavy_keys: dict = field(default_factory=dict)

    @property
    def total_heavy(self) -> int:
        """Σᵢ sᵢ — the quantity Algorithm 2 line 5 FAIL-checks."""
        return int(self.heavy_counts.sum())

    def level_mass(self, level: int) -> int:
        """Σⱼ |Q_{i,j}| (exact; estimates are handled by the caller)."""
        return int(sum(p.size for p in self.parts if p.level == level))


def _group_by_key(keys: np.ndarray):
    """(unique keys, inverse index) for int64 or bigint (object) key arrays."""
    return np.unique(keys, return_inverse=True)


def partition_heavy_cells(
    points: np.ndarray,
    params: CoresetParams,
    o: float,
    grids: HierarchicalGrids,
    counts=None,
    max_heavy: float | None = None,
) -> HeavyCellPartition:
    """Run Algorithm 1 on ``points`` with guess ``o``.

    Parameters
    ----------
    counts:
        A count provider (:class:`~repro.core.estimators.ExactCounts` or
        :class:`~repro.core.estimators.SampledCounts`); defaults to exact.
    max_heavy:
        Early-abort bound on Σᵢ sᵢ: raise :class:`FailedConstruction` as soon
        as the running number of heavy cells exceeds it.  Without the abort,
        a far-too-small guess ``o`` would make every occupied cell heavy and
        waste a full pass before Algorithm 2's FAIL check fires.
    """
    from repro.core.estimators import ExactCounts

    pts = np.asarray(points)
    n = pts.shape[0]
    if counts is None:
        counts = ExactCounts(n)

    part_of_point = np.full(n, -1, dtype=np.int64)
    parts: list[Part] = []
    heavy_counts = np.zeros(params.L + 1, dtype=np.int64)
    heavy_keys: dict[int, list] = {-1: []}

    if n == 0:
        return HeavyCellPartition(parts, part_of_point, heavy_counts, heavy_keys)

    # --- level -1: the root cell (Fact A.1). -------------------------------
    mask_root = counts.mask_cells(-1)
    tau_root = float(mask_root.sum()) / counts.rate_cells(-1)
    if tau_root < params.threshold(-1, o):
        # Root not heavy: no crucial cells exist anywhere; empty partition.
        return HeavyCellPartition(parts, part_of_point, heavy_counts, heavy_keys)
    heavy_keys[-1] = [ROOT_CELL_KEY]

    # active[idx] -> key of the point's heavy ancestor cell one level up.
    active_idx = np.arange(n)
    parent_keys = np.full(n, ROOT_CELL_KEY, dtype=object)
    running_heavy = 1

    for level in range(0, params.L + 1):
        heavy_counts[level] = len(heavy_keys[level - 1])
        if active_idx.size == 0:
            heavy_keys.setdefault(level, [])
            continue

        keys = grids.cell_keys(pts[active_idx], level)
        uniq, inv = _group_by_key(keys)

        if level <= params.L - 1:
            # Estimated size per candidate cell (Algorithm 1 line 7).
            mask = counts.mask_cells(level)[active_idx]
            sampled_counts = np.bincount(inv, weights=mask.astype(np.float64),
                                         minlength=len(uniq))
            tau = sampled_counts / counts.rate_cells(level)
            is_heavy_cell = tau >= params.threshold(level, o)
        else:
            # Level L: every candidate cell is crucial (Algorithm 1 line 12).
            is_heavy_cell = np.zeros(len(uniq), dtype=bool)

        running_heavy += int(is_heavy_cell.sum())
        if max_heavy is not None and running_heavy > max_heavy:
            raise FailedConstruction(
                f"too many heavy cells at level {level} "
                f"(> {max_heavy:.0f}) for guess o={o:g}"
            )
        heavy_keys[level] = [uniq[c] for c in np.flatnonzero(is_heavy_cell)]

        # Crucial cells: candidates that are not heavy.  Group their points
        # by heavy parent cell to form parts Q_{level, j}.
        crucial_pt = ~is_heavy_cell[inv]
        if crucial_pt.any():
            cr_idx = active_idx[crucial_pt]
            cr_parents = parent_keys[cr_idx]
            p_uniq, p_inv = _group_by_key(cr_parents)
            mask_parts = counts.mask_parts(level)[cr_idx]
            rate = counts.rate_parts(level)
            for j, pkey in enumerate(p_uniq):
                members = cr_idx[p_inv == j]
                est = float(mask_parts[p_inv == j].sum()) / rate
                part_of_point[members] = len(parts)
                parts.append(Part(level=level, parent_cell_key=pkey,
                                  point_idx=members, size_estimate=est))

        # Points in heavy cells continue to the next level.
        heavy_pt = is_heavy_cell[inv]
        new_active = active_idx[heavy_pt]
        parent_keys[new_active] = keys[heavy_pt]
        active_idx = new_active

    return HeavyCellPartition(parts, part_of_point, heavy_counts, heavy_keys)
