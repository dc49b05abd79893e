"""Curved half-spaces, regions, and transferred assignments.

The paper's central structural insight (Section 1.2, Definitions 2.2/3.7):
in an *optimal* capacitated assignment, the clusters of any two centers
``zi, zj`` are separated by the curved hyperplane

    { x : dist^r(x, zi) − dist^r(x, zj) = a }

for some threshold ``a`` (a flat hyperplane when r = 2, a hyperbola branch
for r = 1 — Figures 1 and 3).  Otherwise swapping two inverted points would
lower the cost without changing cluster sizes.  Consequently an optimal
assignment is described by (k choose 2) thresholds instead of k^n choices,
which is what makes the union bound over assignments affordable.

This module implements:

- :func:`separation_keys` — the sort key (dist^r difference, lexicographic
  tie-break) of Definition 2.2;
- :func:`canonicalize_assignment` — the switching procedure of Lemma 3.8 /
  Section 3.3 step 1c, turning any equal-weight assignment into one of equal
  cost and identical size vector that *is* induced by half-spaces;
- :class:`AssignmentHalfspaces` — a concrete set of assignment half-spaces
  with region computation (Definition 3.10), applicable to any point set;
- :func:`transferred_assignment` — Definition 3.11 (reassigning points of
  under-populated regions to the largest region's center).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.distances import pairwise_power_distances

__all__ = [
    "separation_keys",
    "lexicographic_rank",
    "canonicalize_assignment",
    "is_halfspace_consistent",
    "AssignmentHalfspaces",
    "halfspaces_from_assignment",
    "transferred_assignment",
    "region_weights",
]

#: Region index for points not covered by any center's region (R0).
UNASSIGNED = -1


def lexicographic_rank(points: np.ndarray) -> np.ndarray:
    """Rank of each point in the alphabetical (lexicographic) order of §2."""
    pts = np.asarray(points)
    order = np.lexsort(tuple(pts[:, j] for j in range(pts.shape[1] - 1, -1, -1)))
    rank = np.empty(len(pts), dtype=np.int64)
    rank[order] = np.arange(len(pts))
    return rank


def separation_keys(power_dists: np.ndarray, i: int, j: int) -> np.ndarray:
    """f_{ij}(p) = dist^r(p, z_i) − dist^r(p, z_j) for all points at once."""
    return power_dists[:, i] - power_dists[:, j]


def _pair_order(f: np.ndarray, lex: np.ndarray) -> np.ndarray:
    """Indices sorting by (f, lexicographic rank) — Definition 2.2's order."""
    return np.lexsort((lex, f))


def canonicalize_assignment(
    points: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
    r: float = 2.0,
) -> np.ndarray:
    """Switch inverted pairs until the assignment is half-space consistent.

    Precondition (Lemma 3.8): all points carry the *same weight* — callers
    with multiple weight classes (e.g. coreset levels) must canonicalize each
    class separately.  The returned assignment has exactly the same size
    vector and no larger cost, and for every pair of centers the two clusters
    are separated in the (f_{ij}, lex) order.

    Termination: each pairwise pass sorts one pair perfectly and never
    increases cost; the total lexicographic potential strictly decreases on
    every change, so the loop converges.  At most 4·k²+4 full sweeps run,
    as a safety net.
    """
    pts = np.asarray(points, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64).copy()
    k = np.asarray(centers).shape[0]
    if len(pts) == 0 or k == 1:
        return lab
    F = pairwise_power_distances(pts, np.asarray(centers, dtype=np.float64), r)
    lex = lexicographic_rank(points)
    for _ in range(4 * k * k + 4):
        changed = False
        for i in range(k):
            for j in range(i + 1, k):
                sel = np.flatnonzero((lab == i) | (lab == j))
                if sel.size == 0:
                    continue
                ni = int((lab[sel] == i).sum())
                if ni == 0 or ni == sel.size:
                    continue
                f = F[sel, i] - F[sel, j]
                order = _pair_order(f, lex[sel])
                # Cluster i must own the ni smallest keys.
                new_lab = np.full(sel.size, j, dtype=np.int64)
                new_lab[order[:ni]] = i
                if not np.array_equal(new_lab, lab[sel]):
                    lab[sel] = new_lab
                    changed = True
        if not changed:
            return lab
    return lab


def is_halfspace_consistent(
    points: np.ndarray, labels: np.ndarray, centers: np.ndarray, r: float = 2.0
) -> bool:
    """Whether, for every center pair, the clusters are key-separated
    (i.e. the assignment is induced by *some* set of assignment half-spaces)."""
    pts = np.asarray(points, dtype=np.float64)
    lab = np.asarray(labels)
    k = np.asarray(centers).shape[0]
    if len(pts) == 0:
        return True
    F = pairwise_power_distances(pts, np.asarray(centers, dtype=np.float64), r)
    lex = lexicographic_rank(points)
    for i in range(k):
        for j in range(i + 1, k):
            sel_i = lab == i
            sel_j = lab == j
            if not (sel_i.any() and sel_j.any()):
                continue
            f = F[:, i] - F[:, j]
            key_i = list(zip(f[sel_i], lex[sel_i]))
            key_j = list(zip(f[sel_j], lex[sel_j]))
            if max(key_i) > min(key_j):
                return False
    return True


@dataclass
class AssignmentHalfspaces:
    """A concrete set of assignment half-spaces H = {H_{(i,j)}} for centers Z.

    ``H_{(i,j)}`` (i < j) is stored as a strict cut in the (f_{ij}, lex) key
    order: a point is on z_i's side iff its key is ≤ ``(a[i,j], tie[i,j])``.
    Cuts derived from a finite point set place the threshold at the largest
    key of cluster i, so the *same* object can classify arbitrary other
    points (the transfer of Section 3.3 applies coreset-derived half-spaces
    to the original input).
    """

    centers: np.ndarray
    r: float
    #: a[i, j]: the f-threshold for pair (i < j); +inf = everything on i's side.
    a: np.ndarray
    #: tie[i, j]: lexicographic tie-break point (row vector), or NaN row = no tie.
    tie: np.ndarray

    @property
    def k(self) -> int:
        """Number of centers."""
        return self.centers.shape[0]

    def side_matrix(self, points: np.ndarray) -> np.ndarray:
        """Boolean (n, k, k) tensor: S[p, i, j] ⇔ point p ∈ H_{(i,j)} (i≠j)."""
        pts = np.asarray(points, dtype=np.float64)
        n, k = len(pts), self.k
        F = pairwise_power_distances(pts, np.asarray(self.centers, dtype=np.float64), self.r)
        S = np.zeros((n, k, k), dtype=bool)
        for i in range(k):
            for j in range(i + 1, k):
                f = F[:, i] - F[:, j]
                below = f < self.a[i, j]
                at = f == self.a[i, j]
                if at.any() and not np.isnan(self.tie[i, j, 0]):
                    tie_ok = _lex_leq(pts[at], self.tie[i, j])
                    inside = below.copy()
                    inside[np.flatnonzero(at)[tie_ok]] = True
                else:
                    inside = below
                S[:, i, j] = inside
                S[:, j, i] = ~inside
        return S

    def regions(self, points: np.ndarray) -> np.ndarray:
        """Region labels of Definition 3.10: i ∈ [0, k) when the point is in
        every H_{(i,j)}, else ``UNASSIGNED`` (the R0 region)."""
        pts = np.asarray(points)
        n, k = len(pts), self.k
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if k == 1:
            return np.zeros(n, dtype=np.int64)
        S = self.side_matrix(pts)
        # wins[p, i] = for all j != i, S[p, i, j].
        eye = np.eye(k, dtype=bool)
        wins = (S | eye[None, :, :]).all(axis=2)
        out = np.full(n, UNASSIGNED, dtype=np.int64)
        which = wins.argmax(axis=1)
        covered = wins.any(axis=1)
        out[covered] = which[covered]
        return out


def _lex_leq(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """points[i] ≤ ref in the lexicographic order of §2 (vectorized)."""
    pts = np.asarray(points, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    n, d = pts.shape
    result = np.zeros(n, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    for j in range(d):
        lt = undecided & (pts[:, j] < ref[j])
        gt = undecided & (pts[:, j] > ref[j])
        result[lt] = True
        undecided &= ~(lt | gt)
    result[undecided] = True  # exactly equal
    return result


def halfspaces_from_assignment(
    points: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
    r: float = 2.0,
    canonicalize: bool = True,
) -> AssignmentHalfspaces:
    """Build assignment half-spaces H inducing ``labels`` (Lemma 3.8).

    The assignment is first canonicalized (unless the caller guarantees
    consistency).  Every pair's cut is placed at the largest key of cluster
    i, so points of the *given* set classify exactly as labelled; empty
    clusters yield ±∞ thresholds.
    """
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.asarray(centers, dtype=np.float64)
    k = ctr.shape[0]
    lab = np.asarray(labels, dtype=np.int64)
    if canonicalize:
        lab = canonicalize_assignment(pts, lab, ctr, r)
    d = ctr.shape[1]
    a = np.full((k, k), np.inf)
    tie = np.full((k, k, d), np.nan)
    if len(pts):
        F = pairwise_power_distances(pts, ctr, r)
        lex = lexicographic_rank(pts)
        for i in range(k):
            for j in range(i + 1, k):
                in_i = lab == i
                if not in_i.any():
                    a[i, j] = -np.inf
                    continue
                f = F[:, i] - F[:, j]
                fi = f[in_i]
                cut_f = fi.max()
                # Tie-break at the lexicographically largest cluster-i point
                # attaining the cut value.
                at = in_i & (f == cut_f)
                idx = np.flatnonzero(at)
                best = idx[np.argmax(lex[idx])]
                a[i, j] = cut_f
                tie[i, j] = pts[best]
    return AssignmentHalfspaces(centers=ctr, r=float(r), a=a, tie=tie)


def region_weights(regions: np.ndarray, k: int, weights: np.ndarray | None = None) -> np.ndarray:
    """The vector B = (b₀, b₁, …, b_k) of Definition 3.11: total weight per
    region, with index 0 holding the R0 (unassigned) mass."""
    reg = np.asarray(regions)
    w = np.ones(len(reg)) if weights is None else np.asarray(weights, dtype=np.float64)
    out = np.zeros(k + 1)
    out[0] = w[reg == UNASSIGNED].sum()
    for i in range(k):
        out[i + 1] = w[reg == i].sum()
    return out


def transferred_assignment(
    regions: np.ndarray,
    B: np.ndarray,
    xi: float,
    T: float,
) -> np.ndarray:
    """Definition 3.11: the transferred assignment mapping.

    Points in region R_i with estimated mass ``b_i ≥ 2ξT`` stay with z_i;
    everything else (R0 and under-populated regions) is sent to the center
    of the largest-estimate region i* = argmax_{i∈[k]} b_i.

    ``regions`` uses this module's convention (−1 = R0, i ∈ [0,k) = R_{i+1}
    in paper numbering); ``B`` is the (k+1,) vector from
    :func:`region_weights`.  Returns center labels in [0, k).
    """
    reg = np.asarray(regions)
    B = np.asarray(B, dtype=np.float64)
    k = B.shape[0] - 1
    i_star = int(np.argmax(B[1:]))
    keep = B[1:] >= 2.0 * xi * T
    out = np.full(len(reg), i_star, dtype=np.int64)
    for i in range(k):
        if keep[i]:
            out[reg == i] = i
    return out
