"""Capacitated assignment of (weighted) points to fixed centers (Section 3.3).

Given centers Z and capacity t, the optimal *fractional* assignment is a
transportation problem.  The paper (Section 3.3) solves it by min-cost flow
and then observes that canceling cycles in the support graph leaves a forest,
so at most k−1 points have their weight split among several centers; those
are rounded to a single center, violating capacities by at most
(k−1)·max-weight ≤ η·|Q|/k for coreset weights.

This module implements that pipeline with two solution methods:

``auto``    successive shortest paths over the k centers (numpy only,
            exact): every point starts at its nearest center and excess is
            pushed along shortest paths of the k-node residual graph, which
            is all Lemma 3.8's k additive offsets need;
``greedy``  regret-ordered greedy with capacity repair (no optimality
            guarantee; used inside iterative solvers where speed matters).

HiGHS on the transportation LP (``_solve_transportation_lp``) is the private
oracle that the tests and ``make bench-smoke`` check ``auto`` against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.metrics.distances import pairwise_power_distances

__all__ = [
    "AssignmentResult",
    "capacitated_assignment",
    "assignment_cost",
    "cluster_sizes",
    "forestify_support",
]


@dataclass
class AssignmentResult:
    """An assignment of n weighted points to k centers.

    Attributes
    ----------
    labels:
        Integer array (n,) giving each point's center, or ``None`` when the
        instance is infeasible.
    cost:
        Total ℓr cost Σ w(p)·dist^r(p, z_label(p)); ``inf`` when infeasible.
    fractional_cost:
        Optimal transportation (fractional) cost — a lower bound on any
        integral assignment's cost.
    sizes:
        Weighted cluster sizes under ``labels``.
    capacity:
        The per-center capacities the instance was solved with.
    num_split:
        How many points the fractional optimum split across centers (≤ k−1
        after forestification, per the paper's argument).
    """

    labels: np.ndarray | None
    cost: float
    fractional_cost: float
    sizes: np.ndarray = field(default=None)
    capacity: np.ndarray = field(default=None)
    num_split: int = 0

    @property
    def feasible(self) -> bool:
        """Whether an assignment within the capacities exists."""
        return self.labels is not None

    def max_violation(self) -> float:
        """Multiplicative capacity violation max_i sizes_i / capacity_i (≥ 1)."""
        if self.labels is None:
            return math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(self.sizes > 0, self.sizes / self.capacity, 0.0)
        return float(max(1.0, ratio.max())) if ratio.size else 1.0


def _as_capacities(t, k: int) -> np.ndarray:
    caps = np.asarray(t, dtype=np.float64)
    if caps.ndim == 0:
        caps = np.full(k, float(caps))
    if caps.shape != (k,):
        raise ValueError(f"capacity must be scalar or shape ({k},)")
    if np.isnan(caps).any() or caps.min() < 0:
        raise ValueError("capacities must be non-negative numbers")
    return caps


def cluster_sizes(labels: np.ndarray, k: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted size vector s(π) of Definition 3.6."""
    if weights is None:
        weights = np.ones(len(labels))
    return np.bincount(np.asarray(labels), weights=weights, minlength=k).astype(np.float64)


def assignment_cost(
    points: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    r: float = 2.0,
    weights: np.ndarray | None = None,
) -> float:
    """cost^(r)(π) = Σ w(p) · dist^r(p, π(p)) for an explicit assignment."""
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.asarray(centers, dtype=np.float64)
    lab = np.asarray(labels)
    diff = pts - ctr[lab]
    dr = np.linalg.norm(diff, axis=1) ** r
    if weights is not None:
        dr = dr * np.asarray(weights, dtype=np.float64)
    return float(dr.sum())


# ---------------------------------------------------------------------------
# LP (HiGHS) transportation solve: the oracle for ``auto``
# ---------------------------------------------------------------------------

def _solve_transportation_lp(D: np.ndarray, w: np.ndarray, caps: np.ndarray):
    """Solve min <D, X> s.t. X·1 = w, Xᵀ·1 ≤ caps, X ≥ 0 via HiGHS.

    The reference the exact solve is tested against (a basic, hence
    forest-support, optimum); no production path calls it.  Returns the flow
    matrix (n, k) or ``None`` if infeasible.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n, k = D.shape
    nv = n * k
    # Equality: each point's weight fully assigned.
    rows = np.repeat(np.arange(n), k)
    cols = np.arange(nv)
    a_eq = sparse.csr_matrix((np.ones(nv), (rows, cols)), shape=(n, nv))
    # Inequality: center loads within capacity.
    rows_ub = np.tile(np.arange(k), n)
    a_ub = sparse.csr_matrix((np.ones(nv), (rows_ub, cols)), shape=(k, nv))
    res = linprog(
        c=D.reshape(-1),
        A_eq=a_eq,
        b_eq=w,
        A_ub=a_ub,
        b_ub=caps,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        return None
    return res.x.reshape(n, k)


# ---------------------------------------------------------------------------
# Exact transportation solve over the k centers (successive shortest paths)
# ---------------------------------------------------------------------------

# Relative round-off allowance: a Bellman–Ford relaxation must beat the
# current distance by more than this times the magnitudes it adds, and
# excess or room below this times the total weight counts as none.
_SSP_RTOL = 1e-12


def _solve_transportation_ssp(D: np.ndarray, w: np.ndarray, caps: np.ndarray):
    """Solve min <D, X> s.t. X·1 = w, Xᵀ·1 ≤ caps, X ≥ 0 by successive
    shortest paths over the k centers.

    Every point starts at its nearest center, which is min-cost for the
    loads it makes but may overfill some centers.  Each push then moves
    excess from an overloaded center to one with room along a shortest path
    of the residual graph, collapsed to the k centers (Lemma 3.8: an
    optimum is k additive offsets): edge j → j′ costs
    min D[i, j′] − D[i, j] over the points i with flow on j, and carries up
    to that point's flow on j.  Shortest-path pushes keep the flow min-cost
    for its loads (Ahuja–Magnanti–Orlin, *Network Flows*, ch. 9), so it
    ends optimal.  A push moves only the points on its path, so the edge
    minima are kept incrementally: a point arriving on a center lowers that
    center's row in O(k), and a center's row is recomputed only when a point
    that was one of its minima leaves it.  Bellman–Ford relaxes an edge only
    when it gains more than the round-off of the sum, which keeps float ties
    from closing cycles; when round-off still closes a (tiny) negative
    cycle, the walk back from the sink finds it and that push cancels it.

    Returns ``(X, pushes)`` (cycle cancellations count as pushes).  Every
    point's weight is placed, and an overloaded center always has an edge
    to each center with room, so the flow fits ``caps`` whenever
    ``w.sum() <= caps.sum()``.
    """
    n, k = D.shape
    nearest = D.argmin(axis=1)
    X = np.zeros((n, k))
    X[np.arange(n), nearest] = w
    excess = np.bincount(nearest, weights=w, minlength=k) - caps
    tol = _SSP_RTOL * float(w.sum())
    if excess.max() <= tol:
        return X, 0
    room = np.maximum(-excess, 0.0)
    excess = np.maximum(excess, 0.0)
    cols = np.arange(k)
    gap = np.empty((k, k))
    via = np.empty((k, k), dtype=np.intp)

    def refresh(j: int) -> None:
        on_j = np.flatnonzero(X[:, j] > 0)
        if len(on_j) == 0:
            gap[j] = np.inf
            return
        moves = D[on_j] - D[on_j, j, None]
        best = moves.argmin(axis=0)
        gap[j] = moves[best, cols]
        via[j] = on_j[best]
        gap[j, j] = np.inf

    for j in range(k):
        refresh(j)
    pushes = 0
    while True:
        sources, sinks = excess > tol, room > tol
        if not (sources.any() and sinks.any()):
            return X, pushes
        dist = np.where(sources, 0.0, np.inf)
        pred = np.full(k, -1)
        for _ in range(k):
            cand = dist[:, None] + gap
            u = cand.argmin(axis=0)
            best = cand[u, cols]
            better = best + _SSP_RTOL * (np.abs(dist[u]) + np.abs(gap[u, cols])) < dist
            if not better.any():
                break
            dist[better] = best[better]
            pred[better] = u[better]
        t = int(np.where(sinks, dist, np.inf).argmin())
        path, seen = [], [t]
        while pred[seen[-1]] >= 0:
            v = seen[-1]
            u = int(pred[v])
            path.append((u, v, int(via[u, v])))
            if u in seen:
                # Cancelling keeps every load and lowers the cost.
                path = path[seen.index(u):]
                delta = min(X[i, u] for u, _, i in path)
                break
            seen.append(u)
        else:
            s = seen[-1]
            delta = min(excess[s], room[t], *(X[i, u] for u, _, i in path))
            excess[s] -= delta
            room[t] -= delta
        for u, v, i in path:
            X[i, u] -= delta
            X[i, v] += delta
        stale = set()
        for u, v, i in path:
            moves = D[i] - D[i, v]
            moves[v] = np.inf
            lower = moves < gap[v]
            gap[v, lower] = moves[lower]
            via[v, lower] = i
            if X[i, u] == 0 and (via[u] == i).any():
                stale.add(u)
        for j in stale:
            refresh(j)
        pushes += 1


# ---------------------------------------------------------------------------
# Forestification / integralization (the paper's cycle-canceling procedure)
# ---------------------------------------------------------------------------

#: Flow at or below this counts as no support edge in :func:`forestify_support`.
_SUPPORT_TOL = 1e-9


def forestify_support(X: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Cancel cycles in the bipartite support of a transportation solution.

    Section 3.3, steps 1-4: while the support graph (points ∪ centers, an
    edge when flow > 0) contains a cycle, shift the minimum cycle flow around
    the cycle in the cost-non-increasing direction (for an optimal ``X`` both
    directions have zero cost change); one support edge drops per iteration,
    so the result's support is a forest and at most k−1 points remain
    fractionally split.  ``D`` is the (n, k) cost matrix used to pick the
    direction.  A support that is already a forest (every basic optimum,
    e.g. HiGHS's) is recognised by a union-find over its split points and
    returned as a copy without the cycle search.
    """
    X = X.copy()
    if _support_is_forest(X, _SUPPORT_TOL):
        return X
    while True:
        cycle = _find_support_cycle(X, _SUPPORT_TOL)
        if cycle is None:
            return X
        # The cycle alternates arcs sharing a point / a center, so adding +a
        # to even arcs and -a to odd arcs preserves all row and column sums.
        plus, minus = cycle[0::2], cycle[1::2]
        delta_cost = sum(D[i, j] for (i, j) in plus) - sum(D[i, j] for (i, j) in minus)
        if delta_cost > 0:
            plus, minus = minus, plus
        a = min(X[i, j] for (i, j) in minus)
        for (i, j) in plus:
            X[i, j] += a
        for (i, j) in minus:
            X[i, j] -= a
            if X[i, j] < _SUPPORT_TOL:
                X[i, j] = 0.0


def _support_is_forest(X: np.ndarray, tol: float) -> bool:
    """Whether the bipartite support graph is acyclic.

    Points with one support edge are leaves and never close a cycle.  The
    others each join their centers; a forest has edges = nodes −
    components, so with s such points (≥ 2 edges each) it needs s ≤ k − 1,
    and a union-find over the k centers finds the first point that joins
    two already connected centers.
    """
    support = X > tol
    split = np.flatnonzero(np.count_nonzero(support, axis=1) > 1)
    k = X.shape[1]
    if len(split) >= k:
        return False
    root = list(range(k))

    def find(c: int) -> int:
        while root[c] != c:
            c = root[c]
        return c

    for i in split.tolist():
        first, *rest = np.flatnonzero(support[i]).tolist()
        first = find(first)
        for c in rest:
            r = find(c)
            if r == first:
                return False
            root[r] = first
    return True


def _find_support_cycle(X: np.ndarray, tol: float):
    """Find one simple cycle in the bipartite support graph, or ``None``.

    Returns the cycle as an alternating arc list [(i0,j0),(i1,j0),(i1,j1),…]
    where even-indexed arcs will receive +a flow and odd-indexed arcs -a.
    """
    n, k = X.shape
    # Adjacency: point -> centers with positive flow.
    pt_adj = [np.flatnonzero(X[i] > tol) for i in range(n)]
    ctr_adj: list[list[int]] = [[] for _ in range(k)]
    for i in range(n):
        for j in pt_adj[i]:
            ctr_adj[j].append(i)
    # A bipartite graph has a cycle iff #edges > #vertices(touched) - #components.
    # DFS from each unvisited point, tracking the path.
    visited_pt = [False] * n
    visited_ctr = [False] * k
    for start in range(n):
        if visited_pt[start] or len(pt_adj[start]) == 0:
            continue
        # Iterative DFS over (node, is_point, parent) with path reconstruction.
        parent_of_pt: dict[int, int] = {}
        parent_of_ctr: dict[int, int] = {}
        stack = [(start, True, -1)]
        while stack:
            node, is_pt, par = stack.pop()
            if is_pt:
                if visited_pt[node]:
                    continue
                visited_pt[node] = True
                parent_of_pt[node] = par
                for j in pt_adj[node]:
                    if j == par:
                        continue
                    if visited_ctr[j]:
                        return _reconstruct_cycle(node, int(j), parent_of_pt, parent_of_ctr)
                    stack.append((int(j), False, node))
            else:
                if visited_ctr[node]:
                    continue
                visited_ctr[node] = True
                parent_of_ctr[node] = par
                for i in ctr_adj[node]:
                    if i == par:
                        continue
                    if visited_pt[i]:
                        return _reconstruct_cycle(int(i), node, parent_of_pt, parent_of_ctr)
                    stack.append((int(i), True, node))
    return None


def _reconstruct_cycle(pt: int, ctr: int, parent_of_pt: dict, parent_of_ctr: dict):
    """Build the alternating arc cycle closing edge (pt, ctr)."""
    # Walk up from both endpoints to the root, find the meeting point.
    path_pt = _ancestors(pt, True, parent_of_pt, parent_of_ctr)
    path_ctr = _ancestors(ctr, False, parent_of_pt, parent_of_ctr)
    set_pt = {(n, b) for (n, b) in path_pt}
    lca_idx = next(i for i, nb in enumerate(path_ctr) if nb in set_pt)
    lca = path_ctr[lca_idx]
    up_pt = path_pt[: path_pt.index(lca) + 1]
    up_ctr = path_ctr[: lca_idx + 1]
    # Node cycle: pt -> ... -> lca -> ... -> ctr -> pt.
    nodes = up_pt + list(reversed(up_ctr[:-1])) + [(pt, True)]
    arcs = []
    for a, b in zip(nodes[:-1], nodes[1:]):
        (na, pa), (nb, pb) = a, b
        arcs.append((na, nb) if pa else (nb, na))
    # Rotate so arcs alternate starting with a "+": arcs[0] gets +a.  Any
    # alternating orientation works; we keep construction order.
    return arcs


def _ancestors(node: int, is_pt: bool, parent_of_pt: dict, parent_of_ctr: dict):
    out = []
    cur, flag = node, is_pt
    while cur != -1:
        out.append((cur, flag))
        cur = parent_of_pt[cur] if flag else parent_of_ctr[cur]
        flag = not flag
    return out


# ---------------------------------------------------------------------------
# Greedy method (fast, approximate; used inside iterative solvers)
# ---------------------------------------------------------------------------

def _greedy_assignment(D: np.ndarray, w: np.ndarray, caps: np.ndarray):
    """Regret-ordered greedy: points with the largest best-vs-second-best gap
    pick first; each point takes its cheapest center with remaining capacity
    (falling back to the globally least-loaded center if none fits).

    The loop runs over Python floats: same IEEE results as numpy float64,
    and ``max`` over ``range(k)`` keeps the first maximum like ``np.argmax``.
    """
    n, k = D.shape
    order = np.argsort(-(np.partition(D, 1, axis=1)[:, 1] - D.min(axis=1))) if k > 1 else np.arange(n)
    remaining = caps.astype(np.float64).tolist()
    weight = np.asarray(w, dtype=np.float64).tolist()
    pref = np.argsort(D, axis=1).tolist()
    labels = [0] * n
    for i in order.tolist():
        wi = weight[i]
        need = wi - 1e-12
        for j in pref[i]:
            if remaining[j] >= need:
                break
        else:
            j = max(range(k), key=remaining.__getitem__)
        labels[i] = j
        remaining[j] -= wi
    return np.asarray(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------

def capacitated_assignment(
    points: np.ndarray,
    centers: np.ndarray,
    t,
    r: float = 2.0,
    weights: np.ndarray | None = None,
    method: str = "auto",
    integral: bool = True,
) -> AssignmentResult:
    """Optimally assign weighted points to fixed centers under capacities.

    Parameters
    ----------
    points, centers:
        (n, d) and (k, d) arrays (any numeric dtype).
    t:
        Capacity — a scalar (uniform, the paper's setting) or a (k,) vector.
    r:
        The ℓr exponent (r=1 k-median, r=2 k-means).
    weights:
        Optional finite non-negative point weights (coresets); default
        all-ones.
    method:
        ``"auto"`` (the exact successive-shortest-path solve over the k
        centers) | ``"greedy"`` (fast, not optimal).
    integral:
        If True, round the fractional optimum to an integral assignment via
        forestification + nearest-center rounding of the ≤ k−1 split points
        (Section 3.3).  ``cost`` then reports the integral assignment's cost
        and ``fractional_cost`` the LP optimum.
    """
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.asarray(centers, dtype=np.float64)
    n, k = pts.shape[0], ctr.shape[0]
    if k == 0:
        raise ValueError("centers must hold at least one center")
    if n == 0:
        return AssignmentResult(
            labels=np.empty(0, dtype=np.int64), cost=0.0, fractional_cost=0.0,
            sizes=np.zeros(k), capacity=_as_capacities(t, k),
        )
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if not (np.isfinite(w).all() and w.min() >= 0):
        raise ValueError("weights must be finite and non-negative")
    caps = _as_capacities(t, k)
    D = pairwise_power_distances(pts, ctr, r)

    if w.sum() > caps.sum() + 1e-9:
        return AssignmentResult(labels=None, cost=math.inf, fractional_cost=math.inf,
                                sizes=None, capacity=caps)

    if method == "greedy":
        labels = _greedy_assignment(D, w, caps)
        cost = float((D[np.arange(n), labels] * w).sum())
        return AssignmentResult(
            labels=labels, cost=cost, fractional_cost=cost,
            sizes=cluster_sizes(labels, k, w), capacity=caps,
        )

    if method != "auto":
        raise ValueError(f"unknown assignment method {method!r}")
    X, _ = _solve_transportation_ssp(D, w, caps)
    frac_cost = float((D * X).sum())
    if not integral:
        labels = np.asarray(X.argmax(axis=1), dtype=np.int64)
        return AssignmentResult(
            labels=labels, cost=frac_cost, fractional_cost=frac_cost,
            sizes=X.sum(axis=0), capacity=caps,
            num_split=int((np.count_nonzero(X > 1e-9 * max(1.0, w.max()), axis=1) > 1).sum()),
        )

    X = forestify_support(X, D)
    support_counts = np.count_nonzero(X > 1e-9 * max(1.0, w.max()), axis=1)
    num_split = int((support_counts > 1).sum())
    # Split points: all weight goes to the nearest center among their support
    # (the paper sends split points to the closest center).
    labels = np.where(
        support_counts <= 1,
        X.argmax(axis=1),
        np.where(X > 1e-9 * max(1.0, w.max()), D, np.inf).argmin(axis=1),
    ).astype(np.int64)
    # Points with zero support rows (numerical edge case) go to nearest center.
    zero_rows = support_counts == 0
    if zero_rows.any():
        labels[zero_rows] = D[zero_rows].argmin(axis=1)
    cost = float((D[np.arange(n), labels] * w).sum())
    return AssignmentResult(
        labels=labels, cost=cost, fractional_cost=frac_cost,
        sizes=cluster_sizes(labels, k, w), capacity=caps, num_split=num_split,
    )
