"""Maximum flow (Dinic's algorithm), implemented from scratch.

Used for feasibility checks where costs don't matter — notably the
bottleneck (k-center) assignment, where each binary-search step asks "can
all points be routed to centers within radius ρ under the capacities?".
Dinic runs in O(E·√V) on unit-ish bipartite networks, much faster than
posing each check as a transportation solve with 0/1 costs.
"""

from __future__ import annotations

from collections import deque

__all__ = ["MaxFlow"]


class MaxFlow:
    """Directed flow network with integer capacities (Dinic's algorithm)."""

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        self.n = int(num_nodes)
        self.graph: list[list[int]] = [[] for _ in range(self.n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add arc u→v; returns the edge id (flow readable afterwards)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        eid = len(self.to)
        self.graph[u].append(eid)
        self.to.append(v)
        self.cap.append(int(capacity))
        self.graph[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)
        return eid

    def edge_flow(self, edge_id: int) -> int:
        """Flow routed through forward edge ``edge_id``."""
        return self.cap[edge_id ^ 1]

    def _bfs_levels(self, s: int, t: int):
        level = [-1] * self.n
        level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for eid in self.graph[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    dq.append(v)
        return level if level[t] >= 0 else None

    def _dfs_block(self, u: int, t: int, pushed: int, level, it):
        if u == t:
            return pushed
        while it[u] < len(self.graph[u]):
            eid = self.graph[u][it[u]]
            v = self.to[eid]
            if self.cap[eid] > 0 and level[v] == level[u] + 1:
                got = self._dfs_block(v, t, min(pushed, self.cap[eid]), level, it)
                if got > 0:
                    self.cap[eid] -= got
                    self.cap[eid ^ 1] += got
                    return got
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        """Maximum s→t flow value."""
        if s == t:
            raise ValueError("source and sink must differ")
        flow = 0
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._dfs_block(s, t, 1 << 62, level, it)
                if pushed == 0:
                    break
                flow += pushed
