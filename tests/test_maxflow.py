"""Tests for the from-scratch Dinic max-flow solver."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.assignment.maxflow import MaxFlow


class TestMaxFlow:
    def test_single_edge(self):
        net = MaxFlow(2)
        net.add_edge(0, 1, 7)
        assert net.max_flow(0, 1) == 7

    def test_series_bottleneck(self):
        net = MaxFlow(3)
        net.add_edge(0, 1, 10)
        net.add_edge(1, 2, 4)
        assert net.max_flow(0, 2) == 4

    def test_parallel_paths(self):
        net = MaxFlow(4)
        net.add_edge(0, 1, 3)
        net.add_edge(1, 3, 3)
        net.add_edge(0, 2, 5)
        net.add_edge(2, 3, 5)
        assert net.max_flow(0, 3) == 8

    def test_classic_diamond_with_cross_edge(self):
        net = MaxFlow(4)
        net.add_edge(0, 1, 10)
        net.add_edge(0, 2, 10)
        net.add_edge(1, 2, 1)
        net.add_edge(1, 3, 10)
        net.add_edge(2, 3, 10)
        assert net.max_flow(0, 3) == 20

    def test_disconnected(self):
        net = MaxFlow(3)
        net.add_edge(0, 1, 5)
        assert net.max_flow(0, 2) == 0

    def test_edge_flow_readback(self):
        net = MaxFlow(3)
        e = net.add_edge(0, 1, 5)
        net.add_edge(1, 2, 3)
        net.max_flow(0, 2)
        assert net.edge_flow(e) == 3

    def test_validation(self):
        net = MaxFlow(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 5, 1)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1)
        with pytest.raises(ValueError):
            net.max_flow(0, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_mincostflow_value(self, seed):
        """Max-flow value equals the minimum s–t cut, by enumerating all 2⁶
        cuts of a seeded 8-node graph (max-flow/min-cut theorem)."""
        rng = np.random.default_rng(seed)
        n = 8
        edges = []
        for _ in range(20):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.append((int(u), int(v), int(rng.integers(1, 9))))
        net = MaxFlow(n)
        for u, v, c in edges:
            net.add_edge(u, v, c)
        cuts = []
        for inner in itertools.product((False, True), repeat=n - 2):
            side = {0} | {i + 1 for i, on in enumerate(inner) if on}
            cuts.append(sum(c for u, v, c in edges if u in side and v not in side))
        assert net.max_flow(0, n - 1) == min(cuts)

    def test_bipartite_saturation(self):
        # 6 sources, 2 sinks cap 3 each: perfect saturation.
        net = MaxFlow(10)
        s, t = 8, 9
        for i in range(6):
            net.add_edge(s, i, 1)
            net.add_edge(i, 6 + (i % 2), 1)
        net.add_edge(6, t, 3)
        net.add_edge(7, t, 3)
        assert net.max_flow(s, t) == 6
