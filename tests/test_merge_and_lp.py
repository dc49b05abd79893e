"""Tests for streaming-state merging and the LP-rounding solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CoresetParams
from repro.data.synthetic import gaussian_mixture, unbalanced_mixture
from repro.data.workloads import insertion_stream
from repro.solvers.lp_rounding import lp_rounding_capacitated
from repro.solvers.pilot import estimate_opt_cost
from repro.streaming import StreamingCoreset
from repro.streaming.merge import merge_streaming_states, merge_storing
from repro.streaming.storing import ExactStoring, SketchStoring


class TestMergeStoring:
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_merge_equals_sequential(self, backend):
        def make():
            if backend == "exact":
                return ExactStoring(32, 4)
            return SketchStoring(32, 4, cell_universe_bits=16,
                                 point_universe_bits=16, seed=3)

        a, b, ref = make(), make(), make()
        ops_a = [(1, 10, 1), (1, 11, 1), (2, 20, 1)]
        ops_b = [(1, 10, -1), (3, 30, 1)]
        for store, ops in ((a, ops_a), (b, ops_b), (ref, ops_a + ops_b)):
            cells, pts, signs = zip(*ops)
            store.update_many(list(cells), list(pts), list(signs))
        merged = merge_storing(a, b)
        assert merged.result().cells == ref.result().cells
        assert merged.result().small_points == ref.result().small_points

    def test_mismatched_budgets_rejected(self):
        with pytest.raises(ValueError):
            merge_storing(ExactStoring(8, 2), ExactStoring(16, 2))

    def test_mixed_backends_rejected(self):
        with pytest.raises(ValueError):
            merge_storing(ExactStoring(8, 2),
                          SketchStoring(8, 2, 16, 16, seed=0))


class TestMergeStreaming:
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_sharded_equals_single_stream(self, backend):
        pts = np.unique(gaussian_mixture(1200, 2, 256, k=3, seed=61), axis=0)
        params = CoresetParams.practical(k=3, d=2, delta=256)
        pilot = estimate_opt_cost(pts, 3, r=2.0, seed=1)
        orange = (pilot / 16, pilot / 4)
        half = len(pts) // 2

        whole = StreamingCoreset(params, seed=41, backend=backend, o_range=orange)
        whole.process(insertion_stream(pts, seed=9))
        want = whole.finalize()

        s1 = StreamingCoreset(params, seed=41, backend=backend, o_range=orange)
        s2 = StreamingCoreset(params, seed=41, backend=backend, o_range=orange)
        # Shard by the same global order so the union matches exactly.
        events = list(insertion_stream(pts, seed=9))
        s1.process(events[:half])
        s2.process(events[half:])
        merged = merge_streaming_states(s1, s2)
        got = merged.finalize()
        assert got.o == want.o
        assert sorted(map(tuple, got.points.tolist())) == sorted(
            map(tuple, want.points.tolist())
        )

    def test_merge_different_seeds_rejected(self):
        params = CoresetParams.practical(k=2, d=2, delta=64)
        a = StreamingCoreset(params, seed=1, backend="exact", o_range=(8, 8))
        b = StreamingCoreset(params, seed=2, backend="exact", o_range=(8, 8))
        with pytest.raises(ValueError):
            merge_streaming_states(a, b)

    def test_merge_different_params_rejected(self):
        a = StreamingCoreset(CoresetParams.practical(k=2, d=2, delta=64),
                             seed=1, backend="exact", o_range=(8, 8))
        b = StreamingCoreset(CoresetParams.practical(k=3, d=2, delta=64),
                             seed=1, backend="exact", o_range=(8, 8))
        with pytest.raises(ValueError):
            merge_streaming_states(a, b)


class TestLPRounding:
    def test_respects_capacity_and_beats_lp_modestly(self):
        pts = unbalanced_mixture(600, 2, 256, k=3, imbalance=5.0,
                                 seed=71).astype(float)
        t = len(pts) / 3 * 1.15
        sol = lp_rounding_capacitated(pts, 3, t, seed=2)
        assert sol.sizes.max() <= t * (1 + 1e-6) + 2  # k-1 split points
        assert sol.lp_gap >= 1.0 - 1e-9
        assert sol.lp_gap < 4.0  # rounding within a small constant of the LP

    def test_comparable_to_alternating_solver(self):
        from repro.solvers import CapacitatedKClustering

        pts = gaussian_mixture(600, 2, 256, k=3, seed=72).astype(float)
        t = len(pts) / 3 * 1.2
        lp = lp_rounding_capacitated(pts, 3, t, seed=3)
        alt = CapacitatedKClustering(k=3, capacity=t, restarts=2, seed=3).fit(pts)
        assert lp.cost <= 3.0 * alt.cost
        assert alt.cost <= 3.0 * lp.cost

    def test_weighted_instance(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 100, size=(80, 2))
        w = rng.uniform(0.5, 2.0, size=80)
        t = w.sum() / 2 * 1.2
        sol = lp_rounding_capacitated(pts, 2, t, weights=w, seed=5)
        assert sol.labels.shape == (80,)
        assert sol.sizes.sum() == pytest.approx(w.sum())

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            lp_rounding_capacitated(np.zeros((10, 2)), 2, 3.0)
