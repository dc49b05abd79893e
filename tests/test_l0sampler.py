"""Tests for the ℓ₀ distinct sampler and the auto-pilot streaming driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CoresetParams
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream, insertion_stream
from repro.streaming import StreamingCoreset, materialize
from repro.streaming.l0sampler import DistinctSampler


def feed(sampler, keys, sign):
    """Insert (+1) or delete (−1) every key of ``keys`` as one batch."""
    keys = np.asarray(list(keys), dtype=np.int64)
    sampler.update_many(keys, np.full(len(keys), sign, dtype=np.int64))


class TestDistinctSampler:
    def test_small_live_set_fully_recovered(self):
        s = DistinctSampler(64, 32, seed=1)
        feed(s, range(30), +1)
        keys, est = s.sample()
        assert sorted(keys) == list(range(30))
        assert est == pytest.approx(30.0)

    def test_deletions_respected(self):
        s = DistinctSampler(64, 32, seed=2)
        feed(s, range(40), +1)
        feed(s, range(35), -1)
        keys, est = s.sample()
        assert sorted(keys) == list(range(35, 40))

    def test_empty_stream(self):
        s = DistinctSampler(16, 32, seed=3)
        keys, est = s.sample()
        assert keys == [] and est == 0.0

    def test_large_live_set_sampled(self):
        s = DistinctSampler(32, 40, seed=4)
        n = 5000
        feed(s, range(n), +1)
        keys, est = s.sample()
        assert 0 < len(keys) <= 4 * 32 * 2
        assert est == pytest.approx(n, rel=0.6)  # coarse (one level granularity)
        assert all(0 <= k < n for k in keys)

    def test_sample_roughly_uniform(self):
        """Keys below/above the median are sampled in similar proportions."""
        s = DistinctSampler(128, 40, seed=5)
        n = 20000
        feed(s, range(n), +1)
        keys, _ = s.sample()
        low = sum(1 for k in keys if k < n // 2)
        assert 0.25 < low / len(keys) < 0.75

    def test_insert_delete_churn_equivalence(self):
        a = DistinctSampler(32, 32, seed=6)
        b = DistinctSampler(32, 32, seed=6)
        # a: insert 0..99, delete evens;  b: insert odds only.
        feed(a, range(100), +1)
        feed(a, range(0, 100, 2), -1)
        feed(b, range(1, 100, 2), +1)
        assert sorted(a.sample()[0]) == sorted(b.sample()[0])

    def test_space_bits_positive(self):
        s = DistinctSampler(16, 32, seed=7)
        assert s.space_bits() > 0


class TestAutoPilotStreaming:
    def test_auto_pilot_without_o_range(self):
        """End-to-end: no o_range, no external pilot — still compresses and
        stays correct under deletions."""
        pts = np.unique(gaussian_mixture(4000, 2, 256, k=3, spread=0.03, seed=9),
                        axis=0)
        params = CoresetParams.practical(k=3, d=2, delta=256)
        stream = churn_stream(pts, delete_fraction=0.4, seed=4)
        survivors = materialize(stream, d=2)
        sc = StreamingCoreset(params, seed=19, backend="exact")
        sc.process(stream)
        cs = sc.finalize()
        surv_set = set(map(tuple, survivors.tolist()))
        assert all(tuple(p) in surv_set for p in cs.points.tolist())
        assert cs.total_weight == pytest.approx(len(survivors), rel=0.3)
        # The pilot must have anchored a reasonably large o (compression or
        # at least not the degenerate smallest guess).
        assert cs.o >= 64

    def test_auto_pilot_matches_manual_window(self):
        pts = np.unique(gaussian_mixture(3000, 2, 256, k=3, spread=0.03, seed=10),
                        axis=0)
        params = CoresetParams.practical(k=3, d=2, delta=256)
        stream = insertion_stream(pts, seed=2)
        auto = StreamingCoreset(params, seed=23, backend="exact")
        auto.process(stream)
        cs_auto = auto.finalize()
        from repro.solvers.pilot import estimate_opt_cost

        pilot = estimate_opt_cost(pts, 3, r=2.0, seed=1)
        manual = StreamingCoreset(params, seed=23, backend="exact",
                                  o_range=(pilot / 64, pilot / 4))
        manual.process(stream)
        cs_manual = manual.finalize()
        # Same ballpark guess (within a factor of 8) and similar size.
        assert 0.125 <= cs_auto.o / cs_manual.o <= 8.0
