"""Cross-cutting property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.assignment.capacitated import capacitated_assignment, cluster_sizes
from repro.core.halfspace import (
    canonicalize_assignment,
    halfspaces_from_assignment,
    is_halfspace_consistent,
)
from repro.metrics.costs import capacitated_cost, uncapacitated_cost
from repro.streaming.sketch import IBLTSketch
from repro.streaming.storing import ExactStoring, SketchStoring
from repro.utils.validation import FailedConstruction


points_strategy = st.integers(min_value=0, max_value=30)


@st.composite
def small_instance(draw, max_n=12, max_k=3):
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max_k))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 32, size=(n, 2)).astype(float)
    ctr = rng.integers(0, 32, size=(k, 2)).astype(float)
    return pts, ctr, k


class TestAssignmentInvariants:
    @given(small_instance())
    @settings(max_examples=30, deadline=None)
    def test_capacitated_cost_at_least_uncapacitated(self, inst):
        pts, ctr, k = inst
        t = int(np.ceil(len(pts) / k)) + 1
        cap = capacitated_cost(pts, ctr, t)
        free = uncapacitated_cost(pts, ctr)
        assert cap >= free - 1e-6

    @given(small_instance())
    @settings(max_examples=30, deadline=None)
    def test_assignment_covers_all_weight(self, inst):
        pts, ctr, k = inst
        t = int(np.ceil(len(pts) / k)) + 1
        res = capacitated_assignment(pts, ctr, t)
        assert res.feasible
        assert cluster_sizes(res.labels, k).sum() == pytest.approx(len(pts))

    @given(small_instance(), st.floats(min_value=1.0, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_capacity(self, inst, slack):
        pts, ctr, k = inst
        t0 = int(np.ceil(len(pts) / k))
        c_tight = capacitated_cost(pts, ctr, t0 + 1)
        c_loose = capacitated_cost(pts, ctr, (t0 + 1) * slack)
        assert c_loose <= c_tight + 1e-6


class TestHalfspaceInvariants:
    @given(small_instance(max_k=3))
    @settings(max_examples=25, deadline=None)
    def test_canonicalization_idempotent(self, inst):
        pts, ctr, k = inst
        rng = np.random.default_rng(0)
        lab = rng.integers(0, k, size=len(pts))
        once = canonicalize_assignment(pts, lab, ctr)
        twice = canonicalize_assignment(pts, once, ctr)
        assert np.array_equal(once, twice)

    @given(small_instance(max_k=3))
    @settings(max_examples=25, deadline=None)
    def test_halfspaces_induce_consistent_assignment(self, inst):
        pts, ctr, k = inst
        # Distinct points required for exact region reproduction.
        pts = np.unique(pts, axis=0)
        assume(len(pts) >= 2)
        rng = np.random.default_rng(1)
        lab = rng.integers(0, k, size=len(pts))
        H = halfspaces_from_assignment(pts, lab, ctr)
        regions = H.regions(pts)
        assert is_halfspace_consistent(pts, regions, ctr)


class TestSketchLinearity:
    @given(st.lists(st.tuples(points_strategy, st.sampled_from([1, -1])),
                    min_size=0, max_size=30),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_iblt_is_a_linear_map(self, updates, seed):
        """sketch(A) + sketch(B) decodes like sketch(A ++ B)."""
        a = IBLTSketch(64, 16, seed=seed)
        b = IBLTSketch(64, 16, seed=seed)
        combined = IBLTSketch(64, 16, seed=seed)
        for i, (key, sign) in enumerate(updates):
            target = a if i % 2 == 0 else b
            target.update_many([key], [sign])
            combined.update_many([key], [sign])
        # Merge a and b bucket-wise (linearity).
        merged = IBLTSketch(64, 16, seed=seed)
        merged.merge_from(a)
        merged.merge_from(b)
        try:
            want = combined.decode()
        except Exception:
            return  # decode failure is allowed; linearity is about content
        assert merged.decode() == want

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 12)),
                    min_size=0, max_size=24),
           st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_storing_backends_agree_under_random_churn(self, ops, seed):
        ex = ExactStoring(64, 3)
        sk = SketchStoring(64, 3, cell_universe_bits=8, point_universe_bits=8,
                           seed=seed)
        live = set()
        for cell, pt in ops:
            sign = -1 if (cell, pt) in live else 1
            (live.add if sign == 1 else live.discard)((cell, pt))
            ex.update_many([cell], [pt], [sign])
            sk.update_many([cell], [pt], [sign])
        try:
            rs = sk.result()
        except FailedConstruction:
            return  # probabilistic decode failure is allowed (cf. linearity
            # test above); agreement is only claimed for successful decodes
        re_ = ex.result()
        assert re_.cells == rs.cells
        assert re_.small_points == rs.small_points


class TestCoresetInvariants:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=8, deadline=None)
    def test_coreset_points_subset_weights_positive(self, seed):
        from repro.core import CoresetParams, build_coreset_auto
        from repro.data.synthetic import gaussian_mixture

        pts = np.unique(gaussian_mixture(600, 2, 128, k=2, seed=seed), axis=0)
        params = CoresetParams.practical(k=2, d=2, delta=128)
        cs = build_coreset_auto(pts, params, seed=seed)
        assert (cs.weights > 0).all()
        input_set = set(map(tuple, pts.tolist()))
        assert all(tuple(p) in input_set for p in cs.points.tolist())
        # No duplicate coreset points (Q' is a subset, not a multiset).
        assert len(set(map(tuple, cs.points.tolist()))) == len(cs)
