"""Tests for the Storing(G_i, α, β, δ) structures (Lemma 4.2)."""

from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.storing import ExactStoring, SketchStoring
from repro.utils.validation import FailedConstruction


def feed(store, *ops):
    """Apply ``(cell, point, sign)`` updates as one batch."""
    cells, pts, signs = zip(*ops)
    store.update_many(list(cells), list(pts), list(signs))


def both_storings(alpha=32, beta=8, recover=True, seed=0):
    return [
        ExactStoring(alpha, beta, recover_points=recover),
        SketchStoring(alpha, beta, cell_universe_bits=32,
                      point_universe_bits=48, seed=seed,
                      recover_points=recover),
    ]


class TestContract:
    @pytest.mark.parametrize("impl", range(2))
    def test_cells_and_counts(self, impl):
        s = both_storings()[impl]
        # Cell 1: 3 points; cell 2: 1 point.
        feed(s, (1, 100, +1), (1, 101, +1), (1, 102, +1), (2, 200, +1))
        res = s.result()
        assert res.cells == {1: 3, 2: 1}

    @pytest.mark.parametrize("impl", range(2))
    def test_small_cell_points_recovered(self, impl):
        s = both_storings(beta=2)[impl]
        feed(s, (1, 100, +1), (1, 101, +1),
             (2, 200, +1), (2, 201, +1), (2, 202, +1))  # cell 2: 3 > beta=2
        res = s.result()
        assert res.small_points[1] == {100: 1, 101: 1}
        assert 2 not in res.small_points

    @pytest.mark.parametrize("impl", range(2))
    def test_deletions(self, impl):
        s = both_storings()[impl]
        feed(s, (1, 100, +1), (1, 101, +1), (1, 100, -1))
        res = s.result()
        assert res.cells == {1: 1}
        assert res.small_points[1] == {101: 1}

    @pytest.mark.parametrize("impl", range(2))
    def test_full_deletion_empties(self, impl):
        s = both_storings()[impl]
        feed(s, *[(5, pk, +1) for pk in range(20)])
        feed(s, *[(5, pk, -1) for pk in range(20)])
        res = s.result()
        assert res.cells == {}

    @pytest.mark.parametrize("impl", range(2))
    def test_too_many_cells_fail(self, impl):
        s = both_storings(alpha=4)[impl]
        feed(s, *[(ck, ck * 1000, +1) for ck in range(50)])
        with pytest.raises(FailedConstruction):
            s.result()

    @pytest.mark.parametrize("impl", range(2))
    def test_no_point_recovery_mode(self, impl):
        s = both_storings(recover=False)[impl]
        feed(s, (1, 100, +1))
        res = s.result()
        assert res.cells == {1: 1}
        assert res.small_points == {}

    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 30)),
        min_size=0, max_size=40,
    ))
    @settings(max_examples=30, deadline=None)
    def test_property_sketch_matches_exact(self, inserts):
        """Random insert/delete sequences: sketch ≡ dictionary."""
        ex = ExactStoring(64, 4, recover_points=True)
        sk = SketchStoring(64, 4, cell_universe_bits=16,
                           point_universe_bits=16, seed=7, recover_points=True)
        live = set()
        for cell, pt in inserts:
            key = (cell, pt)
            sign = -1 if key in live else +1
            if sign == 1:
                live.add(key)
            else:
                live.discard(key)
            feed(ex, (cell, pt, sign))
            feed(sk, (cell, pt, sign))
        assert ex.result().cells == sk.result().cells
        assert ex.result().small_points == sk.result().small_points


class TestSketchSpecifics:
    def test_heavy_cell_does_not_block_small_cells(self):
        """A cell with ≫ β points pollutes only its own buckets; other
        (isolated) small cells still decode."""
        sk = SketchStoring(64, 4, cell_universe_bits=32,
                           point_universe_bits=48, seed=3)
        feed(sk, *[(999, pk, +1) for pk in range(500)])  # the monster cell
        feed(sk, *[(ck, ck * 7, +1) for ck in range(10)])
        res = sk.result()
        assert res.cells[999] == 500
        assert 999 not in res.small_points
        for ck in range(10):
            assert res.small_points[ck] == {ck * 7: 1}

    def test_space_accounting_methods(self):
        sk = SketchStoring(16, 4, cell_universe_bits=32,
                           point_universe_bits=48, seed=1)
        charged = sk.space_bits()
        resident0 = sk.resident_bits()
        feed(sk, (1, 2, +1))
        assert sk.space_bits() == charged  # worst-case layout is static
        assert sk.resident_bits() > resident0

    def test_exact_space_grows_with_live_set(self):
        ex = ExactStoring(1000, 4)
        base = ex.space_bits()
        feed(ex, *[(ck, ck, +1) for ck in range(100)])
        assert ex.space_bits() > base


class TestExactLog:
    def test_update_many_allocates_no_gc_tracked_objects(self):
        """Batched updates log arrays only, so ingest never triggers the
        cyclic collector and its full passes stay out of ingest latency."""
        ex = ExactStoring(10 ** 6, 4)
        batches = [(np.arange(b, b + 8, dtype=np.int64),
                    np.arange(8, dtype=np.int64), np.ones(8, dtype=np.int64))
                   for b in range(400)]
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            for cells, pts, signs in batches:
                ex.update_many(cells, pts, signs)
            grown = gc.get_count()[0] - before
        finally:
            if was_enabled:
                gc.enable()
        assert ex._log_events == 400 * 8  # still pending: nothing flushed
        assert grown < 10
        expected = Counter(k for cells, _, _ in batches for k in cells.tolist())
        assert ex.result().cells == dict(expected)
