"""The v1 streaming-state codec: columnar encode/restore against the oracle.

:mod:`repro.service.state` builds checkpoint lists straight from the
compacted columns and restores them column-wise.  The reference is the
entry-by-entry codec through the Counter / bucket-dict views kept in
``tests/scalar_oracle.py``; the two must agree byte for byte on encode and
produce identical structures on restore, on both backends, for wide
(> 63-bit) keys and empty stores, and for non-canonical v1 input.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CoresetParams
from repro.service.state import (
    STATE_FORMAT_VERSION,
    streaming_state_from_dict,
    streaming_state_to_dict,
)
from repro.streaming import StreamingCoreset
from repro.streaming.storing import ExactStoring
from repro.streaming.stream import StreamEvent
from tests.scalar_oracle import counter_state_from_dict, counter_state_to_dict

#: (k, d, Δ): a small grid, and one whose cell keys exceed 63 bits.
SHAPES = {"small": (2, 2, 32), "wide": (2, 6, 1024)}


def _driver(shape: str, backend: str, seed: int) -> StreamingCoreset:
    k, d, delta = SHAPES[shape]
    params = CoresetParams.practical(k=k, d=d, delta=delta)
    # The exact driver on the small grid runs the full guess range and the
    # pilot; elsewhere a guess window keeps the sketch drivers cheap.
    if shape == "small":
        o_range = None if backend == "exact" else (4.0, 64.0)
    else:
        o_range = (1e4, 1e5)
    return StreamingCoreset(params, seed=seed, backend=backend, o_range=o_range)


@st.composite
def churn(draw):
    """Distinct inserts, then deletes of a random subset (possibly all),
    split into random batches."""
    shape = draw(st.sampled_from(sorted(SHAPES)))
    backend = draw(st.sampled_from(["exact", "sketch"]))
    # Few driver seeds: building a driver is dominated by its first
    # coefficient draws, which the per-process cache then reuses.
    seed = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(0, 24))
    _, d, delta = SHAPES[shape]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.unique(rng.integers(1, delta, size=(n, d)), axis=0)
    dead = rng.random(len(pts)) < draw(st.sampled_from([0.0, 0.4, 1.0]))
    events = ([StreamEvent(tuple(map(int, p)), +1) for p in pts]
              + [StreamEvent(tuple(map(int, p)), -1) for p in pts[dead]])
    cuts = sorted(draw(st.lists(st.integers(0, len(events)), max_size=3)))
    batches = [events[a:b] for a, b in zip([0] + cuts, cuts + [len(events)])]
    return shape, backend, seed, batches


def _column(a: np.ndarray):
    kinds = sorted({type(v).__name__ for v in a}) if a.dtype == object else None
    return a.dtype.str, a.tolist(), kinds


def _iblt(sk):
    return (list(sk._slot.items()), _column(sk._count), _column(sk._keysum),
            _column(sk._fpsum))


def _store(store):
    if isinstance(store, ExactStoring):
        assert not store._log  # restored stores carry no pending log
        return [_column(c) for c in (store._ckeys, store._ccounts, store._pcell,
                                     store._ppoint, store._pcount)]
    return _iblt(store._cells), [(key, _iblt(sk)) for key, sk in store._nested.items()]


def _snapshot(sc: StreamingCoreset):
    """Every restored field, with dtypes, order and element types."""
    out = [sc.num_updates]
    for inst in sc.instances:
        out.append(inst.dead_reason)
        out += [_store(s) for s in inst.store_h + inst.store_hp + inst.store_hhat]
    if sc._pilot_sampler is not None:
        out += [_iblt(sk) for sk in sc._pilot_sampler._sketches]
    return out


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"))


class TestColumnarCodecMatchesOracle:
    @given(churn())
    @settings(max_examples=25, deadline=None)
    def test_encode_bytes_and_restored_state(self, case):
        shape, backend, seed, batches = case
        sc = _driver(shape, backend, seed)
        for batch in batches:
            sc.update_batch(batch)
        blob = _dump(streaming_state_to_dict(sc))
        assert blob == _dump(counter_state_to_dict(sc))
        data = json.loads(blob)
        restored = streaming_state_from_dict(data)
        assert _snapshot(restored) == _snapshot(counter_state_from_dict(data))
        assert _dump(streaming_state_to_dict(restored)) == blob

    def test_wide_keys_are_covered(self):
        sc = _driver("wide", "exact", seed=3)
        rng = np.random.default_rng(0)
        sc.update_batch([StreamEvent(tuple(map(int, p)), +1)
                         for p in rng.integers(1, 1024, size=(20, 6))])
        data = json.loads(_dump(streaming_state_to_dict(sc)))
        store = streaming_state_from_dict(data).instances[0].store_h[0]
        assert store._ckeys.dtype == object
        assert max(store._ckeys.tolist()) >= 1 << 63

    def test_empty_driver_round_trips(self):
        for backend in ("exact", "sketch"):
            sc = _driver("small", backend, seed=1)
            data = streaming_state_to_dict(sc)
            assert data["format_version"] == STATE_FORMAT_VERSION == 1
            assert _dump(data) == _dump(counter_state_to_dict(sc))
            restored = streaming_state_from_dict(data)
            assert _snapshot(restored) == _snapshot(counter_state_from_dict(data))


def _exact_store(**payload) -> ExactStoring:
    store = ExactStoring(alpha=100, beta=4)
    store.load_lists(payload["cells"], payload["points"])
    return store


W = 1 << 70  # a key wider than int64


class TestNonCanonicalExactInput:
    """Restore normalises like the reference setters: sort, drop zeros,
    last entry wins for a repeated key."""

    @pytest.mark.parametrize("cells,points,want_cells,want_points", [
        # unsorted cells and pairs
        ([[5, 1], [3, 2]], [[5, [[9, 1]]], [3, [[8, 1], [2, 1]]]],
         [[3, 2], [5, 1]], [[3, [[2, 1], [8, 1]]], [5, [[9, 1]]]]),
        # duplicate keys: last wins
        ([[3, 1], [3, 4]], [[5, [[1, 1], [1, 3]]]], [[3, 4]], [[5, [[1, 3]]]]),
        # a cell listed twice in points: its last run wins
        ([[5, 2]], [[5, [[1, 1]]], [5, [[2, 1]]]], [[5, 2]], [[5, [[2, 1]]]]),
        # zero counts and empty runs vanish
        ([[3, 0], [5, 1]], [[3, []], [5, [[1, 0], [2, 1]]]],
         [[5, 1]], [[5, [[2, 1]]]]),
        # wide keys, unsorted
        ([[W + 1, 1], [W, 1]], [[W + 1, [[7, 1]]], [W, [[W, 1]]]],
         [[W, 1], [W + 1, 1]], [[W, [[W, 1]]], [W + 1, [[7, 1]]]]),
    ])
    def test_normalised(self, cells, points, want_cells, want_points):
        store = _exact_store(cells=cells, points=points)
        assert store.to_lists() == (want_cells, want_points)
        canonical = _exact_store(cells=want_cells, points=want_points)
        assert _store(store) == _store(canonical)

    @given(churn(), st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_perturbed_state_restores_canonical(self, case, rnd):
        """Shuffled rows, zero-count rows and repeated rows restore to the
        state the canonical lists restore to."""
        shape, _, seed, batches = case
        sc = _driver(shape, "exact", seed)
        for batch in batches:
            sc.update_batch(batch)
        for store in sc.instances[0].store_hhat:
            cells, points = store.to_lists()
            bad_cells = cells + [[-1, 0]] + cells[:1]
            rnd.shuffle(bad_cells)
            bad_points = [[c, pairs + [[-1, 0]]] for c, pairs in points]
            for _, pairs in bad_points:
                rnd.shuffle(pairs)
            rnd.shuffle(bad_points)
            got = ExactStoring(store.alpha, store.beta)
            got.load_lists(bad_cells, bad_points)
            want = ExactStoring(store.alpha, store.beta)
            want.load_lists(cells, points)
            assert got.to_lists() == (cells, points)
            assert _store(got) == _store(want)


class TestNonCanonicalBucketInput:
    def test_repeated_bucket_last_wins(self):
        sc = _driver("small", "sketch", seed=2)
        data = streaming_state_to_dict(sc)
        rows = [[0, 1, 1, 5, 7], [1, 2, 1, 5, 7], [0, 1, 2, 10, 14]]
        data["instances"][0]["store_h"][0]["cells"] = rows
        got = streaming_state_from_dict(data)
        want = counter_state_from_dict(data)
        assert _snapshot(got) == _snapshot(want)
        assert got.instances[0].store_h[0]._cells.bucket_rows() == [
            [0, 1, 2, 10, 14], [1, 2, 1, 5, 7]]


class TestPilotLevelCount:
    """Regression: a pilot with the wrong number of levels used to restore
    silently truncated (zip against the rebuilt sampler's levels)."""

    @pytest.fixture
    def data(self):
        sc = _driver("small", "exact", seed=4)
        sc.update_batch([StreamEvent((3, 4), +1), StreamEvent((9, 9), +1)])
        data = streaming_state_to_dict(sc)
        assert data["pilot"] is not None
        return data

    def test_missing_level_rejected(self, data):
        data["pilot"] = data["pilot"][:-1]
        with pytest.raises(ValueError, match="pilot level count"):
            streaming_state_from_dict(data)

    def test_extra_level_rejected(self, data):
        data["pilot"] = data["pilot"] + [[]]
        with pytest.raises(ValueError, match="pilot level count"):
            streaming_state_from_dict(data)
