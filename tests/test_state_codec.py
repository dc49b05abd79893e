"""The streaming-state codec: columnar encode/restore against the oracles.

:mod:`repro.service.state` writes format v2 — one set of flat,
delta-coded int columns for all of a driver's exact stores, IBLT rows in
bucket-position order — straight from the compacted columns, and restores
it column-wise.  The reference is the entry-by-entry v2 codec through the
Counter / bucket-dict views in ``tests/scalar_oracle.py``; the two must
agree byte for byte on encode and produce identical structures on
restore, on both backends, for wide (> 63-bit) keys and empty stores.
Non-canonical v2 input is rejected.  v1 input (the retired writer, kept in
the oracle) still restores exactly like the v1 reference, and
non-canonical v1 input is normalised the way the v1 format defined.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.io import atomic_write_json
from repro.core.params import CoresetParams
from repro.service.state import (
    STATE_FORMAT_VERSION,
    streaming_state_from_dict,
    streaming_state_to_dict,
)
from repro.streaming import StreamingCoreset
from repro.streaming.storing import ExactStoring
from repro.streaming.stream import StreamEvent
from tests.scalar_oracle import (
    counter_state_from_dict,
    counter_state_to_dict,
    counter_state_v2_from_dict,
    counter_state_v2_to_dict,
    v1_store_lists,
    v1_streaming_state_to_dict,
)

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


def _fed(case) -> StreamingCoreset:
    shape, backend, seed, batches = case
    sc = _driver(shape, backend, seed)
    for batch in batches:
        sc.update_batch(batch)
    return sc


def _column(a: np.ndarray):
    kinds = sorted({type(v).__name__ for v in a}) if a.dtype == object else None
    return a.dtype.str, a.tolist(), kinds


def _iblt(sk):
    if sk is None:
        return None
    return (_column(sk._flat), _column(sk._count), _column(sk._keysum),
            _column(sk._fpsum))


def _store(store):
    if isinstance(store, ExactStoring):
        assert not store._log  # restored stores carry no pending log
        return [_column(c) for c in (store._ckeys, store._ccounts, store._pcell,
                                     store._ppoint, store._pcount)]
    return _iblt(store._cells), _iblt(store._points)


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
        sc = _fed(case)
        blob = _dump(streaming_state_to_dict(sc))
        assert blob == _dump(counter_state_v2_to_dict(sc))
        data = json.loads(blob)
        restored = streaming_state_from_dict(data)
        assert _snapshot(restored) == _snapshot(counter_state_v2_from_dict(data))
        assert _dump(streaming_state_to_dict(restored)) == blob

    @given(churn())
    @settings(max_examples=15, deadline=None)
    def test_v1_input_restores_like_the_v1_reference(self, case):
        """The retired v1 writer's output restores to exactly what the
        entry-by-entry v1 reference restores (IBLT columns included),
        re-encodes to the same v1 bytes, and writes the v2 bytes of the
        driver it came from."""
        sc = _fed(case)
        blob = _dump(v1_streaming_state_to_dict(sc))
        assert blob == _dump(counter_state_to_dict(sc))
        data = json.loads(blob)
        restored = streaming_state_from_dict(data)
        assert _snapshot(restored) == _snapshot(counter_state_from_dict(data))
        assert _dump(v1_streaming_state_to_dict(restored)) == blob
        assert _dump(streaming_state_to_dict(restored)) == _dump(streaming_state_to_dict(sc))

    def test_wide_keys_are_covered(self):
        sc = _driver("wide", "exact", seed=3)
        rng = np.random.default_rng(0)
        sc.update_batch([StreamEvent(tuple(map(int, p)), +1)
                         for p in rng.integers(1, 1024, size=(20, 6))])
        data = json.loads(_dump(streaming_state_to_dict(sc)))
        restored = streaming_state_from_dict(data)
        store = restored.instances[0].store_h[0]
        assert store._ckeys.dtype == object
        assert max(store._ckeys.tolist()) >= 1 << 63
        # Each column is typed on its own: wide cells, 60-bit points.
        hhat = [s for inst in restored.instances for s in inst.store_hhat
                if len(s._ppoint)]
        assert hhat and all(s._ckeys.dtype == object and s._pcell.dtype == object
                            and s._ppoint.dtype == np.int64 for s in hhat)
        assert _snapshot(restored) == _snapshot(counter_state_v2_from_dict(data))

    def test_empty_driver_round_trips(self):
        for backend in ("exact", "sketch"):
            sc = _driver("small", backend, seed=1)
            data = streaming_state_to_dict(sc)
            assert data["format_version"] == STATE_FORMAT_VERSION == 2
            assert _dump(data) == _dump(counter_state_v2_to_dict(sc))
            restored = streaming_state_from_dict(data)
            assert _snapshot(restored) == _snapshot(counter_state_v2_from_dict(data))


def _exact_store(**payload) -> ExactStoring:
    store = ExactStoring(alpha=100, beta=4)
    store.load_lists(payload["cells"], payload["points"])
    return store


W = 1 << 70  # a key wider than int64


class TestNonCanonicalExactInput:
    """v1 restore normalises like the reference setters: sort, drop zeros,
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
        assert v1_store_lists(store) == (want_cells, want_points)
        canonical = _exact_store(cells=want_cells, points=want_points)
        assert _store(store) == _store(canonical)

    @given(churn(), st.randoms(use_true_random=False))
    @settings(max_examples=15, deadline=None)
    def test_perturbed_state_restores_canonical(self, case, rnd):
        """Shuffled rows, zero-count rows and repeated rows restore to the
        state the canonical lists restore to."""
        shape, _, seed, batches = case
        sc = _fed((shape, "exact", seed, batches))
        for store in sc.instances[0].store_hhat:
            cells, points = v1_store_lists(store)
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
            assert v1_store_lists(got) == (cells, points)
            assert _store(got) == _store(want)


class TestNonCanonicalBucketInput:
    def test_repeated_bucket_last_wins(self):
        sc = _driver("small", "sketch", seed=2)
        data = v1_streaming_state_to_dict(sc)
        rows = [[0, 1, 1, 5, 7], [1, 2, 1, 5, 7], [0, 1, 2, 10, 14]]
        data["instances"][0]["store_h"][0]["cells"] = rows
        got = streaming_state_from_dict(data)
        want = counter_state_from_dict(data)
        assert _snapshot(got) == _snapshot(want)
        assert got.instances[0].store_h[0]._cells.bucket_rows() == [
            [0, 1, 2, 10, 14], [1, 2, 1, 5, 7]]

    def test_v1_rows_load_in_position_order(self):
        sc = _driver("small", "sketch", seed=2)
        data = v1_streaming_state_to_dict(sc)
        rows = [[1, 2, 1, 5, 7], [0, 1, 2, 10, 14]]
        data["instances"][0]["store_h"][0]["cells"] = rows
        sk = streaming_state_from_dict(data).instances[0].store_h[0]._cells
        assert sk._flat.tolist() == [1, sk.m + 2]
        assert sk.bucket_rows() == rows[::-1]

    def test_v1_nested_last_sketch_wins_and_empty_ones_vanish(self):
        data = _state(1, "sketch")
        store = next(s for s in data["instances"][0]["store_hhat"] if len(s["nested"]) >= 2)
        (r0, p0, rows0), (r1, p1, rows1) = store["nested"][:2]
        want = v1_streaming_state_to_dict(streaming_state_from_dict(data))
        taken = {(r, p) for r, p, _ in store["nested"]}
        free = next((r, p) for r in range(3) for p in range(8) if (r, p) not in taken)
        store["nested"] = [[r1, p1, []], [r0, p0, rows1]] + store["nested"] + [[*free, []]]
        got = streaming_state_from_dict(data)
        assert _snapshot(got) == _snapshot(counter_state_from_dict(data))
        assert _dump(v1_streaming_state_to_dict(got)) == _dump(want)

    def test_v1_out_of_range_buckets_rejected(self):
        """A v1 row naming row 3 would alias the next group's row 0."""
        data = _state(1, "sketch")
        store = data["instances"][0]["store_hhat"][0]
        store["cells"] = [[3, 0, 1, 5, 7]]
        with pytest.raises(ValueError, match="in-range"):
            streaming_state_from_dict(data)
        data = _state(1, "sketch")
        store = next(s for s in data["instances"][0]["store_hhat"] if s["nested"])
        store["nested"][0][0] = 3
        with pytest.raises(ValueError, match="in-range"):
            streaming_state_from_dict(data)


class TestCountOnlySketchStores:
    """A ``store_h`` / ``store_hp`` sketch store keeps no points: nested
    point sketches there are rejected, not restored and written back."""

    @staticmethod
    def _stray_nested(data: dict, fmt: int) -> None:
        if fmt == 1:
            inst = data["instances"][0]
            donor = next(s for s in inst["store_hhat"] if s["nested"])
            inst["store_h"][0]["nested"] = donor["nested"][:1]
        else:
            donor = next(s for s in data["stores"] if s["nested"])
            data["stores"][0]["nested"] = donor["nested"][:1]

    @pytest.mark.parametrize("fmt", [1, 2])
    def test_nested_on_count_only_store_rejected(self, fmt):
        data = _state(fmt, "sketch")
        sc = streaming_state_from_dict(data)
        assert not sc.instances[0].store_h[0].recover_points
        self._stray_nested(data, fmt)
        with pytest.raises(ValueError, match="keeps no points"):
            streaming_state_from_dict(data)


def _fed_v2(backend: str) -> dict:
    """v2 state of a small driver with points in its exact stores (or
    nested sketches), some of them deleted."""
    sc = _driver("small", backend, seed=1)
    rng = np.random.default_rng(5)
    pts = np.unique(rng.integers(1, 32, size=(30, 2)), axis=0)
    sc.update_batch([StreamEvent(tuple(map(int, p)), +1) for p in pts]
                    + [StreamEvent(tuple(map(int, p)), -1) for p in pts[::3]])
    return json.loads(_dump(streaming_state_to_dict(sc)))


def _first_run_store(cols: dict) -> tuple[int, int, int, int]:
    """(store index, offsets of its first key, run and pair) of the first
    store with ≥ 2 cells and ≥ 2 runs, the first of ≥ 2 pairs."""
    key_at = run_at = pair_at = 0
    for j, (ncell, nrun) in enumerate(zip(cols["cells"], cols["runs"])):
        lengths = cols["lengths"][run_at:run_at + nrun]
        if ncell >= 2 and nrun >= 2 and lengths[0] >= 2:
            return j, key_at, run_at, pair_at
        key_at += ncell
        run_at += nrun
        pair_at += sum(lengths)
    raise AssertionError("no store with a long run")


class TestColumnDtypes:
    """Each store restores with the key dtypes the v1 reader gives it,
    whatever its neighbours in the shared columns hold."""

    STORES = [
        # (cells, points) as v1 lists
        ([[3, 1], [9, 2]], [[3, [[1, 1]]], [9, [[4, 1], [6, 1]]]]),
        ([[W, 1], [W + 5, 1]], [[W, [[2, 1]]], [W + 5, [[W, 1]]]]),
        ([], []),
        # int64 keys whose differences do not fit int64
        ([[-(1 << 62) - 5, 1], [(1 << 62) + 5, 1]],
         [[-(1 << 62) - 5, [[-(1 << 62), 1], [1 << 62, 1]]],
          [(1 << 62) + 5, [[0, 1]]]]),
        ([[(1 << 63) - 1, 2]], [[(1 << 63) - 1, [[(1 << 63) - 2, 1], [(1 << 63) - 1, 1]]]]),
    ]

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [1, 0, 4, 2, 3], [2, 3, 4, 0]])
    def test_round_trip_keeps_v1_dtypes(self, order):
        stores = [_exact_store(cells=c, points=p) for c, p in
                  (self.STORES[i] for i in order)]
        cols = json.loads(_dump(ExactStoring.encode_columns(stores)))
        got = [ExactStoring(alpha=100, beta=4) for _ in stores]
        ExactStoring.load_columns(got, cols)
        assert [_store(g) for g in got] == [_store(s) for s in stores]
        assert _dump(ExactStoring.encode_columns(got)) == _dump(cols)


class TestNonCanonicalV2Input:
    """v2 restore validates instead of normalising."""

    def _reject(self, data, match="v2 state"):
        with pytest.raises(ValueError, match=match):
            streaming_state_from_dict(data)

    @pytest.mark.parametrize("edit,match", [
        ("key_delta_zero", "keys must strictly increase"),
        ("key_delta_negative", "keys must strictly increase"),
        ("zero_count", "'counts' holds a non-canonical count"),
        ("empty_run", "'lengths' holds a non-canonical count"),
        ("zero_pair_count", "'pair_counts' holds a non-canonical count"),
        ("point_delta_zero", "points must strictly increase"),
        ("head_delta_zero", "heads must strictly increase"),
        ("runs_without_points", "store that keeps no points"),
        ("short_column", "'counts' has"),
        ("missing_column", "'heads' must be a list"),
    ])
    def test_exact_columns_rejected(self, edit, match):
        data = _fed_v2("exact")
        cols = data["stores"]
        j, key_at, run_at, pair_at = _first_run_store(cols)
        if edit == "key_delta_zero":
            cols["keys"][key_at + 1] = 0
        elif edit == "key_delta_negative":
            cols["keys"][key_at + 1] = -1
        elif edit == "zero_count":
            cols["counts"][key_at] = 0
        elif edit == "empty_run":  # the run's pairs move to the next run
            cols["lengths"][run_at + 1] += cols["lengths"][run_at]
            cols["lengths"][run_at] = 0
        elif edit == "zero_pair_count":
            cols["pair_counts"][pair_at] = 0
        elif edit == "point_delta_zero":
            cols["points"][pair_at + 1] = 0
        elif edit == "head_delta_zero":
            cols["heads"][run_at + 1] = 0
        elif edit == "runs_without_points":  # store 0 is a store_h
            cols["runs"][0] = 1
            cols["runs"][j] -= 1
        elif edit == "short_column":
            cols["counts"].pop()
        else:
            del cols["heads"]
        self._reject(data, match)

    def test_canonical_columns_restore(self):
        data = _fed_v2("exact")
        assert _dump(streaming_state_to_dict(streaming_state_from_dict(data))) == _dump(data)

    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_unsorted_pilot_or_cell_rows_rejected(self, backend):
        data = _fed_v2(backend)
        if backend == "exact":
            rows = next(r for r in data["pilot"] if len(r) >= 2)
        else:
            rows = next(s["cells"] for s in data["stores"] if len(s["cells"]) >= 2)
        rows[0], rows[1] = rows[1], rows[0]
        self._reject(data)

    def test_repeated_bucket_rejected(self):
        data = _fed_v2("sketch")
        rows = next(s["cells"] for s in data["stores"] if s["cells"])
        rows.append(list(rows[-1]))
        self._reject(data)

    def test_unsorted_nested_rejected(self):
        data = _fed_v2("sketch")
        nested = next(s["nested"] for s in data["stores"] if len(s["nested"]) >= 2)
        nested[0], nested[1] = nested[1], nested[0]
        self._reject(data)

    @pytest.mark.parametrize("edit", ["repeated", "empty", "out_of_range"])
    def test_noncanonical_nested_rejected(self, edit):
        """A nested sketch listed twice (even with its rows split in
        increasing order), an empty one, or one outside the cell table."""
        data = _fed_v2("sketch")
        nested = next(s["nested"] for s in data["stores"]
                      if any(len(rows) >= 2 for _, _, rows in s["nested"]))
        j = next(i for i, (_, _, rows) in enumerate(nested) if len(rows) >= 2)
        r, p, rows = nested[j]
        if edit == "repeated":
            nested[j:j + 1] = [[r, p, rows[:1]], [r, p, rows[1:]]]
        elif edit == "empty":
            nested[j:j + 1] = [[r, p, []]]
        else:
            nested.append([3, 0, rows])
        self._reject(data)


#: Top-level fields that are not sketch data (their checks are elsewhere).
_HEADER = ("format_version", "params", "seed", "backend", "prefer", "o_range",
           "auto_pilot")

_STATES: dict = {}


def _state(fmt: int, backend: str) -> dict:
    """JSON of a fed driver in format ``fmt`` (a fresh copy per call)."""
    if fmt not in (1, 2):
        raise ValueError(fmt)
    if (fmt, backend) not in _STATES:
        v2 = _fed_v2(backend)
        _STATES[fmt, backend] = _dump(
            v2 if fmt == 2 else v1_streaming_state_to_dict(streaming_state_from_dict(v2)))
    return json.loads(_STATES[fmt, backend])


def _int_leaves(node, path=()):
    """Paths to every integer (not bool) leaf under ``node``."""
    if type(node) is int:
        yield path
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _int_leaves(v, path + (i,))
    elif isinstance(node, dict):
        for key, v in node.items():
            if path or key not in _HEADER:
                yield from _int_leaves(v, path + (key,))


class TestNonIntegralValuesRejected:
    """Restore rejects a value that is not a JSON integer anywhere in the
    sketch data — store columns and rows, IBLT rows, nested-sketch
    positions, pilot rows and the update count — instead of truncating
    ``1.5`` or reading ``"3"`` and ``true`` as integers."""

    @given(st.sampled_from([1, 2]), st.sampled_from(["exact", "sketch"]),
           st.sampled_from(["float", "integral float", "string", "true",
                            "false", "null"]),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_leaf(self, fmt, backend, kind, data):
        state = _state(fmt, backend)
        leaves = list(_int_leaves(state))
        path = data.draw(st.sampled_from(leaves))
        *parents, last = path
        node = state
        for key in parents:
            node = node[key]
        old = node[last]
        node[last] = {"float": old + 0.5, "integral float": float(old),
                      "string": str(old), "true": True, "false": False,
                      "null": None}[kind]
        with pytest.raises(ValueError):
            streaming_state_from_dict(state)

    @pytest.mark.parametrize("fmt", [1, 2])
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_unedited_state_restores(self, fmt, backend):
        state = _state(fmt, backend)
        assert list(_int_leaves(state))
        streaming_state_from_dict(state)


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


class TestGuessPolicyFields:
    """``prefer`` and ``auto_pilot`` are written as ``o_range`` implies
    ("largest"; ``o_range is None``), and restore rejects a file whose
    fields say otherwise instead of obeying them."""

    @pytest.mark.parametrize("fmt", [1, 2])
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    @pytest.mark.parametrize("field,value", [("prefer", "smallest"),
                                             ("prefer", None),
                                             ("auto_pilot", "flip")])
    def test_inconsistent_fields_rejected(self, fmt, backend, field, value):
        data = _state(fmt, backend)
        data[field] = not data[field] if value == "flip" else value
        with pytest.raises(ValueError, match="guess policy"):
            streaming_state_from_dict(data)


# ------------------------------------------------------------ atomic writes
DATA = Path(__file__).resolve().parent / "data"

#: JSON leaves of a checkpoint: ints past int64 either way, floats that
#: look integral, None, and non-ASCII text (tenant stream ids).
_LEAVES = (st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
           | st.sampled_from([2 ** 63, 2 ** 64 + 1, -(2 ** 63) - 1, 8.0,
                              -0.0, 1e300, 2.5e-8])
           | st.floats(allow_nan=False) | st.none() | st.booleans()
           | st.text(st.characters(codec="utf-8"), max_size=6))
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=6),
                      inner, max_size=4),
    max_leaves=24)


def _streamed(obj) -> bytes:
    """What state writes produced with the streaming ``json.dump``."""
    buf = io.StringIO()
    json.dump(obj, buf, separators=(",", ":"))
    return buf.getvalue().encode("utf-8")


class TestAtomicWriteJson:
    @pytest.mark.parametrize("fixture", sorted(p.name for p in
                                               DATA.glob("*.ckpt.json")))
    def test_fixture_bytes_match_the_streaming_encoder(self, fixture, tmp_path):
        raw = (DATA / fixture).read_bytes()
        obj = json.loads(raw)
        atomic_write_json(tmp_path / fixture, obj)
        out = (tmp_path / fixture).read_bytes()
        assert out == _streamed(obj)
        assert out == raw

    @settings(max_examples=200, deadline=None)
    @given(obj=_PAYLOADS)
    def test_payload_bytes_match_the_streaming_encoder(self, obj, tmp_path_factory):
        path = tmp_path_factory.mktemp("w") / "state.json"
        atomic_write_json(path, {"tenant": {"stream_id": "zoë/東京"},
                                 "payload": obj})
        assert path.read_bytes() == _streamed(
            {"tenant": {"stream_id": "zoë/東京"}, "payload": obj})

    def test_unserialisable_payload_leaves_previous_file(self, tmp_path):
        path = tmp_path / "svc.ckpt.json"
        atomic_write_json(path, {"version": 1, "cells": [[1, 2]]})
        before = path.read_bytes()
        with pytest.raises(TypeError, match="int64"):
            atomic_write_json(path, {"version": 2,
                                     "cells": [[np.int64(3), 4]]})
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp.*")) == []
