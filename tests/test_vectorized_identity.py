"""Bit-identity of the vectorized hot path against the scalar reference.

The vectorized ingest path (numpy Horner sweeps, columnar IBLT state,
batched storing updates, the early-kill prefix cut) is the only ingest
implementation in ``src/``: every test here pins some observable — hash
values, bucket state, decode output, checkpoint bytes — to the per-event
reference in :mod:`tests.scalar_oracle`.  A lint guard at the bottom keeps
per-event Python loops from creeping back into the hot files.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CoresetParams
from repro.hashing.kwise import (
    BernoulliHash,
    KWiseHash,
    StackedHashes,
    _coeff_matrix,
    exact_field_threshold,
    horner,
)
from repro.service.engine import ClusteringService, ServiceConfig
from repro.service.protocol import ProtocolError, parse_points
from repro.service.shards import ShardedIngest
from repro.service.state import streaming_state_to_dict
from repro.streaming.sketch import DecodeFailure, IBLTSketch, SketchHashFamily
from repro.streaming.storing import ExactStoring
from repro.streaming.stream import events_to_arrays
from repro.streaming.streaming_coreset import StreamingCoreset
from repro.utils.validation import FailedConstruction
from tests.scalar_oracle import (
    CounterStoring,
    ScalarIBLT,
    iblt_update,
    scalar_decode,
    scalar_ingest,
)


# --------------------------------------------------------------------------
# Satellite 1 — exact integer thresholds for primes beyond float precision.
# --------------------------------------------------------------------------
class TestExactThreshold:
    def test_matches_float_for_small_primes(self):
        p = KWiseHash(2, 16, seed=0).prime
        for phi in (0.1, 0.25, 0.5, 0.9):
            assert exact_field_threshold(phi, p) == int(phi * p)

    def test_float_product_is_wrong_above_2_53(self):
        """Regression: ``int(phi * p)`` loses low bits for primes > 2^53;
        the exact rational product must differ from it for some φ."""
        p = KWiseHash(2, 70, seed=0).prime  # ~2^70 — universe beyond 64 bits
        assert p.bit_length() > 64
        exact = {phi: exact_field_threshold(phi, p)
                 for phi in (0.1, 0.3, 0.7)}
        # The exact threshold equals floor(Fraction(phi) * p) ...
        for phi, t in exact.items():
            frac = Fraction(phi)
            assert t == (frac.numerator * p) // frac.denominator
            # ... and realizes Pr[v < t] within 1/p of phi.
            assert abs(t / p - phi) < 1.0 / (1 << 52)
        # ... while the float64 product is off by more than one field
        # element for at least one of them (the bug this PR fixes).
        assert any(int(phi * p) != t for phi, t in exact.items())

    def test_bernoulli_uses_exact_threshold_on_huge_universe(self):
        b = BernoulliHash(0.3, independence=2, universe_bits=70, seed=5)
        assert b._threshold == exact_field_threshold(0.3, b._h.prime)
        keys = [3, 1 << 64, (1 << 69) + 17]
        want = [b.indicator(k) for k in keys]
        assert b.select(keys).tolist() == want

    def test_boundary_phis(self):
        p = 101
        assert exact_field_threshold(0.0, p) == 0
        assert exact_field_threshold(1.0, p) == p


# --------------------------------------------------------------------------
# Tentpole — vectorized Horner sweeps are bit-identical to the scalar oracle.
# --------------------------------------------------------------------------
class TestHornerIdentity:
    @pytest.mark.parametrize("ub", [16, 20, 31, 40, 55, 70])
    def test_values_np_matches_value(self, ub):
        h = KWiseHash(independence=5, universe_bits=ub, seed=ub)
        rng = np.random.default_rng(ub)
        keys = [int(x) for x in rng.integers(0, 1 << min(ub, 62), size=64)]
        keys += [0, 1, (1 << ub) - 1]
        got = [int(v) for v in h.values_np(keys)]
        assert got == [h.value(k) for k in keys]  # scalar oracle

    @pytest.mark.parametrize("ub", [16, 40, 83])
    @pytest.mark.parametrize("lams", [[5], [2, 3, 7, 4]])
    def test_horner_kernel_matches_scalar(self, ub, lams):
        """The one kernel in all three regimes (int64 below 2^31, multi-limb
        below 2^55, object beyond), for one row and for a stack with mixed
        λ, on int64 keys and on keys beyond int64."""
        hashes = [KWiseHash(independence=lam, universe_bits=ub, seed=200 + i)
                  for i, lam in enumerate(lams)]
        p = hashes[0].prime
        coeffs = _coeff_matrix([h._coeffs for h in hashes], p)
        rng = np.random.default_rng(ub)
        keys = [int(x) for x in rng.integers(0, 1 << min(ub, 62), size=50)]
        keys += [0, 1, (1 << min(ub, 63)) - 1]
        batches = [np.asarray(keys, dtype=np.int64)]
        if ub > 63:
            batches.append(np.array(keys + [1 << 70, (1 << ub) - 1], dtype=object))
        for batch in batches:
            mat = horner(coeffs, batch, p)
            assert mat.shape == (len(hashes), len(batch))
            assert mat.dtype == (np.int64 if p.bit_length() <= 55
                                 and batch.dtype == np.int64 else object)
            for row, h in enumerate(hashes):
                assert [int(v) for v in mat[row]] == [h.value(int(k)) for k in batch]

    @pytest.mark.parametrize("ub", [16, 40, 70])
    def test_stacked_matches_per_hash(self, ub):
        hashes = [KWiseHash(independence=lam, universe_bits=ub, seed=100 + i)
                  for i, lam in enumerate([2, 3, 7, 7, 2])]
        stacked = StackedHashes(hashes)
        rng = np.random.default_rng(ub + 1)
        keys = [int(x) for x in rng.integers(0, 1 << min(ub, 62), size=40)]
        mat = stacked.values_np(keys)
        assert mat.shape == (len(hashes), len(keys))
        for row, h in enumerate(hashes):
            assert [int(v) for v in mat[row]] == [h.value(k) for k in keys]

    def test_stacked_rejects_mixed_primes(self):
        with pytest.raises(ValueError, match="prime"):
            StackedHashes([KWiseHash(2, 16, seed=0), KWiseHash(2, 40, seed=0)])

    def test_bucket_batch_matches_scalar(self):
        """One stacked sweep of the IBLT family gives the scalar positions
        and fingerprints (int64 and object regimes)."""
        for ub in (40, 70):
            fam = SketchHashFamily(97, ub, seed=2)
            keys = list(range(0, 2000, 37)) + [(1 << ub) - 1]
            pos, fps = fam.hash_np(keys)
            assert pos.dtype == np.int64
            assert pos.T.tolist() == [list(fam.positions(k)) for k in keys]
            assert [int(f) for f in fps] == [fam.fingerprint(k) for k in keys]


# --------------------------------------------------------------------------
# Tentpole — columnar IBLT: batched updates == scalar updates, bucket-exact.
# --------------------------------------------------------------------------
class TestIBLTBatchedIdentity:
    @given(st.lists(st.tuples(st.integers(0, 40), st.sampled_from([1, -1])),
                    min_size=0, max_size=60),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_update_many_matches_scalar_buckets_and_decode(self, ups, seed):
        batched = IBLTSketch(32, 16, seed=seed)
        scalar = ScalarIBLT(batched)
        for k, s in ups:
            iblt_update(scalar, k, s)
        if ups:
            keys = np.asarray([k for k, _ in ups], dtype=np.int64)
            signs = np.asarray([s for _, s in ups], dtype=np.int64)
            batched.update_many(keys, signs)
        # Bucket state — zero buckets included — must be identical.
        assert scalar.rows() == batched.bucket_rows()
        try:
            want = scalar_decode(scalar)
        except DecodeFailure:
            with pytest.raises(DecodeFailure):
                batched.decode()
            return
        assert batched.decode() == want


# --------------------------------------------------------------------------
# Tentpole — log-structured ExactStoring: event order and batching invisible.
# --------------------------------------------------------------------------
class TestExactStoringCanonical:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9),
                              st.sampled_from([1, -1])),
                    min_size=0, max_size=80),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_batched_equals_scalar_equals_shuffled(self, ops, chunk):
        scalar = ExactStoring(64, 8)
        batched = ExactStoring(64, 8)
        mirror = CounterStoring(scalar)
        for c, p, s in ops:
            mirror.update(c, p, s)
        mirror.write_back()
        for lo in range(0, len(ops), chunk):
            part = ops[lo: lo + chunk]
            batched.update_many(
                np.asarray([c for c, _, _ in part], dtype=np.int64),
                np.asarray([p for _, p, _ in part], dtype=np.int64),
                np.asarray([s for _, _, s in part], dtype=np.int64))
        # The serialized views are canonical (sorted) snapshots: identical
        # regardless of arrival order or batching.
        assert scalar._cells == batched._cells
        assert scalar._points == batched._points
        assert scalar.live_cells() == batched.live_cells()
        try:
            want = scalar.result()
        except FailedConstruction:
            with pytest.raises(FailedConstruction):
                batched.result()
            return
        got = batched.result()
        assert got.cells == want.cells
        assert got.small_points == want.small_points

    def test_upper_bound_dominates_exact_live_count(self):
        st_ = ExactStoring(64, 8)
        rng = np.random.default_rng(0)
        for _ in range(10):
            cells = rng.integers(0, 6, size=50)
            pts = rng.integers(0, 9, size=50)
            signs = rng.choice([1, -1], size=50)
            st_.update_many(cells, pts, signs)
            # The cheap bound used by the early-kill pre-check must never
            # undercount, or a driver could survive that should have died.
            assert st_.live_cells_upper() >= st_.live_cells()

    def test_merge_equals_concatenated_stream(self):
        a, b, whole = (ExactStoring(64, 8) for _ in range(3))
        rng = np.random.default_rng(1)
        for target in (a, b):
            cells = rng.integers(0, 6, size=40)
            pts = rng.integers(0, 9, size=40)
            signs = rng.choice([1, -1], size=40)
            target.update_many(cells, pts, signs)
            whole.update_many(cells, pts, signs)
        a.merge_from(b)
        assert a._cells == whole._cells
        assert a._points == whole._points


# --------------------------------------------------------------------------
# Satellite 4 — full-driver property: batched churn == scalar churn, byte
# for byte through the checkpoint codec, on both storing backends.
# --------------------------------------------------------------------------
def _churn_events(n, seed, delta):
    rng = np.random.default_rng(seed)
    live = []
    out = []
    for _ in range(n):
        p = (int(rng.integers(1, delta + 1)), int(rng.integers(1, delta + 1)))
        out.append((p, 1))
        live.append(p)
        if len(live) > 4 and rng.random() < 0.35:
            out.append((live.pop(int(rng.integers(0, len(live)))), -1))
    return out


class TestDriverBitIdentity:
    @pytest.fixture(scope="class")
    def params(self):
        return CoresetParams.practical(k=2, d=2, delta=64, eps=0.45, eta=0.45)

    @given(seed=st.integers(min_value=0, max_value=200),
           chunk=st.integers(min_value=1, max_value=48),
           backend=st.sampled_from(["exact", "sketch"]))
    @settings(max_examples=12, deadline=None)
    def test_checkpoint_bytes_equal(self, params, seed, chunk, backend):
        events = _churn_events(60, seed, 64)
        kw = dict(seed=7, backend=backend, o_range=(8.0, 64.0))
        scalar = StreamingCoreset(params, **kw)
        batched = StreamingCoreset(params, **kw)
        scalar_ingest(scalar, events)
        for lo in range(0, len(events), chunk):
            batched.update_batch(events[lo: lo + chunk])
        da = json.dumps(streaming_state_to_dict(scalar), sort_keys=True)
        db = json.dumps(streaming_state_to_dict(batched), sort_keys=True)
        assert da == db

    def test_exact_backend_coreset_equal(self, params):
        events = _churn_events(120, 5, 64)
        kw = dict(seed=7, backend="exact", o_range=(8.0, 64.0))
        scalar = StreamingCoreset(params, **kw)
        batched = StreamingCoreset(params, **kw)
        scalar_ingest(scalar, events)
        batched.update_batch(events)

        def outcome(drv):
            try:
                c = drv.finalize()
                return ("ok", c.o, c.points.tobytes(), c.weights.tobytes())
            except FailedConstruction as exc:
                return ("fail", exc.reason)

        assert outcome(scalar) == outcome(batched)


# --------------------------------------------------------------------------
# Early kill as an exact prefix cut: batched == per-event oracle, kills and
# near-misses included.
# --------------------------------------------------------------------------
def _running_overflow(store: ExactStoring, ops, bound):
    """Per-event reference for ``ExactStoring.first_overflow``."""
    mirror = CounterStoring(store)
    for j, (c, s) in enumerate(ops):
        mirror.update(c, 0, s)
        if mirror.live > bound:
            return j
    return None


def _dense_events(seed, n, delta, d=2):
    """Churn over a dense random point set: live cell counts climb fast."""
    from repro.data.workloads import churn_stream

    rng = np.random.default_rng(seed)
    pts = np.unique(rng.integers(1, delta + 1, size=(n, d)), axis=0)
    return list(churn_stream(pts, delete_fraction=0.3, seed=seed))


def _state(driver) -> str:
    return json.dumps(streaming_state_to_dict(driver), sort_keys=True)


def _state_of(store: ExactStoring):
    return dict(store._cells), store._points


class TestEarlyKillPrefixCut:
    @given(st.lists(st.tuples(st.integers(0, 12), st.sampled_from([1, -1])),
                    max_size=40),
           st.lists(st.tuples(st.integers(0, 12), st.sampled_from([1, -1])),
                    max_size=40),
           st.booleans(), st.booleans(), st.integers(0, 14))
    @settings(max_examples=60, deadline=None)
    def test_first_overflow_matches_running_count(self, base_ops, ops,
                                                  flush, bigint, bound):
        offset = (1 << 70) if bigint else 0
        store = ExactStoring(8, 2, recover_points=False)
        for c, s in base_ops:
            store.update_many([c + offset], [0], [s])
        if flush:
            store.live_cells()
        ops = [(c + offset, s) for c, s in ops]
        want = _running_overflow(store, ops, bound)
        before = _state_of(store)
        got = store.first_overflow([c for c, _ in ops], [s for _, s in ops],
                                   bound)
        assert got == want
        assert _state_of(store) == before  # a read, not a write

    def test_dense_streams_match_oracle(self, monkeypatch):
        """Random dense churn, shrunken Storing budgets, any chunk size,
        both backends: checkpoint JSON equals the per-event oracle."""
        from repro.streaming.streaming_coreset import StreamingCoresetInstance

        cuts = []
        first_kill = StreamingCoresetInstance._first_kill

        def spy(inst, cell_keys, signs, mh, nh):
            kill = first_kill(inst, cell_keys, signs, mh, nh)
            if kill is not None:
                cuts.append((kill[0], len(signs)))
            return kill

        monkeypatch.setattr(StreamingCoresetInstance, "_first_kill", spy)

        @given(seed=st.integers(0, 10_000),
               delta=st.sampled_from([32, 64]),
               factor=st.sampled_from([0.03, 0.1, 0.3]),
               backend=st.sampled_from(["exact", "exact", "sketch"]),
               data=st.data())
        @settings(max_examples=8, deadline=None)
        def check(seed, delta, factor, backend, data):
            # The sketch backend has no early kill and ingests slowly: a
            # short stream and three guesses cover its bucket order.
            sketch = backend == "sketch"
            events = _dense_events(seed, 80 if sketch else 900, delta)
            chunk = data.draw(st.integers(1, len(events)), label="chunk")
            params = dataclasses.replace(
                CoresetParams.practical(k=2, d=2, delta=delta),
                storing_alpha_factor=factor)
            o_range = (2.0 ** 10, 2.0 ** 12) if sketch else (1.0, 2.0 ** 12)
            kw = dict(seed=seed, backend=backend, o_range=o_range)
            batched = StreamingCoreset(params, **kw)
            for lo in range(0, len(events), chunk):
                batched.update_batch(events[lo: lo + chunk])
            scalar = StreamingCoreset(params, **kw)
            scalar_ingest(scalar, events)
            assert _state(batched) == _state(scalar)

        check()
        # At least one drawn case killed a guess strictly inside a batch,
        # where the cut (not the batch boundary) decides what got applied.
        assert any(j < n - 1 for j, n in cuts)

    def test_precheck_fires_without_kill_then_kills_mid_batch(self, monkeypatch):
        """Churn hovering just under the kill line fires the cheap pre-check
        but never overflows; a later burst overflows mid-batch."""
        params = dataclasses.replace(
            CoresetParams.practical(k=2, d=2, delta=64),
            storing_alpha_factor=0.03)
        kw = dict(seed=3, o_range=(1.0, 1.0))
        batched = StreamingCoreset(params, **kw)
        scalar = StreamingCoreset(params, **kw)
        inst = batched.instances[0]
        bound = int(inst._early_kill * inst.store_h[params.L].alpha)
        grid = [(x, y) for x in range(1, 65) for y in range(1, 65)]
        live, fresh = grid[: bound - 6], grid[bound - 6:]
        churn = [ev for old, new in zip(live[:40], fresh[:40])
                 for ev in ((old, -1), (new, 1))]
        burst = [(p, 1) for p in fresh[40:60]]
        calls = []
        first_overflow = ExactStoring.first_overflow

        def spy(store, cells, signs, bound):
            calls.append(first_overflow(store, cells, signs, bound))
            return calls[-1]

        monkeypatch.setattr(ExactStoring, "first_overflow", spy)
        batched.update_batch([(p, 1) for p in live])
        assert calls == []  # the pre-check cannot fire yet
        batched.update_batch(churn)
        assert calls == [None] and inst.dead_reason is None
        batched.update_batch(burst)
        assert calls[-1] == 6 and inst.dead_reason is not None
        scalar_ingest(scalar, [(p, 1) for p in live] + churn + burst)
        assert _state(batched) == _state(scalar)

    @pytest.mark.parametrize("chunk", [1, 13, 64, 10_000])
    def test_object_dtype_cell_keys(self, chunk):
        """d=6, Δ=1024: cell keys need > 63 bits (object arrays)."""
        params = dataclasses.replace(
            CoresetParams.practical(k=2, d=6, delta=1024),
            storing_alpha_factor=0.03)
        events = _dense_events(5, 400, 1024, d=6)
        kw = dict(seed=3, o_range=(1.0, 64.0))
        batched = StreamingCoreset(params, **kw)
        assert batched.grids.cell_universe_bits > 63
        for lo in range(0, len(events), chunk):
            batched.update_batch(events[lo: lo + chunk])
        scalar = StreamingCoreset(params, **kw)
        scalar_ingest(scalar, events)
        assert any(inst.dead_reason for inst in batched.instances)
        assert _state(batched) == _state(scalar)


# --------------------------------------------------------------------------
# Satellite 2 — non-integral coordinates are rejected, never truncated.
# --------------------------------------------------------------------------
class TestNonIntegralRejection:
    @pytest.fixture(scope="class")
    def params(self):
        return CoresetParams.practical(k=2, d=2, delta=64, eps=0.45, eta=0.45)

    def test_update_rejects(self, params):
        sc = StreamingCoreset(params, seed=0, o_range=(8.0, 64.0))
        with pytest.raises(ValueError, match="integral"):
            sc.update_batch([((2.5, 3), 1)])
        sc.update_batch([((2.0, 3.0), 1)])  # integral floats are fine

    def test_update_batch_rejects_atomically(self, params):
        sc = StreamingCoreset(params, seed=0, o_range=(8.0, 64.0))
        before = json.dumps(streaming_state_to_dict(sc), sort_keys=True)
        with pytest.raises(ValueError, match="integral"):
            sc.update_batch([((1, 1), 1), ((2.7, 3), 1)])
        after = json.dumps(streaming_state_to_dict(sc), sort_keys=True)
        assert before == after  # nothing ingested from the bad batch

    def test_sharded_insert_rejects(self):
        """A service insert coerces its rows before they reach the ingest."""
        svc = ClusteringService(ServiceConfig(k=2, d=2, delta=64, o_range=(8.0, 64.0)))
        with pytest.raises(ValueError, match="integral"):
            svc.insert([[1.5, 2.0]])
        assert svc.ingest.num_events == 0 and svc.ingest.version == 0

    def test_wire_parse_points_rejects(self):
        with pytest.raises(ProtocolError, match="integ"):
            parse_points({"points": [[1, 2], [3, 4.2]]}, d=2, delta=64)
        arr = parse_points({"points": [[1, 2.0]]}, d=2, delta=64)
        assert arr.dtype == np.int64 and arr.tolist() == [[1, 2]]

    @pytest.mark.parametrize("entry", ["update_batch", "update_arrays"])
    def test_driver_entry_points_reject_fraction(self, params, entry):
        """(2.5, 3) is rejected, never ingested as (2, 3), and the driver's
        update count and checkpoint bytes do not move."""
        sc = StreamingCoreset(params, seed=0, o_range=(8.0, 64.0))
        sc.update_batch([((1, 1), 1)])
        before = (sc.num_updates, _state(sc))
        call = {
            "update_batch": lambda: sc.update_batch([((1, 2), 1),
                                                     ((2.5, 3), 1)]),
            "update_arrays": lambda: sc.update_arrays(
                np.array([[1.0, 2.0], [2.5, 3.0]]), np.ones(2, dtype=np.int64)),
        }[entry]
        with pytest.raises(ValueError):
            call()
        assert (sc.num_updates, _state(sc)) == before

    @pytest.mark.parametrize("entry", ["apply_arrays", "insert"])
    def test_sharded_entry_points_reject_fraction(self, params, entry):
        ing = ShardedIngest(params, seed=0, o_range=(8.0, 64.0))
        ing.apply_arrays([[1, 1]], [1])
        before = (ing.version, json.dumps(ing.to_state_dict(), sort_keys=True))
        svc = ClusteringService(ServiceConfig(k=2, d=2, delta=64, eps=0.45, eta=0.45,
                                              o_range=(8.0, 64.0)), ingest=ing)
        call = {
            "apply_arrays": lambda: ing.apply_arrays(
                [[1, 2], [2.5, 3]], np.ones(2, dtype=np.int64)),
            "insert": lambda: svc.insert([[1, 2], [2.5, 3]]),
        }[entry]
        with pytest.raises(ValueError, match="integral"):
            call()
        assert (ing.version,
                json.dumps(ing.to_state_dict(), sort_keys=True)) == before

    @pytest.mark.parametrize("rows", [[[5]], [[1, 2, 3]], []],
                             ids=["narrow", "wide", "empty list"])
    def test_wrong_width_rows_rejected(self, params, rows):
        """A (1, 1) row was read as the point (5, 0) of a d = 2 driver."""
        sc = StreamingCoreset(params, seed=0, o_range=(8.0, 64.0))
        before = _state(sc)
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            sc.update_arrays(np.array(rows, dtype=np.int64).reshape(1, -1), [1])
        assert (sc.num_updates, _state(sc)) == (0, before)
        svc = ClusteringService(ServiceConfig(k=2, d=2, delta=64, o_range=(8.0, 64.0)))
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            svc.insert(rows)
        assert svc.ingest.num_events == svc.ingest.version == 0

    def test_nan_and_overflow_rejected(self, params):
        sc = StreamingCoreset(params, seed=0, o_range=(8.0, 64.0))
        with pytest.raises(ValueError, match="finite"):
            sc.update_batch([((float("nan"), 1), 1)])
        with pytest.raises(ValueError):
            sc.update_batch([((1e30, 1), 1)])


# --------------------------------------------------------------------------
# Signs other than integral ±1 are rejected, never truncated.
# --------------------------------------------------------------------------
#: Bad sign vectors for a two-row batch.  An int64 cast would keep 2 (sketch
#: weight 2, one insertion counted), truncate 0.5 to 0 (no sketch change, a
#: deletion counted) and let a short vector fail with ``IndexError``.
_BAD_SIGNS = {
    "two": [1, 2],
    "half": [1, 0.5],
    "zero": [1, 0],
    "short": [1],
    "long": [1, -1, 1],
    "2-d": [[1, -1]],
    "nan": [1, float("nan")],
    "str": ["1", "-1"],
}


class TestSignRejection:
    @pytest.fixture
    def ingest(self):
        params = CoresetParams.practical(k=2, d=2, delta=64, eps=0.45, eta=0.45)
        ing = ShardedIngest(params, seed=0)  # pilot on: its sketches too
        ing.apply_arrays([[1, 1], [2, 2]], [1, 1])
        return ing

    @staticmethod
    def _snapshot(ing):
        return (ing.version, ing.num_insertions, ing.num_deletions,
                ing.driver.num_updates,
                json.dumps(ing.to_state_dict(), sort_keys=True))

    @pytest.mark.parametrize("entry", ["apply_arrays", "update_arrays"])
    @pytest.mark.parametrize("case", list(_BAD_SIGNS))
    def test_array_signs_rejected(self, ingest, entry, case):
        apply = (ingest.apply_arrays if entry == "apply_arrays"
                 else ingest.driver.update_arrays)
        before = self._snapshot(ingest)
        with pytest.raises(ValueError, match="signs"):
            apply(np.array([[3, 3], [4, 4]]), _BAD_SIGNS[case])
        assert self._snapshot(ingest) == before

    @pytest.mark.parametrize("sign", [2, 0.5, 0])
    def test_event_pair_signs_rejected(self, ingest, sign):
        before = self._snapshot(ingest)
        with pytest.raises(ValueError, match="signs"):
            ingest.apply_arrays(*events_to_arrays([((3, 3), 1), ((4, 4), sign)], d=2))
        assert self._snapshot(ingest) == before

    def test_integral_float_signs_accepted(self, ingest):
        twin = ShardedIngest(ingest.params, seed=0)
        twin.apply_arrays(*events_to_arrays([((1, 1), 1.0), ((2, 2), 1.0)], d=2))
        ingest.apply_arrays([[3, 3], [1, 1]], np.array([1.0, -1.0]))
        twin.apply_arrays([[3, 3], [1, 1]], [1, -1])
        assert self._snapshot(ingest) == self._snapshot(twin)
        assert (ingest.num_insertions, ingest.num_deletions) == (3, 1)


# --------------------------------------------------------------------------
# Lint guard: no per-event Python in the hot files (delegates to the HOT
# rule of ``repro lint``, the AST-accurate successor of the old regex scan —
# it also sees `.tolist()` calls and multi-line loop headers, and covers all
# six vectorized files instead of three).
# --------------------------------------------------------------------------
class TestNoScalarLoopsInHotPath:
    def test_hot_rule_clean_on_hot_files(self):
        """Every statement loop / ``.tolist()`` in the vectorized hot files
        must carry a ``# scalar-ok: <reason>`` marker — the reviewable
        assertion that it is NOT per-event work (decode, construction,
        per-coefficient, ...).  A new un-annotated loop fails here before it
        fails the benchmark."""
        from repro.analysis_lint import HOT_FILES, run_lint

        root = Path(__file__).resolve().parents[1]
        paths = [root / "src" / rel for rel in HOT_FILES]
        assert all(p.is_file() for p in paths), paths
        result = run_lint(paths, select=["HOT"], root=root)
        assert result.clean, "\n".join(f.render() for f in result.findings)
