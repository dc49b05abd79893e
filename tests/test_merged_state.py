"""The copy-on-write merged query state and the deferred Storing merge.

``ShardedIngest.merged_state`` copies shard 0 with
:meth:`StreamingCoreset.copy` (exact stores share their compacted columns)
and folds the other shards in with a *deferred* ``ExactStoring.merge_from``
that only logs the other side's columns; the group-by runs when a store is
first read.  These tests pin that against the previous implementation —
``copy.deepcopy`` of shard 0 plus an eager, pairwise-flushed fold, kept
here as a test-only oracle — and check that a merged state, once taken,
never changes when ingest continues.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoresetParams
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream
from repro.service import ClusteringService, ServiceConfig, ShardedIngest
from repro.service.state import sharded_state_to_dict
from repro.streaming import StreamingCoreset
from repro.streaming.merge import merge_storing, merge_streaming_states
from repro.streaming.storing import ExactStoring, _group_sum, _group_sum_pairs
from repro.utils.validation import FailedConstruction


# ------------------------------------------------------------------ oracle
def eager_merge_exact(a: ExactStoring, b: ExactStoring) -> None:
    """The previous ``ExactStoring.merge_from``: flush both, group-by now."""
    a._flush()
    b._flush()
    a._ckeys, a._ccounts = _group_sum(
        np.concatenate([a._ckeys, b._ckeys]),
        np.concatenate([a._ccounts, b._ccounts]))
    if a.recover_points:
        a._pcell, a._ppoint, a._pcount = _group_sum_pairs(
            np.concatenate([a._pcell, b._pcell]),
            np.concatenate([a._ppoint, b._ppoint]),
            np.concatenate([a._pcount, b._pcount]))


def legacy_merged_state(ingest: ShardedIngest) -> StreamingCoreset:
    """The previous ``merged_state``: deep copy plus a pairwise flushed fold."""
    merged = copy.deepcopy(ingest.shards[0])
    for shard in ingest.shards[1:]:
        for ia, ib in zip(merged.instances, shard.instances):
            ia.dead_reason = ia.dead_reason or ib.dead_reason
            for ga, gb in ((ia.store_h, ib.store_h), (ia.store_hp, ib.store_hp),
                           (ia.store_hhat, ib.store_hhat)):
                for sa, sb in zip(ga, gb):
                    if isinstance(sa, ExactStoring):
                        eager_merge_exact(sa, sb)
                    else:
                        merge_storing(sa, sb)
        if merged._pilot_sampler is not None:
            for sa, sb in zip(merged._pilot_sampler._sketches,
                              shard._pilot_sampler._sketches):
                sa.merge_from(sb)
        merged.num_updates += shard.num_updates
    return merged


def state_json(driver: StreamingCoreset) -> str:
    """Canonical checkpoint JSON of one driver."""
    return json.dumps(sharded_state_to_dict(ShardedIngest.from_shards([driver])),
                      sort_keys=True, separators=(",", ":"))


def assert_same_answer(got: StreamingCoreset, want: StreamingCoreset) -> None:
    """Equal coreset (points, weights, guess) or the same FAIL."""
    try:
        cw = want.finalize()
    except FailedConstruction:
        with pytest.raises(FailedConstruction):
            got.finalize()
        return
    cg = got.finalize()
    assert cg.o == cw.o
    np.testing.assert_array_equal(cg.points, cw.points)
    np.testing.assert_array_equal(cg.weights, cw.weights)
    np.testing.assert_array_equal(cg.part_ids, cw.part_ids)


# ---------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def small_world():
    """A short churn stream (the sketch backend ingests slowly)."""
    pts = np.unique(gaussian_mixture(900, 2, 64, k=3, seed=21), axis=0)
    stream = churn_stream(pts, delete_fraction=0.35, seed=4)
    return list(stream), CoresetParams.practical(k=3, d=2, delta=64)


@pytest.fixture(scope="module")
def dense_world():
    """~1.6k events over a dense grid with shrunken Storing budgets, so
    some guess instances die early, and on some shards only."""
    rng = np.random.default_rng(0)
    pts = np.unique(rng.integers(1, 65, size=(1500, 2)), axis=0)
    stream = churn_stream(pts, delete_fraction=0.3, seed=4)
    params = dataclasses.replace(CoresetParams.practical(k=3, d=2, delta=64),
                                 storing_alpha_factor=0.1)
    return list(stream), params


def _rows(events):
    return (np.array([ev.point for ev in events], dtype=np.int64),
            np.array([ev.sign for ev in events], dtype=np.int64))


def _feed_with_cross_shard_deletions(ing: ShardedIngest, events) -> None:
    """Large and one-event batches, plus deletions sent to the wrong shard."""
    half = len(events) // 2
    ing.apply_batch(events[:half])
    for ev in events[half: half + 8]:
        ing.apply_batch([ev])
    rest = events[half + 8:]
    ing.apply_batch(rest[: len(rest) // 2])
    # Delete a few live points through a shard that never saw them, then
    # re-insert them through their own shard: linearity cancels the pair.
    rows, _ = _rows(events[:6])
    for row in rows:
        wrong = (ing.shard_of(row) + 1) % ing.num_shards
        ing.shards[wrong].update_arrays(row[None, :], np.array([-1]))
        ing.shards[ing.shard_of(row)].update_arrays(row[None, :], np.array([1]))
    ing.apply_batch(rest[len(rest) // 2:])


# -------------------------------------------------------- oracle equality
class TestMergedStateMatchesOracle:
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_cross_shard_deletions(self, small_world, backend):
        events, params = small_world
        ing = ShardedIngest(params, num_shards=3, seed=9, backend=backend)
        _feed_with_cross_shard_deletions(ing, events)
        # The new merge first: it must cope with unflushed shard logs.
        got = ing.merged_state()
        want = legacy_merged_state(ing)
        assert_same_answer(got, want)
        assert state_json(got) == state_json(want)

    def test_early_killed_instances(self, dense_world):
        events, params = dense_world
        ing = ShardedIngest(params, num_shards=3, seed=9)
        _feed_with_cross_shard_deletions(ing, events)
        dead = [[inst.dead_reason is not None for inst in s.instances]
                for s in ing.shards]
        assert any(any(d) for d in dead)
        assert len({tuple(d) for d in dead}) > 1  # killed on some shards only
        got = ing.merged_state()
        want = legacy_merged_state(ing)
        assert [i.dead_reason for i in got.instances] == \
            [i.dead_reason for i in want.instances]
        assert_same_answer(got, want)
        assert state_json(got) == state_json(want)

    def test_merged_state_leaves_shards_untouched(self, small_world):
        events, params = small_world
        ing = ShardedIngest(params, num_shards=3, seed=9)
        _feed_with_cross_shard_deletions(ing, events)
        before = [state_json(s) for s in ing.shards]
        ing.merged_state().finalize()
        assert [state_json(s) for s in ing.shards] == before


_updates = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9),
                              st.sampled_from([1, -1])), max_size=30)


def _store(ops, recover: bool, flush: bool) -> ExactStoring:
    """A store fed half in one batch, half one event at a time; optionally
    compacted in between."""
    s = ExactStoring(6, 2, recover_points=recover)
    half = len(ops) // 2
    if half:
        arr = np.asarray(ops[:half], dtype=np.int64)
        s.update_many(arr[:, 0], arr[:, 1], arr[:, 2])
    if flush:
        s._flush()
    for c, p, sign in ops[half:]:
        s.update_many([c], [p], [sign])
    return s


def _observed(s: ExactStoring):
    try:
        res = s.result()
        decoded = (res.cells, res.small_points)
    except FailedConstruction:
        decoded = "FAIL"
    return s._cells, s._points, s.live_cells(), decoded


class TestDeferredMergeProperty:
    @given(st.lists(st.tuples(_updates, st.booleans()), min_size=2, max_size=5),
           st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_k_way_deferred_equals_pairwise_flushed(self, parts, recover, data):
        stores = [_store(ops, recover, flush) for ops, flush in parts]
        order = data.draw(st.permutations(range(len(stores))))
        snapshots = [_observed(copy.deepcopy(s)) for s in stores]

        deferred = stores[order[0]].copy()
        for j in order[1:]:
            deferred.merge_from(stores[j])
        # Merging never reads back into, or flushes, the sources.
        assert [_observed(copy.deepcopy(s)) for s in stores] == snapshots

        eager = copy.deepcopy(stores[0])
        for other in stores[1:]:
            eager_merge_exact(eager, copy.deepcopy(other))
        # The early-kill pre-check's cheap bound still never undercounts.
        assert deferred.live_cells_upper() >= eager.live_cells()
        assert _observed(deferred) == _observed(eager)

    @given(_updates, _updates, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_copy_is_independent(self, ops_a, ops_b, recover):
        a = _store(ops_a, recover, flush=False)
        snap = _observed(copy.deepcopy(a))
        b = a.copy()
        for c, p, sign in ops_b:
            b.update_many([c], [p], [sign])
        b.merge_from(_store(ops_b, recover, flush=True))
        b._flush()
        assert _observed(a) == snap


# -------------------------------------------------------------- isolation
class TestMergedStateIsolation:
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_later_ingest_does_not_leak_in(self, small_world, backend,
                                           monkeypatch):
        events, params = small_world
        ing = ShardedIngest(params, num_shards=3, seed=9, backend=backend)
        ing.apply_batch(events[: len(events) // 2])
        m = ing.merged_state()
        before = copy.deepcopy(m)
        # Every later batch compacts its stores, rebinding their columns.
        monkeypatch.setattr(ExactStoring, "FLUSH_THRESHOLD", 0)
        rest = events[len(events) // 2:]
        for lo in range(0, len(rest), 16):
            ing.apply_batch(rest[lo: lo + 16])
        for shard in ing.shards:
            for inst in shard.instances:
                for store in inst.store_h + inst.store_hp + inst.store_hhat:
                    if isinstance(store, ExactStoring):
                        store.live_cells()
        assert_same_answer(m, before)
        assert state_json(m) == state_json(before)

    def test_ingest_threads_during_unlocked_finalize(self, small_world,
                                                     monkeypatch):
        """Ingest threads run while ``ClusteringService.query`` finalizes
        outside its lock; the answer is the one of the state at merge time."""
        events, _ = small_world
        rows, signs = _rows(events)
        half = len(rows) // 2
        first = list(zip(rows[:half].tolist(), signs[:half].tolist()))
        rest = list(zip(rows[half:].tolist(), signs[half:].tolist()))
        config = ServiceConfig(k=3, d=2, delta=64, num_shards=3, seed=9)
        svc = ClusteringService(config)
        svc.apply_events(first)
        monkeypatch.setattr(ExactStoring, "FLUSH_THRESHOLD", 0)

        merged_taken = threading.Event()
        progressed = threading.Event()
        taken = []
        real_merged_state = svc.ingest.merged_state

        def merged_state():
            m = real_merged_state()
            taken.append((m, copy.deepcopy(m)))

            def finalize_after_ingest():
                # Runs outside the service lock: let the ingest threads
                # apply batches first, then decode while they continue.
                merged_taken.set()
                if not progressed.wait(timeout=60):
                    raise TimeoutError("ingest threads made no progress")
                return StreamingCoreset.finalize_with_instance(m)

            m.finalize_with_instance = finalize_after_ingest
            return m

        monkeypatch.setattr(svc.ingest, "merged_state", merged_state)

        def ingest(part):
            merged_taken.wait(timeout=60)
            for lo in range(0, len(part), 4):
                svc.apply_events(part[lo: lo + 4])
                progressed.set()

        # More ingest threads than cores, and frequent thread switches.
        workers = [threading.Thread(target=ingest, args=(rest[t::3],))
                   for t in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            result, hit = svc.query()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and not hit
        assert svc.ingest.num_events == len(events)

        reference = ClusteringService(config)
        reference.apply_events(first)
        want, _ = reference.query()
        assert result.version == want.version == 1
        assert result.o == want.o
        assert result.coreset_size == want.coreset_size
        np.testing.assert_array_equal(result.centers, want.centers)
        assert result.cost == want.cost
        (m, before), = taken
        assert state_json(m) == state_json(before) == state_json(
            legacy_merged_state(reference.ingest))


# ------------------------------------------------------------ merge guards
class TestMergeCompatibility:
    def _fed(self, **kwargs) -> StreamingCoreset:
        params = CoresetParams.practical(k=3, d=2, delta=64)
        sc = StreamingCoreset(params, seed=5, o_range=(1.0, 1e9), **kwargs)
        return sc

    def test_pilot_sampler_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        pts = np.unique(rng.integers(1, 65, size=(400, 2)), axis=0)[:300]
        a = self._fed(auto_pilot=True)
        b = self._fed(auto_pilot=False)
        a.update_arrays(pts[:150], np.ones(150, dtype=np.int64))
        b.update_arrays(pts[150:], np.ones(150, dtype=np.int64))
        with pytest.raises(ValueError, match="pilot"):
            merge_streaming_states(a, b)
        with pytest.raises(ValueError, match="pilot"):
            merge_streaming_states(b, a)

    def test_prefer_mismatch_rejected(self):
        a = self._fed(prefer="largest")
        b = self._fed(prefer="smallest")
        with pytest.raises(ValueError, match="prefer"):
            merge_streaming_states(a, b)

    def test_matching_drivers_still_merge(self):
        a = self._fed(auto_pilot=True)
        b = self._fed(auto_pilot=True)
        assert merge_streaming_states(a, b) is a
