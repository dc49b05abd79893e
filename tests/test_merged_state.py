"""The linear fold of drivers, the deferred Storing merge and the
copy-on-write query state.

:func:`merge_streaming_states` folds drivers built from one
``(params, seed)`` and fed disjoint parts of a stream — the sites of a
fleet, or the shards of an old multi-shard checkpoint being restored.  It
copies nothing: each exact store takes the other sides' columns in a
*deferred* ``ExactStoring.merge_from`` that only logs them, and the
group-by runs when a store is first read.  These tests pin the fold
against the previous implementation — ``copy.deepcopy`` plus an eager,
pairwise-flushed fold, kept here as a test-only oracle — with every
deletion fed to a different driver than its insertion, so the drivers
hold negative counts that cancel in the fold, in any fold order.  They
also check that a query's copy of a service's driver
(``ShardedIngest.merged_state``), once taken, never changes when ingest
continues.
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
from repro.service.state import streaming_state_to_dict
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


def legacy_merged_state(drivers: list) -> StreamingCoreset:
    """The previous fold: deep copy plus a pairwise flushed fold (keeping
    the smallest kill reason, as the one-pass fold does)."""
    merged = copy.deepcopy(drivers[0])
    for shard in drivers[1:]:
        for ia, ib in zip(merged.instances, shard.instances):
            reasons = [r for r in (ia.dead_reason, ib.dead_reason) if r is not None]
            ia.dead_reason = min(reasons, default=None)
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
    return json.dumps(streaming_state_to_dict(driver), sort_keys=True,
                      separators=(",", ":"))


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
    some guess instances die early, and in some drivers only."""
    rng = np.random.default_rng(0)
    pts = np.unique(rng.integers(1, 65, size=(1500, 2)), axis=0)
    stream = churn_stream(pts, delete_fraction=0.3, seed=4)
    params = dataclasses.replace(CoresetParams.practical(k=3, d=2, delta=64),
                                 storing_alpha_factor=0.1)
    return list(stream), params


def _rows(events):
    return (np.array([ev.point for ev in events], dtype=np.int64),
            np.array([ev.sign for ev in events], dtype=np.int64))


def fed_drivers(params, num: int, events, backend: str = "exact") -> list:
    """``num`` drivers with one seed, fed disjoint parts of ``events``.

    Insertions go round robin over uneven shares (driver ``j`` takes
    ``j + 1`` of every ``num·(num+1)/2``), so the drivers' loads, and which
    guesses they kill early, differ.  Every deletion goes to the driver
    after its insertion's, so with ``num > 1`` no deletion meets its
    insertion and the drivers hold negative counts.  Each part is fed as a
    large batch, eight one-event batches and two more large batches.
    """
    drivers = [StreamingCoreset(params, seed=9, backend=backend)
               for _ in range(num)]
    parts: list[list] = [[] for _ in range(num)]
    shares = [j for j in range(num) for _ in range(j + 1)]
    home: dict = {}
    for ev in events:
        if ev.sign > 0:
            home[ev.point] = j = shares[len(home) % len(shares)]
        else:
            j = (home[ev.point] + 1) % num
        parts[j].append(ev)
    for driver, part in zip(drivers, parts):
        n, half = len(part), len(part) // 2
        cuts = sorted({min(c, n) for c in
                       (0, *range(half, half + 9), (n + half + 8) // 2, n)})
        for lo, hi in zip(cuts, cuts[1:]):
            driver.update_arrays(*_rows(part[lo:hi]))
    return drivers


def fold(drivers: list) -> StreamingCoreset:
    """The drivers summed into a copy of the first (they are only read)."""
    return merge_streaming_states(drivers[0].copy(), *drivers[1:])


# -------------------------------------------------------- oracle equality
class TestMergedStateMatchesOracle:
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_cross_shard_deletions(self, small_world, backend):
        """Deletions in other drivers than their insertions: the fold
        equals the oracle's and the driver fed the whole stream."""
        events, params = small_world
        drivers = fed_drivers(params, 3, events, backend)
        if backend == "exact":  # the drivers really hold negative counts
            assert any(cnt < 0
                       for d in drivers
                       for store in d.instances[0].store_hhat
                       for cell_points in store._points.values()
                       for cnt in cell_points.values())
        # The new fold first: it must cope with unflushed driver logs.
        got = fold(drivers)
        want = legacy_merged_state(drivers)
        assert_same_answer(got, want)
        assert state_json(got) == state_json(want)
        whole = StreamingCoreset(params, seed=9, backend=backend)
        whole.update_arrays(*_rows(events))
        assert state_json(got) == state_json(whole)

    def test_early_killed_instances(self, dense_world):
        events, params = dense_world
        drivers = fed_drivers(params, 3, events)
        dead = [[inst.dead_reason is not None for inst in d.instances]
                for d in drivers]
        assert any(any(d) for d in dead)
        assert len({tuple(d) for d in dead}) > 1  # killed in some drivers only
        got = fold(drivers)
        want = legacy_merged_state(drivers)
        assert [i.dead_reason for i in got.instances] == \
            [i.dead_reason for i in want.instances]
        assert_same_answer(got, want)
        assert state_json(got) == state_json(want)

    def test_merged_state_leaves_shards_untouched(self, small_world):
        events, params = small_world
        drivers = fed_drivers(params, 3, events)
        before = [state_json(d) for d in drivers]
        fold(drivers).finalize()
        assert [state_json(d) for d in drivers] == before


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
        ing = ShardedIngest(params, seed=9, backend=backend)
        ing.apply_batch(events[: len(events) // 2])
        m = ing.merged_state()
        before = copy.deepcopy(m)
        # Every later batch compacts its stores, rebinding their columns.
        monkeypatch.setattr(ExactStoring, "FLUSH_THRESHOLD", 0)
        rest = events[len(events) // 2:]
        for lo in range(0, len(rest), 16):
            ing.apply_batch(rest[lo: lo + 16])
        for inst in ing.driver.instances:
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
        config = ServiceConfig(k=3, d=2, delta=64, seed=9)
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
            reference.ingest.driver)


# ------------------------------------------------------------ merge guards
class TestMergeCompatibility:
    def _fed(self, o_range) -> StreamingCoreset:
        params = CoresetParams.practical(k=3, d=2, delta=64)
        return StreamingCoreset(params, seed=5, o_range=o_range)

    def test_pilot_sampler_mismatch_rejected(self):
        """No window (pilot kept) against the window (1, top): the same
        guess schedule, but only one side has a pilot."""
        rng = np.random.default_rng(3)
        pts = np.unique(rng.integers(1, 65, size=(400, 2)), axis=0)[:300]
        a = self._fed(None)
        top = a.instances[-1].o
        b = self._fed((1.0, top))
        assert [i.o for i in a.instances] == [i.o for i in b.instances]
        a.update_arrays(pts[:150], np.ones(150, dtype=np.int64))
        b.update_arrays(pts[150:], np.ones(150, dtype=np.int64))
        with pytest.raises(ValueError, match="pilot"):
            merge_streaming_states(a, b)
        with pytest.raises(ValueError, match="pilot"):
            merge_streaming_states(b, a)

    def test_matching_drivers_still_merge(self):
        a = self._fed(None)
        b = self._fed(None)
        assert merge_streaming_states(a, b) is a

    def test_seed_mismatch_rejected(self):
        """Drivers built with other seeds hash with other polynomials and
        pilot sketches, and shift their grids otherwise."""
        params = CoresetParams.practical(k=3, d=2, delta=64)
        a = StreamingCoreset(params, seed=1, o_range=(1.0, 1e9))
        b = StreamingCoreset(params, seed=2, o_range=(1.0, 1e9))
        with pytest.raises(ValueError, match=r"different seeds \(1 vs 2\)"):
            merge_streaming_states(a, b)
        with pytest.raises(ValueError, match="seeds"):
            merge_streaming_states(a.copy(), a, b)


# ------------------------------------------------------------ one-pass fold
def _pairwise_fold(acc: StreamingCoreset, others) -> StreamingCoreset:
    for other in others:
        merge_streaming_states(acc, other)
    return acc


class TestOnePassFold:
    @pytest.mark.parametrize("backend,num_shards", [
        ("exact", 1), ("exact", 2), ("exact", 3), ("exact", 5), ("sketch", 3)])
    def test_fold_equals_pairwise_and_legacy(self, small_world, backend,
                                             num_shards):
        """The one-pass fold, the pairwise fold, the oracle and the restore
        of an N-shard checkpoint (:meth:`ShardedIngest.from_drivers`) give
        the same bytes, and only the restore writes into its drivers."""
        events, params = small_world
        drivers = fed_drivers(params, num_shards, events, backend)
        before = [state_json(d) for d in drivers]
        want = state_json(legacy_merged_state(drivers))
        pairwise = _pairwise_fold(drivers[0].copy(), drivers[1:])
        assert state_json(pairwise) == want
        assert state_json(fold(drivers)) == want
        assert [state_json(d) for d in drivers] == before
        restored = ShardedIngest.from_drivers([d.copy() for d in drivers])
        assert state_json(restored.driver) == want

    @given(st.data())
    @settings(max_examples=6, deadline=None)
    def test_fold_in_any_order(self, dense_world, data):
        """Any number of drivers, any driver leading the fold and any order
        of the others: the same merged-state bytes as the fold in driver
        order, and as the pairwise and the legacy fold in the drawn order,
        early-killed instances and the pilot's rows included."""
        events, params = dense_world
        num_shards = data.draw(st.integers(1, 5))
        drivers, before = _dense_drivers(params, num_shards, events)
        order = data.draw(st.permutations(range(num_shards)))
        lead, others = drivers[order[0]], [drivers[j] for j in order[1:]]
        got = state_json(merge_streaming_states(lead.copy(), *others))
        assert got == state_json(fold(drivers))
        assert got == state_json(_pairwise_fold(lead.copy(), others))
        assert got == state_json(legacy_merged_state([lead, *others]))
        assert [state_json(d) for d in drivers] == before

    @pytest.mark.parametrize("num_shards", [2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_kill_reason_is_order_free(self, dense_world, num_shards, data):
        """Whichever driver leads the fold and whatever order the rest
        come in, every instance keeps the same kill reason (the smallest),
        although on three drivers the drivers disagree about some."""
        events, params = dense_world
        drivers, _ = _dense_drivers(params, num_shards, events)
        reasons = [[inst.dead_reason for inst in d.instances] for d in drivers]
        if num_shards == 3:
            assert any(len(set(filter(None, per))) > 1 for per in zip(*reasons))
        order = data.draw(st.permutations(range(num_shards)))
        got = merge_streaming_states(drivers[order[0]].copy(),
                                     *(drivers[j] for j in order[1:]))
        want = [min(filter(None, per), default=None) for per in zip(*reasons)]
        assert [inst.dead_reason for inst in got.instances] == want


_DENSE_DRIVERS: dict = {}


def _dense_drivers(params, num: int, events):
    """One set of fed drivers per driver count, with their state JSON (the
    tests above only read the drivers)."""
    if num not in _DENSE_DRIVERS:
        drivers = fed_drivers(params, num, events)
        _DENSE_DRIVERS[num] = drivers, [state_json(d) for d in drivers]
    return _DENSE_DRIVERS[num]
