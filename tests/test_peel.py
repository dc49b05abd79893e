"""The round-based IBLT peel and the column-wise IBLT merge, pinned to the
key-at-a-time peel and the bucket-at-a-time merge in ``tests/scalar_oracle.py``.

The peel must return the same ``{key: count}`` and raise
:class:`DecodeFailure` on the same sketches — overfull ones, keys wider than
63 bits, and negative counts (a deletion routed to another driver than its
insertion) included — and :meth:`DistinctSampler.sample` must pick the same
level, keys and estimate.  Every group of a grouped table (the nested point
sketches of a ``SketchStoring``) must peel as the scalar peel gives it
alone, a stalled group included.  The merge must leave the same
``bucket_rows()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoresetParams
from repro.hashing.kwise import as_keys
from repro.streaming import StreamingCoreset
from repro.streaming.l0sampler import DistinctSampler
from repro.streaming.merge import merge_streaming_states
from repro.streaming.sketch import DecodeFailure, IBLTSketch
from repro.streaming.storing import SketchStoring
from tests.scalar_oracle import (
    ScalarIBLT,
    scalar_decode,
    scalar_iblt_merge,
    scalar_sample,
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DecodeFailure:
        return "FAIL"


def assert_same_peel(sk: IBLTSketch) -> None:
    before = sk.bucket_rows()
    assert _outcome(sk.decode) == _outcome(scalar_decode, sk)
    assert sk.bucket_rows() == before  # decoding reads a copy


@st.composite
def sketches(draw):
    """An IBLT fed signed updates in a few batches: up to ~6× its capacity
    in distinct keys, keys up to 80 bits wide, counts of either sign."""
    ub = draw(st.sampled_from([6, 16, 40, 62, 63, 64, 80]))
    cap = draw(st.integers(1, 24))
    keys = draw(st.lists(st.integers(0, (1 << ub) - 1), min_size=0,
                         max_size=6 * cap + 2, unique=True))
    counts = draw(st.lists(st.integers(-3, 3).filter(bool),
                           min_size=len(keys), max_size=len(keys)))
    sk = IBLTSketch(cap, ub, seed=draw(st.integers(0, 2**31)))
    splits = sorted(draw(st.lists(st.integers(0, len(keys)), max_size=3)))
    for lo, hi in zip([0] + splits, splits + [len(keys)]):
        if hi > lo:
            sk.update_many(keys[lo:hi], counts[lo:hi])
    return sk


class TestPeelMatchesScalar:
    @given(sketches())
    @settings(max_examples=150, deadline=None)
    def test_same_decode_or_same_failure(self, sk):
        assert_same_peel(sk)

    def test_overfull_sketches_fail_alike(self):
        rng = np.random.default_rng(5)
        outcomes = []
        for trial in range(40):
            cap = int(rng.integers(2, 30))
            sk = IBLTSketch(cap, 20, seed=trial)
            n = int(rng.integers(3 * cap, 8 * cap))
            sk.update_many(rng.choice(1 << 20, size=n, replace=False),
                           np.ones(n, dtype=np.int64))
            want = _outcome(scalar_decode, sk)
            assert _outcome(sk.decode) == want
            outcomes.append(want == "FAIL")
        assert any(outcomes) and not all(outcomes)

    def test_keys_wider_than_63_bits(self):
        keys = [(1 << 70) + 3, (1 << 79) + 12345, 7, (1 << 63)]
        sk = IBLTSketch(8, 80, seed=2)
        sk.update_many(keys, [2, -1, 1, 5])
        assert sk.decode() == scalar_decode(sk) == {
            (1 << 70) + 3: 2, (1 << 79) + 12345: -1, 7: 1, (1 << 63): 5}

    def test_counts_past_the_int64_key_sum_bound(self):
        """A count·key beyond 2^63 needs the object-dtype peel."""
        key = (1 << 61) + 1
        sk = IBLTSketch(4, 62, seed=3)
        sk.update_many([key, 5], [8, 1])
        assert sk.decode() == scalar_decode(sk) == {5: 1, key: 8}

    def test_decode_is_sorted_by_key(self):
        sk = IBLTSketch(64, 20, seed=4)
        keys = np.random.default_rng(1).choice(1 << 20, size=50, replace=False)
        sk.update_many(keys, np.ones(50, dtype=np.int64))
        assert list(sk.decode()) == sorted(keys.tolist())


def feed_groups(table: IBLTSketch, feeds) -> None:
    """Feed ``feeds[g]`` (``(key, count)`` pairs) into group ``g`` of
    ``table``, all groups in one scatter."""
    ops = [(g, key, count) for g, feed in enumerate(feeds) for key, count in feed]
    if not ops:
        return
    group, keys, counts = zip(*ops)
    keys = as_keys(list(keys))
    table.apply_hashed(*table.family.hash_np(keys), keys,
                       np.asarray(counts, dtype=np.int64),
                       group=np.asarray([group], dtype=np.int64))


def group_outcomes(table: IBLTSketch, groups) -> list:
    return ["FAIL" if out is None else out for out in table.peel(groups)]


class TestJointPeel:
    @given(st.sampled_from([6, 41, 62, 63, 80]),
           st.lists(st.lists(st.tuples(st.integers(0, 2**80), st.integers(-2, 3)),
                             max_size=40), min_size=1, max_size=8),
           st.integers(0, 2**31), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_each_sketch_peels_as_alone(self, ub, feeds, seed, rnd):
        """The groups of one table peel together to what each gives alone
        under the scalar peel: empty and overfull ones too, in any order
        of the wanted groups, and a stall stays in its group."""
        feeds = [[(key % (1 << ub), count) for key, count in feed] for feed in feeds]
        table = IBLTSketch(4, ub, seed=seed, groups=len(feeds) + 1)
        feed_groups(table, feeds)
        groups = list(range(len(feeds) + 1))
        rnd.shuffle(groups)
        want = [_outcome(scalar_decode, table, g) for g in groups]
        assert group_outcomes(table, groups) == want
        alone = [group_outcomes(table, [g])[0] for g in groups]
        assert alone == want

    def test_stall_stays_in_its_group(self):
        table = IBLTSketch(2, 20, seed=3, groups=3)
        feeds = [[(k, 1) for k in range(200)], [(7, 2), (9, -1)], []]
        feed_groups(table, feeds)
        assert group_outcomes(table, [0, 1, 2]) == ["FAIL", {7: 2, 9: -1}, {}]
        assert [_outcome(scalar_decode, table, g) for g in range(3)] == [
            "FAIL", {7: 2, 9: -1}, {}]

    def test_wide_keys_in_one_group(self):
        """A key past 63 bits in one group sends every group to the object
        peel; each still peels as alone."""
        wide = [(1 << 70) + 3, (1 << 79) + 12345, (1 << 63)]
        table = IBLTSketch(8, 80, seed=2, groups=2)
        feed_groups(table, [[(k, 1) for k in wide], [(7, 1), (5, -2)]])
        assert group_outcomes(table, [0, 1]) == [
            scalar_decode(table, 0), scalar_decode(table, 1)]
        assert group_outcomes(table, [1]) == [{5: -2, 7: 1}]

    def test_counts_past_the_int64_key_sum_bound_in_one_group(self):
        """A count·key beyond 2^63 in group 1 needs the object-dtype peel."""
        key = (1 << 61) + 1
        table = IBLTSketch(4, 62, seed=3, groups=2)
        feed_groups(table, [[(3, 1)], [(key, 8), (5, 1)]])
        assert group_outcomes(table, [0, 1]) == [{3: 1}, {5: 1, key: 8}]
        assert [scalar_decode(table, g) for g in (0, 1)] == [{3: 1}, {5: 1, key: 8}]


def _cross_shard_sketches(backend: str):
    """Every IBLT of a driver whose stream had deletions routed to another
    shard than their insertions (so single shards hold negative counts),
    plus the merged driver's."""
    params = CoresetParams.practical(k=3, d=2, delta=64)
    rng = np.random.default_rng(11)
    pts = np.unique(rng.integers(1, 64, size=(160, 2)), axis=0)[:120]
    gone = pts[rng.choice(len(pts), 40, replace=False)]
    shards = [StreamingCoreset(params, seed=7, backend=backend) for _ in range(3)]
    shards[0].update_arrays(pts[:70], np.ones(70, dtype=np.int64))
    shards[1].update_arrays(pts[70:], np.ones(len(pts) - 70, dtype=np.int64))
    shards[2].update_arrays(gone, -np.ones(len(gone), dtype=np.int64))
    merged = merge_streaming_states(shards[0].copy(), *shards[1:])
    return shards + [merged]


def _iblts(driver: StreamingCoreset):
    for sk in driver._pilot_sampler._sketches:
        yield sk, [0]
    for inst in driver.instances:
        for store in inst.store_h + inst.store_hp + inst.store_hhat:
            if isinstance(store, SketchStoring):
                yield store._cells, [0]
                if store._points is not None:
                    yield store._points, [g for g, _ in store._points.group_rows()]


class TestDriversMatchScalar:
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_every_sketch_and_sample(self, backend):
        drivers = _cross_shard_sketches(backend)
        negative = 0
        for driver in drivers:
            for sk, groups in _iblts(driver):
                negative += any(row[2] < 0 for row in sk.bucket_rows())
                before = sk.bucket_rows()
                assert group_outcomes(sk, groups) == [
                    _outcome(scalar_decode, sk, g) for g in groups]
                assert sk.bucket_rows() == before
            sampler = driver._pilot_sampler
            assert _outcome(sampler.sample) == _outcome(scalar_sample, sampler)
        assert negative  # the shard-2 sketches hold only deletions


class TestSamplerMatchesScalar:
    @given(st.lists(st.tuples(st.integers(0, 4095), st.sampled_from([1, 1, -1])),
                    max_size=400),
           st.integers(2, 16), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_same_level_keys_and_estimate(self, ops, m, seed):
        sampler = DistinctSampler(m, 12, seed=seed)
        if ops:
            keys, signs = zip(*ops)
            sampler.update_many(np.array(keys), np.array(signs))
        assert _outcome(sampler.sample) == _outcome(scalar_sample, sampler)


class TestMergeMatchesScalar:
    @given(sketches(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bucket_rows_identical(self, src, data):
        dst = src.copy()
        dst.load_bucket_rows([])  # empty, src's shape and hash family
        keys = data.draw(st.lists(st.integers(0, (1 << src.universe_bits) - 1),
                                  max_size=20))
        if keys:
            dst.update_many(keys, [1] * len(keys))
        want = ScalarIBLT.of(dst)
        scalar_iblt_merge(want, ScalarIBLT.of(src))
        before = src.bucket_rows()
        dst.merge_from(src)
        assert dst.bucket_rows() == want.rows()
        assert src.bucket_rows() == before
        assert _outcome(dst.decode) == _outcome(scalar_decode, want)
