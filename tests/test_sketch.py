"""Tests for the 1-sparse buckets and IBLT peeling sketches."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.sketch import DecodeFailure, IBLTSketch


def feed(sk, *ups):
    """Apply ``(key, delta)`` updates as one batch."""
    keys, deltas = zip(*ups)
    sk.update_many(list(keys), list(deltas))


class TestIBLTBasics:
    def test_single_key(self):
        sk = IBLTSketch(4, 32, seed=1)
        feed(sk, (42, 3))
        assert sk.decode() == {42: 3}

    def test_insert_delete_cancels(self):
        sk = IBLTSketch(4, 32, seed=1)
        feed(sk, (42, 1))
        feed(sk, (42, -1))
        assert sk.decode() == {}

    def test_linearity_order_independent(self):
        a = IBLTSketch(8, 32, seed=3)
        b = IBLTSketch(8, 32, seed=3)
        updates = [(5, 1), (7, 2), (5, -1), (9, 1), (7, -1)]
        for k, dlt in updates:
            feed(a, (k, dlt))
        for k, dlt in reversed(updates):
            feed(b, (k, dlt))
        assert a.decode() == b.decode() == {7: 1, 9: 1}

    def test_many_keys_within_capacity(self):
        sk = IBLTSketch(64, 48, seed=5)
        truth = {int(k): 1 for k in np.random.default_rng(0).choice(1 << 40, 50, replace=False)}
        for k in truth:
            feed(sk, (k, 1))
        assert sk.decode() == truth

    def test_over_capacity_raises(self):
        sk = IBLTSketch(4, 32, seed=2)
        for k in range(200):
            feed(sk, (k, 1))
        with pytest.raises(DecodeFailure):
            sk.decode()

    def test_transient_overflow_recovers(self):
        """Deletions shrink the live set below capacity before decoding —
        the linearity property Theorem 4.5 rests on."""
        sk = IBLTSketch(8, 32, seed=4)
        for k in range(500):
            feed(sk, (k, 1))
        for k in range(495):
            feed(sk, (k, -1))
        assert sk.decode() == {k: 1 for k in range(495, 500)}

    def test_bigint_keys(self):
        sk = IBLTSketch(8, 150, seed=6)
        keys = [(1 << 149) + 7, (1 << 100) + 3, 12]
        for k in keys:
            feed(sk, (k, 2))
        assert sk.decode() == {k: 2 for k in keys}

    def test_total_count(self):
        """Row 0 holds every key once: its counts sum to the signed total."""
        sk = IBLTSketch(8, 32, seed=7)
        feed(sk, (1, 5))
        feed(sk, (2, 3))
        feed(sk, (1, -2))
        assert sum(row[2] for row in sk.bucket_rows() if row[0] == 0) == 6

    def test_decode_does_not_mutate(self):
        sk = IBLTSketch(8, 32, seed=8)
        feed(sk, (10, 1))
        first = sk.decode()
        second = sk.decode()
        assert first == second == {10: 1}

    @given(st.lists(st.tuples(st.integers(0, 1 << 30), st.integers(1, 3)),
                    min_size=0, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_property_decode_matches_counter(self, updates):
        from collections import Counter

        sk = IBLTSketch(32, 32, seed=9)
        truth = Counter()
        for key, cnt in updates:
            feed(sk, (key, cnt))
            truth[key] += cnt
        expected = {k: v for k, v in truth.items() if v != 0}
        assert sk.decode() == expected


def feed_group(sk, group, *ups):
    """Apply ``(key, delta)`` updates to one group of a table."""
    keys, deltas = (np.asarray(col, dtype=np.int64) for col in zip(*ups))
    sk.apply_hashed(*sk.family.hash_np(keys), keys, deltas,
                    group=np.full((1, len(keys)), group))


class TestSharedFamily:
    def test_shared_family_sketches_independent_content(self):
        """The groups of one table share a hash family, not content."""
        sk = IBLTSketch(8, 32, seed=1, groups=4)
        feed_group(sk, 1, (5, 1))
        feed_group(sk, 3, (6, 2), (5, 1))
        assert sk.peel([0, 1, 3]) == [{}, {5: 1}, {5: 1, 6: 2}]
        assert [g for g, _ in sk.group_rows()] == [1, 3]
        assert sk.decode() == {}

    def test_family_bucket_mismatch_rejected(self):
        """Tables of different bucket counts or group counts never add."""
        with pytest.raises(ValueError, match="shapes"):
            IBLTSketch(8, 32, seed=1).merge_from(IBLTSketch(100, 32, seed=1))
        with pytest.raises(ValueError, match="shapes"):
            IBLTSketch(8, 32, seed=1).merge_from(IBLTSketch(8, 32, seed=1, groups=2))
        with pytest.raises(ValueError, match="in-range"):
            IBLTSketch(8, 32, seed=1, groups=2).load_bucket_rows(
                [[0, 0, 1, 5, 7]], group=np.array([2]))


class TestSpaceAccounting:
    def test_space_bits_independent_of_content(self):
        sk = IBLTSketch(16, 32, seed=1)
        before = sk.space_bits()
        for k in range(10):
            feed(sk, (k, 1))
        assert sk.space_bits() == before

    def test_resident_grows_with_content(self):
        sk = IBLTSketch(16, 32, seed=1)
        base = sk.resident_bits()
        feed(sk, (1, 1))
        assert sk.resident_bits() > base

    def test_groups_charge_one_layout_each_and_one_family(self):
        one = IBLTSketch(8, 32, seed=1)
        table = IBLTSketch(8, 32, seed=1, groups=5)
        randomness = one.family.randomness_bits
        assert table.space_bits() - randomness == 5 * (one.space_bits() - randomness)
        feed_group(table, 4, (1, 1))
        assert table.resident_bits() == one.resident_bits() + (
            3 * (one.space_bits() - randomness) // one.span)

    def test_space_scales_with_capacity(self):
        small = IBLTSketch(8, 32, seed=1).space_bits()
        large = IBLTSketch(800, 32, seed=1).space_bits()
        assert large > 50 * small
