"""Linear sketches for dynamic geometric streams.

The ``Storing`` subroutine of Lemma 4.2 must, under arbitrary interleavings
of insertions and deletions, recover at the end of the stream (a) all
non-empty cells with exact counts and (b) the points of every small cell.
The classic tool is an invertible-Bloom-lookup-table (IBLT) style sketch:

- each **bucket** holds a signed counter, a key-weighted sum, and a
  fingerprint sum over a random hash of the key.  A bucket is *1-sparse*
  (holds exactly one distinct key) iff ``keysum = count · key`` for the
  integer ``key = keysum / count`` and the fingerprint matches — the
  fingerprint makes false positives vanishingly unlikely;
- an :class:`IBLTSketch` hashes every key into one bucket per row (3 rows)
  and **peels**: recover a key from any 1-sparse bucket, subtract it
  everywhere, repeat.  Decoding succeeds w.h.p. whenever the number of
  distinct live keys is within the sketch's capacity, and the sketch is
  *linear*: updates commute, deletions are negative insertions.

Implementation notes (performance — see the HPC guide):

- bucket state is **sparse-columnar**: the touched flat positions
  ``row·m + pos`` sit in one increasing int64 column, next to three
  accumulator columns (int64 counts; object-dtype key/fingerprint sums,
  since both can exceed 64 bits).  :meth:`IBLTSketch.update_many` applies a
  whole batch with one stacked Horner sweep, one ``searchsorted`` touch
  (inserting new positions in order) and three ``np.add.at`` scatters.
  The state is a function of the bucket contents alone — not of the
  batching, the event order or the order sketches were merged in — and so
  are the checkpoint rows (:meth:`IBLTSketch.bucket_rows`).
- one table can hold many sketches of one shape (``groups``): group ``g``
  owns the flat positions ``g·ROWS·m + row·m + pos``, and all groups share
  one :class:`SketchHashFamily`.  The nested per-bucket point sketches of
  :class:`~repro.streaming.storing.SketchStoring` are the groups of one
  table, so a batch hashes its points once and lands in one scatter.
- :meth:`IBLTSketch.merge_from` touches the other table's positions and
  adds the three sums column-wise.
- :meth:`IBLTSketch.peel` peels in rounds over the columns of the wanted
  groups: every verified 1-sparse bucket is found at once, the distinct
  keys are subtracted at all their positions with ``np.subtract.at``, and
  the next round checks only the buckets that changed.  Groups are
  disjoint, so each peels exactly as it would alone.  Key sums run in
  int64 while a pure bucket's ``count·key`` provably fits, else in object
  dtype; the fingerprint check is exact either way.  The key-at-a-time
  peel is the oracle in ``tests/scalar_oracle.py``.
- a zeroed bucket is equivalent to an absent one; decoding only walks
  touched buckets.  ``space_bits`` still charges the full pre-allocated
  layout a space-bounded implementation would use; ``resident_bits``
  reports what is actually materialized.
"""

from __future__ import annotations

import copy
from itertools import chain

import numpy as np

from repro.hashing.kwise import KWiseHash, StackedHashes, as_keys, json_ints
from repro.utils.rng import derive_seed

__all__ = ["IBLTSketch", "SketchHashFamily", "DecodeFailure"]


class DecodeFailure(Exception):
    """The sketch held more distinct keys than its capacity allows."""


class SketchHashFamily:
    """Row hashes + fingerprint shared by every IBLT of one shape.

    The three row polynomials (λ = 6) and the fingerprint polynomial
    (λ = 4) share one prime, so :meth:`hash_np` evaluates all four in one
    stacked Horner sweep.
    """

    ROWS = 3
    FP_MOD = (1 << 61) - 1

    def __init__(self, buckets_per_row: int, universe_bits: int, seed=0):
        self.m = int(buckets_per_row)
        if self.m < 1:
            raise ValueError(f"buckets_per_row must be >= 1, got {self.m}")
        self.universe_bits = int(universe_bits)
        self.row_hash = [
            KWiseHash(independence=6, universe_bits=universe_bits,
                      seed=derive_seed(seed, f"iblt-row-{r}"))
            for r in range(self.ROWS)
        ]
        self._fp = KWiseHash(independence=4, universe_bits=universe_bits,
                             seed=derive_seed(seed, "iblt-fp"))
        self._stacked = StackedHashes(self.row_hash + [self._fp])

    def positions(self, key: int) -> tuple[int, ...]:
        """Bucket index of ``key`` in every row (scalar reference path)."""
        return tuple(h.value(key) % self.m for h in self.row_hash)

    def fingerprint(self, key: int) -> int:
        """Verification fingerprint of ``key`` (mod a 61-bit prime)."""
        return self._fp.value(key) % self.FP_MOD

    def hash_np(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, fingerprints)`` for a batch, from one sweep:
        a ``(ROWS, n)`` int64 bucket array and the ``n`` fingerprints
        (int64 on the fast path, else object)."""
        vals = self._stacked.values_np(keys)
        pos = (vals[:self.ROWS] % self.m).astype(np.int64, copy=False)
        return pos, vals[self.ROWS] % self.FP_MOD

    @property
    def randomness_bits(self) -> int:
        """Stored randomness of the row hashes plus the fingerprint hash."""
        return (sum(h.randomness_bits for h in self.row_hash)
                + self._fp.randomness_bits)


class IBLTSketch:
    """Peelable key/count sketch with a given distinct-key capacity.

    Parameters
    ----------
    capacity:
        Number of distinct keys the decoder must handle (the α or β of
        Lemma 4.2).  Buckets per row are 2×capacity (min 8).
    universe_bits:
        Keys satisfy 0 ≤ key < 2^universe_bits (Python bigints fine).
    seed:
        Seeds the hash family.
    groups:
        Number of sketches the table holds (group ``g`` owns the flat
        positions ``[g·ROWS·m, (g+1)·ROWS·m)``), all hashed by one family.
    """

    ROWS = SketchHashFamily.ROWS

    def __init__(self, capacity: int, universe_bits: int, seed=0, groups: int = 1):
        self.capacity = int(capacity)
        self.universe_bits = int(universe_bits)
        self.groups = int(groups)
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        self.family = SketchHashFamily(max(8, 2 * self.capacity), universe_bits,
                                       seed=seed)
        self.m = self.family.m
        #: Flat positions one group spans.
        self.span = self.ROWS * self.m
        self._row_base = (np.arange(self.ROWS, dtype=np.int64) * self.m)[:, None]
        # Sparse-columnar bucket state: touched flat positions, increasing,
        # and their sums.
        self._flat = np.zeros(0, dtype=np.int64)
        self._count = np.zeros(0, dtype=np.int64)
        self._keysum = np.zeros(0, dtype=object)  # can exceed 64 bits
        self._fpsum = np.zeros(0, dtype=object)   # count · fp exceeds 2^63 fast

    # -- columnar plumbing ----------------------------------------------------
    def _touch(self, flat: np.ndarray) -> np.ndarray:
        """Column index of every entry of ``flat`` (any shape), inserting
        the positions not touched yet as zero buckets, in position order."""
        have = self._flat
        idx = np.searchsorted(have, flat)
        if len(have):
            found = have.take(idx, mode="clip") == flat
            if found.all():
                return idx
            new = _distinct(flat[~found])
        else:
            new = _distinct(flat)
        size = len(have) + len(new)
        old = np.ones(size, dtype=bool)
        old[np.searchsorted(have, new) + np.arange(len(new))] = False
        merged = np.empty(size, dtype=np.int64)
        merged[old], merged[~old] = have, new
        self._flat = merged
        for name in ("_count", "_keysum", "_fpsum"):  # scalar-ok: three columns
            col = getattr(self, name)
            grown = np.zeros(size, dtype=col.dtype)
            grown[old] = col
            setattr(self, name, grown)
        return idx + np.searchsorted(new, flat)

    def flat_positions(self, pos_rows: np.ndarray, group=None) -> np.ndarray:
        """Flat positions of hashed keys: ``(ROWS, n)`` from the
        :meth:`SketchHashFamily.hash_np` positions, or ``(ROWS, G, n)``
        when ``group`` names ``G`` groups for each of the ``n`` keys."""
        flat = pos_rows + self._row_base
        if group is None:
            return flat
        return flat[:, None, :] + group * self.span

    def bucket_rows(self) -> list[list[int]]:
        """Materialized buckets as ``[row, pos, count, keysum, fpsum]`` rows
        of Python ints, in bucket-position order — the checkpoint form,
        built column-wise.  In a table of several groups ``row`` counts on
        across groups (group ``g``'s rows are ``g·ROWS`` … ``g·ROWS + 2``);
        :meth:`group_rows` splits them."""
        row, pos = np.divmod(self._flat, self.m)
        cols = (row, pos, self._count, self._keysum, self._fpsum)
        return np.column_stack(cols).tolist()  # scalar-ok: checkpoint encode

    def group_rows(self) -> list[tuple[int, list[list[int]]]]:
        """``(group, rows)`` of every touched group, in group order, each
        group's rows as :meth:`bucket_rows` gives a one-group table's."""
        group, flat = np.divmod(self._flat, self.span)
        row, pos = np.divmod(flat, self.m)
        cols = (row, pos, self._count, self._keysum, self._fpsum)
        rows = np.column_stack(cols).tolist()  # scalar-ok: checkpoint encode
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        bounds = np.append(starts, len(group)).tolist()  # scalar-ok: one bound per group
        return [(g, rows[lo:hi]) for g, lo, hi in  # scalar-ok: checkpoint encode, per group
                zip(group[starts].tolist(), bounds, bounds[1:])]  # scalar-ok: one id per group

    def load_bucket_rows(self, rows, *, group=None, canonical: bool = True) -> None:
        """Inverse of :meth:`bucket_rows` (checkpoint restore) into an empty
        table; ``group`` gives the group of every row (default group 0,
        rows then numbered within their group).

        Every row must name an in-range bucket, else ``ValueError``.
        ``canonical`` input (state format v2) must list them in strictly
        increasing position order, else ``ValueError``.  With
        ``canonical=False`` (v1 files) rows load in any order, and a bucket
        listed twice keeps its last row — the v1 reference semantics.
        Either way an entry that is not an integer raises ``ValueError``.
        """
        what = "v2 state: IBLT rows" if canonical else "checkpoint IBLT rows"
        json_ints(chain.from_iterable(rows), what)
        cols = np.array(rows, dtype=object)
        if not len(rows):
            cols = cols.reshape(0, 5)
        if cols.ndim != 2 or cols.shape[1] != 5:
            raise ValueError(f"{what} must be [row, pos, count, keysum, fpsum]")
        try:
            row, pos = cols[:, 0].astype(np.int64), cols[:, 1].astype(np.int64)
        except OverflowError:
            raise ValueError(f"{what} must name in-range buckets") from None
        g = np.zeros(len(row), dtype=np.int64) if group is None else group
        if not ((row >= 0) & (row < self.ROWS) & (pos >= 0) & (pos < self.m)
                & (g >= 0) & (g < self.groups)).all():
            raise ValueError(f"{what} must name in-range buckets")
        flat = g * self.span + row * self.m + pos
        if canonical:
            if not (flat[1:] > flat[:-1]).all():
                raise ValueError(f"{what} must be in increasing position order")
            keep = np.arange(len(flat))
        else:
            order = np.argsort(flat, kind="stable")
            last = np.ones(len(order), dtype=bool)
            last[:-1] = flat[order][1:] != flat[order][:-1]
            keep = order[last]
        self._flat = flat[keep]
        self._count = cols[keep, 2].astype(np.int64)
        self._keysum = cols[keep, 3]
        self._fpsum = cols[keep, 4]

    def copy(self) -> "IBLTSketch":
        """An independent sketch with the same buckets; shares the family
        and the position column, which is rebound, never written in place."""
        new = copy.copy(self)
        new._count = self._count.copy()
        new._keysum = self._keysum.copy()
        new._fpsum = self._fpsum.copy()
        return new

    # -- updates -------------------------------------------------------------
    def update_many(self, keys, deltas) -> None:
        """Apply a batch of signed updates (group 0) in vectorized sweeps."""
        keys = as_keys(keys)
        if keys.size == 0:
            return
        deltas = np.asarray(deltas, dtype=np.int64)
        self.apply_hashed(*self.family.hash_np(keys), keys, deltas)

    def apply_hashed(self, pos_rows: np.ndarray, fps: np.ndarray,
                     keys: np.ndarray, deltas: np.ndarray, group=None) -> None:
        """Batched scatter with hash sweeps precomputed by the caller.

        ``pos_rows`` and ``fps`` are the output of
        :meth:`SketchHashFamily.hash_np` for the key array ``keys``;
        ``group`` (``(G, n)``, default group 0) puts every update into
        ``G`` groups, as :meth:`flat_positions` reads it.
        """
        idx = self._touch(self.flat_positions(pos_rows, group).ravel())
        reps = len(idx) // len(deltas)
        wide = deltas.astype(object)
        dk = wide * keys.astype(object)
        dfp = wide * fps.astype(object)
        # Values tiled to the index length: numpy 2.4's int64 ``add.at``
        # reads garbage when it has to broadcast them.
        np.add.at(self._count, idx, np.tile(deltas, reps))
        np.add.at(self._keysum, idx, np.tile(dk, reps))
        np.add.at(self._fpsum, idx, np.tile(dfp, reps))

    def merge_from(self, other: "IBLTSketch") -> None:
        """Add another sketch's bucket state into this one (linearity): one
        touch of its positions, then the sums add column-wise."""
        if (other.m, other.universe_bits, other.groups) != (
                self.m, self.universe_bits, self.groups):
            raise ValueError("cannot merge IBLTs of different shapes")
        if not len(other._flat):
            return
        idx = self._touch(other._flat)
        self._count[idx] += other._count
        self._keysum[idx] += other._keysum
        self._fpsum[idx] += other._fpsum

    # -- decoding -------------------------------------------------------------
    def decode(self) -> dict[int, int]:
        """Peel group 0; returns {key: count} for live keys in ascending
        key order.

        Raises :class:`DecodeFailure` when peeling stalls with residual mass
        (more distinct keys than capacity, w.h.p.).  See :meth:`peel`.
        """
        (out,) = self.peel([0])
        if out is None:
            raise DecodeFailure(f"IBLT peeling stalled (capacity {self.capacity})")
        return out

    def peel(self, groups) -> list[dict[int, int] | None]:
        """Peel the given groups in joint rounds over their bucket columns;
        returns each group's ``{key: count}`` in ascending key order (empty
        for an untouched group), or ``None`` where its peel stalls with
        residual mass.

        Each round extracts the key of every verified 1-sparse bucket at once
        (count ≠ 0, key sum divisible by it, key in range, exact fingerprint
        match), keeps one extraction per (group, key), subtracts those keys
        at all their positions, and looks next only at the buckets that
        changed.  The groups' buckets are disjoint, so each one peels exactly
        as it would alone, while every round hashes all their keys in one
        sweep.
        """
        groups = np.asarray(groups, dtype=np.int64)
        owner = self._flat // self.span
        sel = np.flatnonzero(np.isin(owner, groups))
        columns = (self._flat[sel], owner[sel], self._count[sel],
                   self._keysum[sel], self._fpsum[sel])
        found = None
        if self.universe_bits <= 62:
            found = _peel(self.family, *columns, narrow=True)
        if found is None:
            found = _peel(self.family, *columns, narrow=False)
        owner, keys, counts, stalled = found
        order = _pair_order(owner, keys)
        owner, keys, counts = owner[order], keys[order], counts[order]
        start = np.ones(len(keys), dtype=bool)
        start[1:] = (owner[1:] != owner[:-1]) | np.asarray(keys[1:] != keys[:-1], dtype=bool)
        firsts = np.flatnonzero(start)
        sums = np.add.reduceat(counts, firsts) if len(firsts) else counts
        keep = sums != 0
        owner, keys, sums = owner[firsts][keep], keys[firsts][keep], sums[keep]
        lo = np.searchsorted(owner, groups).tolist()  # scalar-ok: one bound per group
        hi = np.searchsorted(owner, groups, side="right").tolist()  # scalar-ok: one bound per group
        failed = np.isin(groups, stalled).tolist()  # scalar-ok: one flag per group
        keys, sums = keys.tolist(), sums.tolist()  # scalar-ok: decode output, ≤ capacity keys per group
        return [None if bad else dict(zip(keys[a:b], sums[a:b]))
                for bad, a, b in zip(failed, lo, hi)]  # scalar-ok: one result per group

    # -- accounting ----------------------------------------------------------
    PER_BUCKET_OVERHEAD = 61  # fingerprint-sum modulus bits

    def _per_bucket_bits(self, max_count_bits: int = 32) -> int:
        return (max_count_bits
                + (self.universe_bits + max_count_bits)
                + (self.PER_BUCKET_OVERHEAD + max_count_bits))

    def space_bits(self, max_count_bits: int = 32) -> int:
        """Worst-case pre-allocated layout: every bucket of every row of
        every group, plus the hash-family randomness."""
        return (self.groups * self.span * self._per_bucket_bits(max_count_bits)
                + self.family.randomness_bits)

    def resident_bits(self, max_count_bits: int = 32) -> int:
        """Bits of the buckets actually materialized (data-dependent)."""
        return (len(self._flat) * self._per_bucket_bits(max_count_bits)
                + self.family.randomness_bits)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of an int64 array: ``np.unique`` by one sort,
    without the hash pass that makes numpy 2.4's several times slower."""
    v = np.sort(values, axis=None)
    keep = np.empty(len(v), dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def _pair_order(owner: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Stable order by (owner, key); keys may be object dtype."""
    by_key = np.argsort(keys, kind="stable")
    return by_key[np.argsort(owner[by_key], kind="stable")]


def _peel(fam: SketchHashFamily, flat, group, count, keysum, fpsum, narrow: bool):
    """The rounds of :meth:`IBLTSketch.peel` over bucket columns.

    ``flat`` holds the buckets' increasing flat positions and ``group`` the
    group of each.  Returns ``(owner, keys, counts, stalled)`` — every
    extraction and the group of every bucket left with residual mass — or
    ``None`` when ``narrow`` (int64 key sums, exact mod 2^64) cannot be
    proven exact: a pure bucket's ``count·key`` fits in int64 while
    |count| < 2^(63 − universe_bits), and the fingerprint check is exact in
    object dtype either way.
    """
    count, fpsum = count.copy(), fpsum.copy()
    if narrow:
        try:
            keysum = keysum.astype(np.int64)
        except OverflowError:
            return None
        limit = 1 << (63 - fam.universe_bits)
    else:
        keysum = keysum.copy()
    rows = IBLTSketch.ROWS
    span = rows * fam.m
    row_base = (np.arange(rows, dtype=np.int64) * fam.m)[:, None]
    top = 1 << fam.universe_bits
    owners, extracted, amounts = [], [], []
    cand = np.flatnonzero(count)
    while cand.size:  # scalar-ok: peel rounds, vectorised over buckets
        c = count[cand]
        live = c != 0
        cand, c = cand[live], c[live]
        if narrow and (np.abs(c) >= limit).any():
            return None
        divisor = c if narrow else c.astype(object)
        ks = keysum[cand]
        key = ks // divisor
        ok = np.asarray(ks % divisor == 0, dtype=bool)
        ok &= np.asarray((key >= 0) & (key < top), dtype=bool)
        cand, c, key = cand[ok], c[ok], key[ok]
        pos, fps = fam.hash_np(key)
        fps = fps.astype(object)
        pure = np.asarray(fpsum[cand] == c.astype(object) * fps, dtype=bool)
        cand, c, key, fps, pos = cand[pure], c[pure], key[pure], fps[pure], pos[:, pure]
        if not cand.size:
            break
        g = group[cand]
        o = _pair_order(g, key)
        first = np.ones(len(o), dtype=bool)
        first[1:] = (g[o][1:] != g[o][:-1]) | np.asarray(key[o][1:] != key[o][:-1], dtype=bool)
        o = o[first]
        c, key, fps, g = c[o], key[o], fps[o], g[o]
        at = pos[:, o] + row_base + g * span
        loc = np.minimum(np.searchsorted(flat, at), len(flat) - 1)
        # A key with an untouched bucket cannot be in its group (a
        # fingerprint collision): it stays, and its group stalls.
        held = (flat[loc] == at).all(axis=0)
        c, key, fps, g, loc = c[held], key[held], fps[held], g[held], loc[:, held]
        owners.append(g)
        extracted.append(key)
        amounts.append(c)
        at = loc.ravel()
        cc = np.tile(c, rows)
        np.subtract.at(count, at, cc)
        np.subtract.at(keysum, at, cc * np.tile(key, rows))
        np.subtract.at(fpsum, at, cc.astype(object) * np.tile(fps, rows))
        cand = _distinct(at)
    stalled = group[(count != 0) | np.asarray(keysum != 0, dtype=bool)
                    | np.asarray(fpsum != 0, dtype=bool)]
    if not owners:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, stalled
    return (np.concatenate(owners), np.concatenate(extracted),
            np.concatenate(amounts), stalled)
