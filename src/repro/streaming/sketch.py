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

- bucket state is **sparse-columnar**: a dict maps each touched
  ``row·m + pos`` flat position to a slot index into three parallel growable
  accumulator arrays (int64 counts; object-dtype key/fingerprint sums, since
  both can exceed 64 bits).  :meth:`IBLTSketch.update_many` applies a whole
  batch with one stacked Horner sweep and three ``np.add.at`` scatters.
  Slots are assigned in *first-touch event order* (event-major,
  row-minor), so the :attr:`buckets` view is identical whether a stream
  was ingested one event at a time or in batches of any size.  Checkpoint
  rows (:meth:`IBLTSketch.bucket_rows`) are written in bucket-position
  order, so their bytes depend on the bucket contents alone — not on the
  slot order, the batching or the order sketches were merged in.
- :meth:`IBLTSketch.merge_from` appends the other sketch's new slots in its
  first-touch order (where sequential ingest of the concatenated stream
  would create them) and adds the three sums column-wise.
- :meth:`IBLTSketch.decode` peels in rounds over the columns: every
  verified 1-sparse bucket is found at once, the distinct keys are
  subtracted at all their positions with ``np.subtract.at``, and the next
  round checks only the buckets that changed.  Key sums run in int64 while
  a pure bucket's ``count·key`` provably fits, else in object dtype; the
  fingerprint check is exact either way.  Sketches sharing one hash family
  (the nested point sketches) peel jointly in :func:`peel_many`, hashing
  all their keys in one sweep per round.  The key-at-a-time peel is the
  oracle in ``tests/scalar_oracle.py``.
- a zeroed slot is equivalent to an absent one; decoding only walks touched
  slots.  ``space_bits`` still charges the full pre-allocated layout a
  space-bounded implementation would use; ``resident_bits`` reports what is
  actually materialized.
- many sketches of identical shape (the nested per-bucket point sketches of
  :class:`~repro.streaming.storing.SketchStoring`) share one
  :class:`SketchHashFamily`, so creating a nested sketch allocates nothing
  but a dict and three empty arrays, and the per-key hash sweeps can be
  computed once per batch and fanned out to every nested sketch via
  :meth:`IBLTSketch.apply_hashed`.
"""

from __future__ import annotations

import copy
from itertools import chain

import numpy as np

from repro.hashing.kwise import KWiseHash, StackedHashes, as_keys, json_ints
from repro.utils.rng import derive_seed

__all__ = ["IBLTSketch", "SketchHashFamily", "DecodeFailure", "peel_many"]


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
        Lemma 4.2).  Buckets per row default to 2×capacity (min 8).
    universe_bits:
        Keys satisfy 0 ≤ key < 2^universe_bits (Python bigints fine).
    seed:
        Seeds a private hash family; ignored when ``family`` is given.
    family:
        Optional shared :class:`SketchHashFamily` (must match the bucket
        count implied by ``capacity``/``buckets_per_row``).
    """

    ROWS = SketchHashFamily.ROWS

    def __init__(self, capacity: int, universe_bits: int, seed=0,
                 buckets_per_row: int | None = None,
                 family: SketchHashFamily | None = None):
        self.capacity = int(capacity)
        self.universe_bits = int(universe_bits)
        m = buckets_per_row if buckets_per_row is not None else max(8, 2 * self.capacity)
        if family is not None and family.m != int(m):
            raise ValueError("shared family bucket count mismatch")
        self.family = family if family is not None else SketchHashFamily(
            int(m), universe_bits, seed=seed)
        self.m = self.family.m
        # Sparse-columnar bucket state: flat position (row·m + pos) → slot
        # index into the parallel accumulator arrays.  Slots are assigned in
        # first-touch order, which keeps the `buckets` view independent of
        # batch boundaries (checkpoint rows are in position order anyway).
        self._slot: dict[int, int] = {}
        self._count = np.zeros(0, dtype=np.int64)
        self._keysum = np.zeros(0, dtype=object)  # can exceed 64 bits
        self._fpsum = np.zeros(0, dtype=object)   # count · fp exceeds 2^63 fast

    # -- columnar plumbing ----------------------------------------------------
    def _ensure_capacity(self, need: int) -> None:
        cap = len(self._count)
        if need <= cap:
            return
        new_cap = max(16, 2 * cap, need)
        count = np.zeros(new_cap, dtype=np.int64)
        keysum = np.zeros(new_cap, dtype=object)
        fpsum = np.zeros(new_cap, dtype=object)
        n = len(self._slot)
        count[:n] = self._count[:n]
        keysum[:n] = self._keysum[:n]
        fpsum[:n] = self._fpsum[:n]
        self._count, self._keysum, self._fpsum = count, keysum, fpsum

    @property
    def buckets(self) -> dict[tuple[int, int], list]:
        """Materialized buckets as ``{(row, pos): [count, keysum, fpsum]}``.

        A fresh dict of Python ints in first-touch order — the exact view
        (and serialization order) the pre-columnar implementation stored.
        Mutating the returned dict does not write through; use
        :meth:`update_many` / :meth:`merge_from`.
        """
        m = self.m
        count, keysum, fpsum = self._count, self._keysum, self._fpsum
        return {
            divmod(flat, m): [int(count[i]), int(keysum[i]), int(fpsum[i])]
            for flat, i in self._slot.items()
        }

    @buckets.setter
    def buckets(self, mapping: dict) -> None:
        """Load bucket state (checkpoint restore); preserves mapping order."""
        self._slot = {}
        n = len(mapping)
        self._count = np.zeros(n, dtype=np.int64)
        self._keysum = np.zeros(n, dtype=object)
        self._fpsum = np.zeros(n, dtype=object)
        m = self.m
        for (r, pos), b in mapping.items():  # scalar-ok: checkpoint restore
            i = len(self._slot)
            self._slot[r * m + pos] = i
            self._count[i] = int(b[0])
            self._keysum[i] = int(b[1])
            self._fpsum[i] = int(b[2])

    def bucket_rows(self) -> list[list[int]]:
        """Materialized buckets as ``[row, pos, count, keysum, fpsum]`` rows
        of Python ints, in bucket-position order — the checkpoint form,
        built column-wise from the accumulator arrays.  Position order
        makes the rows a function of the bucket contents alone, whatever
        order the slots were created or merged in."""
        n = len(self._slot)
        flat = np.fromiter(self._slot, dtype=np.int64, count=n)
        idx = np.fromiter(self._slot.values(), dtype=np.int64, count=n)
        order = np.argsort(flat)
        flat, idx = flat[order], idx[order]
        row, pos = np.divmod(flat, self.m)
        cols = (row, pos, self._count[idx], self._keysum[idx], self._fpsum[idx])
        return np.column_stack(cols).tolist()  # scalar-ok: checkpoint encode

    def load_bucket_rows(self, rows, *, canonical: bool = True) -> None:
        """Inverse of :meth:`bucket_rows` (checkpoint restore), keeping the
        given row order as the slot order.

        ``canonical`` input (state format v2) must name in-range buckets in
        strictly increasing position order, else ``ValueError``.  With
        ``canonical=False`` (v1 files, written in first-touch order) rows
        naming distinct buckets load in any order, and a bucket listed
        twice goes through the :attr:`buckets` setter, whose
        last-row-wins normalisation is the v1 reference semantics.  Either
        way an entry that is not an integer raises ``ValueError``.
        """
        json_ints(chain.from_iterable(rows), "IBLT rows")
        cols = np.array(rows, dtype=object)
        if not len(rows):
            cols = cols.reshape(0, 5)
        if cols.ndim == 2 and cols.shape[1] == 5:
            row, pos = cols[:, 0].astype(np.int64), cols[:, 1].astype(np.int64)
            flat = row * self.m + pos
            if canonical:
                if not (((row >= 0) & (row < self.ROWS) & (pos >= 0) & (pos < self.m)).all()
                        and (flat[1:] > flat[:-1]).all()):
                    raise ValueError("v2 state: IBLT rows must name in-range "
                                     "buckets in increasing position order")
            slot = dict(zip(flat.tolist(), range(len(flat))))  # scalar-ok: checkpoint restore
            if len(slot) == len(flat):
                self._slot = slot
                self._count = cols[:, 2].astype(np.int64)
                self._keysum = cols[:, 3].copy()
                self._fpsum = cols[:, 4].copy()
                return
        if canonical:
            raise ValueError("v2 state: IBLT rows must be [row, pos, count, keysum, fpsum]")
        self.buckets = {(r, p): [c, ks, fs] for r, p, c, ks, fs in rows}

    def copy(self) -> "IBLTSketch":
        """An independent sketch with the same buckets; shares the family."""
        new = copy.copy(self)
        new._slot = dict(self._slot)
        new._count = self._count.copy()
        new._keysum = self._keysum.copy()
        new._fpsum = self._fpsum.copy()
        return new

    # -- updates -------------------------------------------------------------
    def update_many(self, keys, deltas) -> None:
        """Apply a batch of signed updates in vectorized sweeps.

        ``keys``/``deltas`` are equal-length sequences; buckets materialize
        in first-touch order, so the state does not depend on how a stream
        is split into batches.
        """
        keys = as_keys(keys)
        if keys.size == 0:
            return
        deltas = np.asarray(deltas, dtype=np.int64)
        self.apply_hashed(*self.family.hash_np(keys), keys, deltas)

    def apply_hashed(self, pos_rows: np.ndarray, fps: np.ndarray,
                     keys, deltas: np.ndarray) -> None:
        """Batched scatter with hash sweeps precomputed by the caller.

        ``pos_rows`` and ``fps`` are the output of
        :meth:`SketchHashFamily.hash_np` — shared-family callers (the nested
        point sketches of ``SketchStoring``) hash once per batch and fan the
        arrays out here.
        """
        n = pos_rows.shape[1]
        m = self.m
        rows = self.ROWS
        # Flat positions interleaved in event-major order: entry 3·i + r is
        # event i, row r — so first-touch slot assignment follows the
        # stream, not the batching.
        flat = np.empty(rows * n, dtype=np.int64)
        for r in range(rows):  # scalar-ok: ROWS=3, vectorized over events
            flat[r::rows] = np.int64(r) * m + pos_rows[r]
        slot = self._slot
        uniq, first = np.unique(flat, return_index=True)
        fresh = np.fromiter((u not in slot for u in uniq.tolist()),  # scalar-ok: dict-backed slot lookup, per distinct bucket
                            dtype=bool, count=len(uniq))
        if fresh.any():
            new_ids = uniq[fresh]
            order = np.argsort(first[fresh], kind="stable")
            base = len(slot)
            self._ensure_capacity(base + len(new_ids))
            for u in new_ids[order].tolist():  # scalar-ok: per new bucket
                slot[u] = base
                base += 1
        idx = np.fromiter((slot[u] for u in flat.tolist()),  # scalar-ok: dict-backed slot lookup
                          dtype=np.int64, count=len(flat))
        dk = deltas.astype(object) * (
            keys.astype(object) if isinstance(keys, np.ndarray)
            else np.array([int(k) for k in keys], dtype=object))
        dfp = deltas.astype(object) * fps.astype(object)
        np.add.at(self._count, idx, np.repeat(deltas, rows))
        np.add.at(self._keysum, idx, np.repeat(dk, rows))
        np.add.at(self._fpsum, idx, np.repeat(dfp, rows))

    def merge_from(self, other: "IBLTSketch") -> None:
        """Add another sketch's bucket state into this one (linearity).

        Slots new to this sketch are appended in ``other``'s first-touch
        order, where a slot-by-slot merge would create them, so the
        :attr:`buckets` view matches sequential ingest of the concatenated
        stream; the sums then add in one fancy-indexed pass per column.
        """
        n = len(other._slot)
        if not n:
            return
        slot = self._slot
        fresh = [flat for flat in other._slot if flat not in slot]
        if fresh:
            base = len(slot)
            self._ensure_capacity(base + len(fresh))
            slot.update(zip(fresh, range(base, base + len(fresh))))
        dst = np.fromiter(map(slot.__getitem__, other._slot), dtype=np.int64, count=n)
        src = np.fromiter(other._slot.values(), dtype=np.int64, count=n)
        self._count[dst] += other._count[src]
        self._keysum[dst] += other._keysum[src]
        self._fpsum[dst] += other._fpsum[src]

    def total_count(self) -> int:
        """Signed total of all updates (row 0 holds every key once)."""
        total = 0
        m = self.m
        for flat, i in self._slot.items():  # scalar-ok: accounting
            if flat < m:
                total += int(self._count[i])
        return total

    # -- decoding -------------------------------------------------------------
    def decode(self) -> dict[int, int]:
        """Peel a copy of the sketch; returns {key: count} for live keys in
        ascending key order.

        Raises :class:`DecodeFailure` when peeling stalls with residual mass
        (more distinct keys than capacity, w.h.p.).  See :func:`peel_many`.
        """
        (out,) = peel_many([self])
        if out is None:
            raise DecodeFailure(f"IBLT peeling stalled (capacity {self.capacity})")
        return out

    # -- accounting ----------------------------------------------------------
    PER_BUCKET_OVERHEAD = 61  # fingerprint-sum modulus bits

    def _per_bucket_bits(self, max_count_bits: int = 32) -> int:
        return (max_count_bits
                + (self.universe_bits + max_count_bits)
                + (self.PER_BUCKET_OVERHEAD + max_count_bits))

    def space_bits(self, max_count_bits: int = 32) -> int:
        """Worst-case pre-allocated layout: every bucket of every row, plus
        the hash-family randomness."""
        return (self.ROWS * self.m * self._per_bucket_bits(max_count_bits)
                + self.family.randomness_bits)

    def resident_bits(self, max_count_bits: int = 32) -> int:
        """Bits of the buckets actually materialized (data-dependent)."""
        return (len(self._slot) * self._per_bucket_bits(max_count_bits)
                + self.family.randomness_bits)


def peel_many(sketches: list[IBLTSketch]) -> list[dict[int, int] | None]:
    """Peel sketches that share one hash family, in joint rounds over their
    bucket columns; returns each sketch's ``{key: count}`` in ascending key
    order, or ``None`` where its peel stalls with residual mass.

    Each round extracts the key of every verified 1-sparse bucket at once
    (count ≠ 0, key sum divisible by it, key in range, exact fingerprint
    match), keeps one extraction per (sketch, key), subtracts those keys
    at all their positions, and looks next only at the buckets that
    changed.  The sketches' buckets are disjoint, so each one peels exactly
    as it would alone, while every round hashes all their keys in one
    sweep.
    """
    if not sketches:
        return []
    fam = sketches[0].family
    if any(sk.family is not fam for sk in sketches):
        raise ValueError("peel_many needs sketches sharing one hash family")
    slots = [sk._slot for sk in sketches]
    sizes = np.fromiter(map(len, slots), dtype=np.int64, count=len(slots))
    group = np.repeat(np.arange(len(sketches)), sizes)
    flat = np.fromiter(chain.from_iterable(slots), dtype=np.int64, count=len(group))
    flat += group * (IBLTSketch.ROWS * fam.m)
    idx = [np.fromiter(slot.values(), dtype=np.int64, count=len(slot)) for slot in slots]
    columns = [np.concatenate([getattr(sk, name)[i] for sk, i in zip(sketches, idx)])
               for name in ("_count", "_keysum", "_fpsum")]
    found = None
    if fam.universe_bits <= 62:
        found = _peel(fam, flat, group, *columns, narrow=True)
    if found is None:
        found = _peel(fam, flat, group, *columns, narrow=False)
    owner, keys, counts, stalled = found
    failed = np.zeros(len(sketches), dtype=bool)
    failed[stalled] = True
    order = _pair_order(owner, keys)
    owner, keys, counts = owner[order], keys[order], counts[order]
    start = np.ones(len(keys), dtype=bool)
    start[1:] = (owner[1:] != owner[:-1]) | np.asarray(keys[1:] != keys[:-1], dtype=bool)
    firsts = np.flatnonzero(start)
    sums = np.add.reduceat(counts, firsts) if len(firsts) else counts
    keep = sums != 0
    owner, keys, sums = owner[firsts][keep], keys[firsts][keep], sums[keep]
    bounds = np.searchsorted(owner, np.arange(len(sketches) + 1)).tolist()  # scalar-ok: one bound per sketch
    keys, sums = keys.tolist(), sums.tolist()  # scalar-ok: decode output, ≤ capacity keys per sketch
    return [None if bad else dict(zip(keys[lo:hi], sums[lo:hi]))
            for bad, lo, hi in zip(failed.tolist(), bounds, bounds[1:])]  # scalar-ok: one flag per sketch


def _pair_order(owner: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Stable order by (owner, key); keys may be object dtype."""
    by_key = np.argsort(keys, kind="stable")
    return by_key[np.argsort(owner[by_key], kind="stable")]


def _peel(fam: SketchHashFamily, flat, group, count, keysum, fpsum, narrow: bool):
    """The rounds of :func:`peel_many` over concatenated bucket columns.

    ``flat`` holds each bucket's position offset by its sketch (``group``).
    Returns ``(owner, keys, counts, stalled)`` — every extraction and the
    sketch of every bucket left with residual mass — or ``None`` when
    ``narrow`` (int64 key sums, exact mod 2^64) cannot be proven exact: a
    pure bucket's ``count·key`` fits in int64 while |count| <
    2^(63 − universe_bits), and the fingerprint check is exact in object
    dtype either way.
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
    order = np.argsort(flat)
    sorted_flat = flat[order]
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
        loc = np.minimum(np.searchsorted(sorted_flat, at), len(flat) - 1)
        # A key with an untouched bucket cannot be in its sketch (a
        # fingerprint collision): it stays, and its sketch stalls.
        held = (sorted_flat[loc] == at).all(axis=0)
        c, key, fps, g, loc = c[held], key[held], fps[held], g[held], loc[:, held]
        owners.append(g)
        extracted.append(key)
        amounts.append(c)
        at = order[loc.ravel()]
        cc = np.tile(c, rows)
        np.subtract.at(count, at, cc)
        np.subtract.at(keysum, at, cc * np.tile(key, rows))
        np.subtract.at(fpsum, at, cc.astype(object) * np.tile(fps, rows))
        cand = np.unique(at)
    stalled = group[(count != 0) | np.asarray(keysum != 0, dtype=bool)
                    | np.asarray(fpsum != 0, dtype=bool)]
    if not owners:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, stalled
    return (np.concatenate(owners), np.concatenate(extracted),
            np.concatenate(amounts), stalled)
