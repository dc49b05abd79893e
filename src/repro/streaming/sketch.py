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
  batch with two Horner sweeps and three ``np.add.at`` scatters.  Slots are
  assigned in *first-touch event order* (event-major, row-minor — exactly
  the order the scalar path materializes buckets), so the :attr:`buckets`
  view, and therefore checkpoint bytes, are identical whether a stream was
  ingested one event at a time or in batches of any size.
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

import numpy as np

from repro.hashing.kwise import KWiseHash, UniformBucketHash
from repro.utils.rng import derive_seed

__all__ = ["IBLTSketch", "SketchHashFamily", "DecodeFailure"]


class DecodeFailure(Exception):
    """The sketch held more distinct keys than its capacity allows."""


class SketchHashFamily:
    """Row hashes + fingerprint shared by every IBLT of one shape."""

    ROWS = 3
    FP_MOD = (1 << 61) - 1

    def __init__(self, buckets_per_row: int, universe_bits: int, seed=0):
        self.m = int(buckets_per_row)
        self.universe_bits = int(universe_bits)
        self.row_hash = [
            UniformBucketHash(self.m, independence=6, universe_bits=universe_bits,
                              seed=derive_seed(seed, f"iblt-row-{r}"))
            for r in range(self.ROWS)
        ]
        self._fp = KWiseHash(independence=4, universe_bits=universe_bits,
                             seed=derive_seed(seed, "iblt-fp"))

    def positions(self, key: int) -> tuple[int, ...]:
        """Bucket index of ``key`` in every row."""
        return tuple(h.bucket(key) for h in self.row_hash)

    def fingerprint(self, key: int) -> int:
        """Verification fingerprint of ``key`` (mod a 61-bit prime)."""
        return self._fp.value(key) % self.FP_MOD

    def positions_np(self, keys) -> np.ndarray:
        """Bucket indices for a batch: shape ``(ROWS, n)`` int64 array."""
        return np.stack([h.buckets(keys) for h in self.row_hash])

    def fingerprints_np(self, keys) -> np.ndarray:
        """Fingerprints for a batch (int64 on the fast path, else object)."""
        vals = self._fp.values_np(keys) % self.FP_MOD
        return vals

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
        # first-touch order, which keeps the `buckets` view (and checkpoint
        # bytes) identical between the scalar and batched update paths.
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

    def _slot_of(self, flat: int) -> int:
        """Slot of a flat position, materializing it at zero if absent."""
        idx = self._slot.get(flat)
        if idx is None:
            idx = len(self._slot)
            self._ensure_capacity(idx + 1)
            self._slot[flat] = idx
        return idx

    @property
    def buckets(self) -> dict[tuple[int, int], list]:
        """Materialized buckets as ``{(row, pos): [count, keysum, fpsum]}``.

        A fresh dict of Python ints in first-touch order — the exact view
        (and serialization order) the pre-columnar implementation stored.
        Mutating the returned dict does not write through; use
        :meth:`update` / :meth:`update_many` / :meth:`merge_from`.
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

    def copy(self) -> "IBLTSketch":
        """An independent sketch with the same buckets; shares the family."""
        new = copy.copy(self)
        new._slot = dict(self._slot)
        new._count = self._count.copy()
        new._keysum = self._keysum.copy()
        new._fpsum = self._fpsum.copy()
        return new

    # -- updates -------------------------------------------------------------
    def update(self, key: int, delta: int = 1) -> None:
        """Add ``delta`` (may be negative) copies of ``key`` (scalar path)."""
        key = int(key)
        fp = self.family.fingerprint(key)
        dk = delta * key
        dfp = delta * fp
        m = self.m
        for r, pos in enumerate(self.family.positions(key)):  # scalar-ok: ROWS=3
            i = self._slot_of(r * m + pos)
            self._count[i] += delta
            self._keysum[i] += dk
            self._fpsum[i] += dfp

    def update_many(self, keys, deltas) -> None:
        """Apply a batch of signed updates in vectorized sweeps.

        ``keys``/``deltas`` are equal-length sequences; the result is
        bit-identical to calling :meth:`update` per element in order.
        """
        if not isinstance(keys, np.ndarray):
            keys = list(keys)
            try:
                keys = np.asarray(keys, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                keys = np.array([int(k) for k in keys], dtype=object)
        if keys.size == 0:
            return
        deltas = np.asarray(deltas, dtype=np.int64)
        pos_rows = self.family.positions_np(keys)
        fps = self.family.fingerprints_np(keys)
        self.apply_hashed(pos_rows, fps, keys, deltas)

    def apply_hashed(self, pos_rows: np.ndarray, fps: np.ndarray,
                     keys, deltas: np.ndarray) -> None:
        """Batched scatter with hash sweeps precomputed by the caller.

        ``pos_rows`` is the ``(ROWS, n)`` output of
        :meth:`SketchHashFamily.positions_np` and ``fps`` the matching
        fingerprints — shared-family callers (the nested point sketches of
        ``SketchStoring``) hash once per batch and fan the arrays out here.
        """
        n = pos_rows.shape[1]
        m = self.m
        rows = self.ROWS
        # Flat positions interleaved in scalar visitation order: entry
        # 3·i + r is event i, row r — so first-touch slot assignment matches
        # the per-event path exactly.
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
        """Add another sketch's bucket state into this one (linearity)."""
        for flat, j in other._slot.items():  # scalar-ok: merge fan-in
            i = self._slot_of(flat)
            self._count[i] += other._count[j]
            self._keysum[i] += other._keysum[j]
            self._fpsum[i] += other._fpsum[j]

    def total_count(self) -> int:
        """Signed total of all updates (row 0 holds every key once)."""
        total = 0
        m = self.m
        for flat, i in self._slot.items():  # scalar-ok: accounting
            if flat < m:
                total += int(self._count[i])
        return total

    # -- decoding -------------------------------------------------------------
    def _try_extract(self, b: list):
        """Return (key, count) if the bucket is verified 1-sparse, else None."""
        cnt, ks, fs = b
        if cnt == 0:
            return None
        if ks % cnt != 0:
            return None
        key = ks // cnt
        if key < 0 or key >= (1 << self.universe_bits):
            return None
        if fs != cnt * self.family.fingerprint(key):
            return None
        return key, cnt

    def decode(self) -> dict[int, int]:
        """Peel a copy of the sketch; returns {key: count} for live keys.

        Raises :class:`DecodeFailure` when peeling stalls with residual mass
        (more distinct keys than capacity, w.h.p.).
        """
        work = {pos: b for pos, b in self.buckets.items() if any(b)}
        out: dict[int, int] = {}
        queue = list(work.keys())
        while queue:  # scalar-ok: peeling decode, ≤ capacity keys
            pos = queue.pop()
            b = work.get(pos)
            if b is None or not any(b):
                continue
            got = self._try_extract(b)
            if got is None:
                continue
            key, cnt = got
            out[key] = out.get(key, 0) + cnt
            fp = self.family.fingerprint(key)
            for r, p in enumerate(self.family.positions(key)):  # scalar-ok: ROWS=3
                wb = work.get((r, p))
                if wb is None:
                    wb = [0, 0, 0]
                    work[(r, p)] = wb
                wb[0] -= cnt
                wb[1] -= cnt * key
                wb[2] -= cnt * fp
                queue.append((r, p))
        for b in work.values():  # scalar-ok: stall check after decode
            if any(b):
                raise DecodeFailure(f"IBLT peeling stalled (capacity {self.capacity})")
        return {k: v for k, v in out.items() if v != 0}

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
