"""The ``Storing(G_i, α, β, δ)`` subroutine (Lemma 4.2, from [HSYZ18]).

Contract: after processing a dynamic stream of points (each update tagged
with its grid-cell key at level i and its point key), the structure either
FAILs or returns

- ``cells``       — every non-empty cell with its exact point count;
- ``small_points``— for every cell with ≤ β points, those points;

and it must not FAIL (w.h.p.) whenever the number of non-empty cells is ≤ α.

Two interchangeable implementations:

- :class:`ExactStoring` — exact columnar counts (linear space in the live
  set, used for fast experiments and by the service);
- :class:`SketchStoring` — the true sublinear linear sketch: a cell-level
  IBLT of capacity α whose every (row, bucket) slot carries a *nested* point
  IBLT of capacity β (the nested sketches are the groups of one bucket
  table sharing one hash family, materialized as buckets are touched).
  After peeling the cell IBLT, every
  decoded cell that is alone in some (row, bucket) has its points
  recoverable from that slot's nested sketch.  Updates are linear, so
  insertions and deletions in any order work — the property Theorem 4.5
  needs.

Space: ``space_bits`` charges the full pre-allocated O(α·β) layout of a
space-bounded implementation (the quantity Lemma 4.2 bounds);
``resident_bits`` reports the materialized buckets (data-dependent, what
the Python process actually holds).
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.hashing.kwise import as_keys, json_ints
from repro.streaming.sketch import DecodeFailure, IBLTSketch
from repro.utils.rng import derive_seed
from repro.utils.validation import FailedConstruction

__all__ = ["StoringResult", "ExactStoring", "SketchStoring"]


@dataclass
class StoringResult:
    """Decoded contents of a Storing structure."""

    #: Non-empty cells: cell key → exact count, in ascending key order.
    cells: dict = field(default_factory=dict)
    #: Cells with ≤ β points: cell key → {point key: count}, both levels
    #: in ascending key order (the coreset's point order follows them).
    small_points: dict = field(default_factory=dict)


def _int_columns(rows) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, counts)`` columns of v1 ``[key, count]`` rows: keys as
    :func:`~repro.hashing.kwise.as_keys` types them (object beyond int64),
    counts int64.  ``ValueError`` on any entry that is not an integer."""
    if not len(rows):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    json_ints(chain.from_iterable(rows), "checkpoint rows")
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:  # a key wider than int64
        arr = np.array(rows, dtype=object)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("checkpoint rows must be [key, count] pairs") from None
        return (as_keys(arr[:, 0].tolist()),  # scalar-ok: wide keys only
                np.asarray(arr[:, 1].tolist(), dtype=np.int64))  # scalar-ok: wide keys only
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("checkpoint rows must be [key, count] pairs")
    return arr[:, 0].copy(), arr[:, 1].copy()


def _is_canonical(keys: tuple, counts: np.ndarray) -> bool:
    """Whether rows are strictly increasing in the lexicographic order of
    the ``keys`` columns (most significant first) and no count is zero."""
    if not counts.all():
        return False
    if len(counts) < 2:
        return True
    less = np.asarray(keys[-1][:-1] < keys[-1][1:], dtype=bool)
    for col in keys[-2::-1]:  # scalar-ok: ≤ 2 key columns, vectorized over rows
        head, tail = col[:-1], col[1:]
        less = np.asarray(head < tail, dtype=bool) | (
            np.asarray(head == tail, dtype=bool) & less)
    return bool(less.all())


def _group_sum(keys: np.ndarray, deltas: np.ndarray):
    """Aggregate signed deltas per key; returns (sorted keys, nonzero sums)."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse, deltas)
    keep = sums != 0
    if keep.all():
        return uniq, sums
    return uniq[keep], sums[keep]


def _group_sum_pairs(cells: np.ndarray, points: np.ndarray, deltas: np.ndarray):
    """Aggregate per (cell, point) pair; lexicographically sorted, nonzero."""
    if len(cells) == 0:
        return cells, points, deltas
    order = np.lexsort((points, cells))
    c, p, v = cells[order], points[order], deltas[order]
    boundary = np.empty(len(c), dtype=bool)
    boundary[0] = True
    if len(c) > 1:
        np.logical_or(np.asarray(c[1:] != c[:-1], dtype=bool),
                      np.asarray(p[1:] != p[:-1], dtype=bool),
                      out=boundary[1:])
    gid = np.cumsum(boundary) - 1
    sums = np.zeros(int(gid[-1]) + 1, dtype=np.int64)
    np.add.at(sums, gid, v)
    starts = np.flatnonzero(boundary)
    keep = sums != 0
    return c[starts][keep], p[starts][keep], sums[keep]


_EMPTY = np.empty(0, dtype=np.int64)


def _lengths(arrays) -> np.ndarray:
    """``len`` of every array, as an int64 column."""
    return np.fromiter(map(len, arrays), dtype=np.int64)


def _concat(arrays: list) -> np.ndarray:
    """One column out of per-store arrays (object if any of them is)."""
    return np.concatenate(arrays) if arrays else _EMPTY


def _starts(sizes: np.ndarray) -> np.ndarray:
    """First position of every non-empty segment of ``sizes``."""
    return (np.cumsum(sizes) - sizes)[sizes > 0]


def _restart_diff(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """First differences of ``values`` restarting at every segment of
    ``sizes``: a segment's first slot holds its value.  Segments are
    strictly increasing, so every other slot is > 0; in int64 a difference
    that wraps (keys of both signs) redoes the column in Python ints."""
    out = values.copy()
    if len(values) > 1:
        np.subtract(values[1:], values[:-1], out=out[1:])
    starts = _starts(sizes)
    out[starts] = values[starts]
    if out.dtype != object and len(out):
        inner = np.ones(len(out), dtype=bool)
        inner[starts] = False
        if (out[inner] <= 0).any():
            return _restart_diff(values.astype(object), sizes)
    return out


def _restart_sum(diffs: np.ndarray, sizes: np.ndarray, what: str) -> np.ndarray:
    """Inverse of :func:`_restart_diff` (a segmented prefix sum).

    ``ValueError`` unless every non-first difference is > 0.  In int64 the
    sums wrap modulo 2^64, which is exact as long as the true keys fit;
    a key that does not shows up as a non-increasing step, and the column
    is summed again in Python ints."""
    if not len(diffs):
        return diffs
    first = np.zeros(len(diffs), dtype=bool)
    first[_starts(sizes)] = True
    if not np.asarray(diffs[~first] > 0, dtype=bool).all():
        raise ValueError(f"v2 state: {what} must strictly increase within each segment")
    total = np.cumsum(diffs)
    out = total - np.repeat((total - diffs)[first], sizes[sizes > 0])
    if out.dtype != object and (out[1:] <= out[:-1])[~first[1:]].any():
        return _restart_sum(diffs.astype(object), sizes, what)
    return out


def _split(column: np.ndarray, sizes: np.ndarray) -> list:
    """Per-segment views of ``column``; object segments whose keys all fit
    come back int64, as the v1 reader types them."""
    bounds = np.cumsum(sizes).tolist()  # scalar-ok: one bound per segment
    parts = [column[lo:hi] for lo, hi in zip([0] + bounds, bounds)]
    if column.dtype == object:
        parts = [as_keys(p) for p in parts]  # scalar-ok: wide keys only, per store
    return parts


def _column(data: dict, name: str) -> list:
    """One v2 column: a JSON list of integers, else ``ValueError``."""
    values = data.get(name)
    if not isinstance(values, list):
        raise ValueError(f"v2 state: column {name!r} must be a list")
    json_ints(values, f"v2 state: column {name!r}")
    return values


def _count_column(data: dict, name: str, size: int, *, nonzero: bool = False,
                  positive: bool = False) -> np.ndarray:
    """A v2 int64 column of known length, each entry ≥ 0 (cells or runs per
    store), > 0 with ``positive`` (run lengths) or ≠ 0 with ``nonzero``
    (counts, which may be negative)."""
    try:
        col = np.asarray(_column(data, name), dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"v2 state: column {name!r} must hold int64 values") from exc
    if col.ndim != 1 or len(col) != size:
        raise ValueError(f"v2 state: column {name!r} has {col.size} entries, expected {size}")
    if nonzero:
        bad = col == 0
    else:
        bad = col <= 0 if positive else col < 0
    if bad.any():
        raise ValueError(f"v2 state: column {name!r} holds a non-canonical count")
    return col


def _key_column(data: dict, name: str, size: int) -> np.ndarray:
    """A v2 key-difference column of known length (int64 or object)."""
    col = as_keys(_column(data, name))
    if col.ndim != 1 or len(col) != size:
        raise ValueError(f"v2 state: column {name!r} has {col.size} entries, expected {size}")
    return col


class ExactStoring:
    """Reference implementation, log-structured columnar.

    Updates *append* to a pending log — one O(1) list append per batch —
    and a flush aggregates the log into the compacted state with numpy
    group-by sweeps: cell keys sorted ascending with their nonzero exact
    counts, plus (cell, point) pairs in
    lexicographic order when ``recover_points``.  Every observable output
    (results, counts, serialized state) is a canonical function of the
    multiset of updates — independent of event order, of how the stream was
    batched, and of when the flushes ran.

    Flushes happen whenever the log outgrows the compacted state (on
    ingest) and on every read of the compacted state: :meth:`result`,
    :meth:`live_cells`, :meth:`space_bits` and the checkpoint views.
    :meth:`merge_from` and :meth:`copy` never flush; one
    ``merge_from(*others)`` extends the log with every other side's log
    and compacted columns by reference, so a k-way fold costs one call per
    store and one group-by, paid by the first reader.

    Immutability contract: the compacted columns (``_ckeys``/``_ccounts``/
    ``_pcell``/``_ppoint``/``_pcount``) and the logged arrays are never
    written in place — flushes and setters *rebind* them to fresh arrays.
    That is what lets :meth:`copy` share them in O(1) and
    :meth:`merge_from` log another structure's columns by reference.
    """

    #: Minimum pending-log size before an automatic compaction; beyond it
    #: the log may grow to the compacted size (amortized O(n log n) total).
    FLUSH_THRESHOLD = 4096

    def __init__(self, alpha: int, beta: int, recover_points: bool = True):
        self.alpha = int(alpha)
        self.beta = int(beta)
        self.recover_points = bool(recover_points)
        self._ckeys = np.empty(0, dtype=np.int64)   # sorted, counts nonzero
        self._ccounts = np.empty(0, dtype=np.int64)
        self._pcell = np.empty(0, dtype=np.int64)   # pairs, lex-sorted
        self._ppoint = np.empty(0, dtype=np.int64)
        self._pcount = np.empty(0, dtype=np.int64)
        # Pending log, flat: cells, points | None, signs, cells, ... — no
        # tuple per entry, so ingest allocates no GC-tracked objects.
        self._log: list = []
        self._log_events = 0

    def update_many(self, cell_keys, point_keys, signs) -> None:
        """Append a batch of signed updates (one vectorized log entry).

        Arrays are logged by reference — callers must not mutate them after
        handing them over (the streaming driver's slices are fresh).
        """
        cell_keys = as_keys(cell_keys)
        n = len(cell_keys)
        if n == 0:
            return
        signs = np.asarray(signs, dtype=np.int64)
        pts = as_keys(point_keys) if self.recover_points else None
        self._log += (cell_keys, pts, signs)
        self._log_events += n
        if self._log_events > max(self.FLUSH_THRESHOLD, len(self._ckeys)):
            self._flush()

    def _flush(self) -> None:
        """Compact the pending log into the sorted columnar state."""
        if not self._log_events:
            return
        logs, self._log = self._log, []
        self._log_events = 0
        cells, signs = logs[0::3], logs[2::3]
        self._ckeys, self._ccounts = _group_sum(
            np.concatenate([self._ckeys] + cells),
            np.concatenate([self._ccounts] + signs))
        if self.recover_points:
            pc = np.concatenate([self._pcell] + cells)
            pp = np.concatenate([self._ppoint] + logs[1::3])
            pn = np.concatenate([self._pcount] + signs)
            self._pcell, self._ppoint, self._pcount = _group_sum_pairs(pc, pp, pn)

    def copy(self) -> "ExactStoring":
        """An independent structure with the same contents, in O(1).

        Shares the compacted columns and the logged arrays (see the
        immutability contract); only the log list is copied.
        """
        cls = type(self)
        new = cls.__new__(cls)
        state = self.__dict__.copy()
        state["_log"] = self._log.copy()
        new.__dict__ = state
        return new

    # -- live-count queries (early-kill support) ------------------------------
    def live_cells_upper(self) -> int:
        """Cheap overcount of non-empty cells (compacted + pending log)."""
        return len(self._ckeys) + self._log_events

    def live_cells(self) -> int:
        """Exact number of non-empty cells (forces a compaction)."""
        self._flush()
        return len(self._ckeys)

    def first_overflow(self, cells, signs, bound) -> int | None:
        """First position at which applying ``(cells, signs)`` in order would
        leave more than ``bound`` non-empty cells, or ``None``.

        Exact and vectorised: each cell's running count is its compacted
        base count plus a per-cell cumulative sum (stable sort keeps event
        order within a cell); a cell turning nonzero / zero moves the live
        count by ±1.  Reads the structure without changing its contents.
        """
        base_live = self.live_cells()
        cells = as_keys(cells)
        signs = np.asarray(signs, dtype=np.int64)
        n = len(cells)
        if n == 0:
            return None
        order = np.argsort(cells, kind="stable")
        c, s = cells[order], signs[order]
        start = np.ones(n, dtype=bool)
        start[1:] = np.asarray(c[1:] != c[:-1], dtype=bool)
        base = np.zeros(n, dtype=np.int64)
        if len(self._ckeys):
            pos = np.minimum(np.searchsorted(self._ckeys, c), len(self._ckeys) - 1)
            hit = np.asarray(self._ckeys[pos] == c, dtype=bool)
            base[hit] = self._ccounts[pos[hit]]
        run = np.cumsum(s)
        gid = np.cumsum(start) - 1
        after = base + run - (run - s)[start][gid]
        before = after - s
        step = np.zeros(n, dtype=np.int64)
        step[order] = (after != 0).astype(np.int64) - (before != 0)
        over = np.flatnonzero(base_live + np.cumsum(step) > bound)
        return int(over[0]) if len(over) else None

    # -- dict views (tests, merge, checkpoint codec) --------------------------
    @property
    def _cells(self) -> Counter:
        """Counter snapshot of the exact cell counts, sorted by key.

        A fresh object: mutations do not write through — use
        :meth:`update_many` / :meth:`merge_from` (or assign a full mapping,
        as checkpoint restore does).
        """
        self._flush()
        return Counter(dict(zip(self._ckeys.tolist(), self._ccounts.tolist())))  # scalar-ok: snapshot view

    @_cells.setter
    def _cells(self, mapping) -> None:
        # repro-lint: disable=DET104 the rows are sorted before they are stored
        items = sorted((int(k), int(v)) for k, v in mapping.items() if v)
        self._ckeys = as_keys([k for k, _ in items])
        self._ccounts = np.asarray([v for _, v in items], dtype=np.int64)

    @property
    def _points(self) -> dict:
        """Per-cell point Counters (fresh snapshot, sorted; see `_cells`)."""
        self._flush()
        out: dict[int, Counter] = {}
        for c, p, v in zip(self._pcell.tolist(), self._ppoint.tolist(),  # scalar-ok: snapshot view
                           self._pcount.tolist()):  # scalar-ok: snapshot view
            out.setdefault(c, Counter())[p] = v
        return out

    @_points.setter
    def _points(self, mapping) -> None:
        flat = sorted((int(c), int(p), int(v))
                      for c, pts in mapping.items()  # repro-lint: disable=DET104 flat is sorted
                      for p, v in pts.items() if v)  # repro-lint: disable=DET104 flat is sorted
        self._pcell = as_keys([c for c, _, _ in flat])
        self._ppoint = as_keys([p for _, p, _ in flat])
        self._pcount = np.asarray([v for _, _, v in flat], dtype=np.int64)

    # -- checkpoint codec -------------------------------------------------------
    @staticmethod
    def encode_columns(stores) -> dict:
        """The compacted state of ``stores`` as one set of flat int columns
        (state format v2), the stores concatenated in the given order:

        - ``cells``: cells per store; ``keys``: the cell keys as first
          differences, restarting at each store; ``counts``: their counts;
        - ``runs``: (cell, point) runs per store; ``heads``: each run's cell
          as first differences, restarting at each store; ``lengths``:
          pairs per run;
        - ``points``: the point keys as first differences within their run;
          ``pair_counts``: the pair counts.

        A restart slot holds the key itself.  A few vectorised passes and
        one ``tolist`` per column; keys wider than int64 stay exact Python
        ints.  The columns are a canonical function of the stores' contents.
        """
        for store in stores:  # scalar-ok: per store, flushes a pending log
            store._flush()
        ncell = _lengths(s._ckeys for s in stores)
        npair = _lengths(s._pcount for s in stores)
        pcell = _concat([s._pcell for s in stores])
        first = np.zeros(len(pcell), dtype=bool)
        first[_starts(npair)] = True
        first[1:] |= np.asarray(pcell[1:] != pcell[:-1], dtype=bool)
        starts = np.flatnonzero(first)
        lengths = np.diff(np.append(starts, len(pcell)))
        nrun = np.bincount(np.repeat(np.arange(len(npair)), npair)[starts],
                           minlength=len(npair))
        columns = {
            "cells": ncell,
            "keys": _restart_diff(_concat([s._ckeys for s in stores]), ncell),
            "counts": _concat([s._ccounts for s in stores]),
            "runs": nrun,
            "heads": _restart_diff(pcell[starts], nrun),
            "lengths": lengths,
            "points": _restart_diff(_concat([s._ppoint for s in stores]), lengths),
            "pair_counts": _concat([s._pcount for s in stores]),
        }
        # repro-lint: disable=DET104 the literal above fixes the v2 column order
        return {name: col.tolist() for name, col in columns.items()}  # scalar-ok: checkpoint encode, one call per column

    @staticmethod
    def load_columns(stores, data: dict) -> None:
        """Inverse of :meth:`encode_columns`, into freshly built ``stores``.

        Decode is one array per column, segmented prefix sums and slice
        views handed to each store (the immutability contract
        makes shared views safe).  Each store gets the key dtype the v1
        reader gives it: int64 when every key fits, object otherwise.
        Raises ``ValueError`` on non-canonical input: a count column of the
        wrong length, a difference ≤ 0 inside a store or run, a zero count,
        an empty run, or runs in a store that keeps no points.
        """
        n = len(stores)
        ncell = _count_column(data, "cells", n)
        nrun = _count_column(data, "runs", n)
        lengths = _count_column(data, "lengths", int(nrun.sum()), positive=True)
        run_bounds = np.append(0, np.cumsum(lengths))[np.append(0, np.cumsum(nrun))]
        npair = np.diff(run_bounds)
        if any(r and not s.recover_points  # scalar-ok: one flag per store
               for s, r in zip(stores, nrun.tolist())):  # scalar-ok: one count per store
            raise ValueError("v2 state: point runs in a store that keeps no points")
        ncells, npairs = int(ncell.sum()), int(npair.sum())
        keys = _restart_sum(_key_column(data, "keys", ncells), ncell, "keys")
        heads = _restart_sum(_key_column(data, "heads", len(lengths)), nrun, "heads")
        points = _restart_sum(_key_column(data, "points", npairs), lengths, "points")
        counts = _count_column(data, "counts", ncells, nonzero=True)
        pair_counts = _count_column(data, "pair_counts", npairs, nonzero=True)
        for store, k, c, h, r, p, v in zip(  # scalar-ok: per store, O(1) views
                stores, _split(keys, ncell), _split(counts, ncell),
                _split(heads, nrun), _split(lengths, nrun),
                _split(points, npair), _split(pair_counts, npair)):
            store._ckeys, store._ccounts = k, c
            store._pcell = np.repeat(h, r) if len(r) else _EMPTY
            store._ppoint, store._pcount = p, v

    @staticmethod
    def check_pair_sums(stores) -> None:
        """``ValueError`` unless, in every point-keeping store of ``stores``,
        each cell's count is the sum of its (cell, point) pair counts and
        every cell with a nonzero pair sum is listed.

        Every stream leaves stores that agree, and :meth:`merge_from` logs
        only the pairs, so restore runs this on what it loaded.  One pass
        over the stores' concatenated columns.
        """
        keep = [s for s in stores if s.recover_points]
        for store in keep:  # scalar-ok: per store, flushes a pending log
            store._flush()
        store_ids = np.arange(len(keep))
        pair_store = np.repeat(store_ids, _lengths(s._pcount for s in keep))
        pcell = _concat([s._pcell for s in keep])
        first = np.ones(len(pcell), dtype=bool)
        first[1:] = (pair_store[1:] != pair_store[:-1]) | np.asarray(
            pcell[1:] != pcell[:-1], dtype=bool)
        starts = np.flatnonzero(first)
        sums = (np.add.reduceat(_concat([s._pcount for s in keep]), starts)
                if len(starts) else _EMPTY)
        live = sums != 0
        want = (np.repeat(store_ids, _lengths(s._ckeys for s in keep)),
                _concat([s._ckeys for s in keep]),
                _concat([s._ccounts for s in keep]))
        got = (pair_store[starts][live], pcell[starts][live], sums[live])
        if not all(len(g) == len(w) and np.asarray(g == w, dtype=bool).all()
                   for g, w in zip(got, want)):
            raise ValueError("checkpoint cell counts of a point-keeping store "
                             "do not equal the sums of their point counts")

    def load_lists(self, cells, points) -> None:
        """The v1 reader: restore one store from its v1 ``cells`` rows
        (``[cell, count]``) and ``points`` runs (``[cell, [[point, count],
        ...]]``) into a fresh structure (the retired v1 writer is kept in
        ``tests/scalar_oracle.py``).

        Canonical input — cells strictly increasing with nonzero counts,
        one non-empty run per cell in ``points``, pairs strictly increasing
        with nonzero counts — loads column-wise.  Anything else goes through
        the :attr:`_cells` / :attr:`_points` setters, whose last-entry-wins,
        sort-and-drop-zeros normalisation is the format's reference
        semantics.
        """
        ckeys, ccounts = _int_columns(cells)
        if _is_canonical((ckeys,), ccounts):
            self._ckeys, self._ccounts = ckeys, ccounts
        else:
            self._cells = {int(c): int(n) for c, n in cells}
        if not points:
            self._points = {}
            return
        heads = [c for c, _ in points]
        json_ints(heads, "checkpoint point runs")
        heads = as_keys(heads)
        lengths = np.asarray([len(run) for _, run in points], dtype=np.int64)
        ppoint, pcount = _int_columns(list(chain.from_iterable(run for _, run in points)))
        pcell = np.repeat(heads, lengths)
        if (_is_canonical((heads,), lengths)
                and _is_canonical((pcell, ppoint), pcount)):
            self._pcell, self._ppoint, self._pcount = pcell, ppoint, pcount
        else:
            self._points = {int(c): {int(p): int(n) for p, n in run}
                            for c, run in points}

    def merge_from(self, *others: "ExactStoring") -> None:
        """Add other structures' counts into this one (linearity).

        Deferred: each other side's pending log is appended to this log
        with one list extend, followed by its compacted columns when they
        are non-empty, all by reference; no side is flushed.  With
        ``recover_points`` the (cell, point) pairs carry everything, since
        a cell's count is the sum of its pair counts; otherwise the cells
        do.  ``update_many`` never logs an empty entry, so neither does a
        merge.
        """
        log = self._log
        events = self._log_events
        for other in others:  # scalar-ok: per merged structure, O(1) each
            log += other._log
            events += other._log_events
            columns = ((other._pcell, other._ppoint, other._pcount)
                       if self.recover_points else
                       (other._ckeys, None, other._ccounts))
            if len(columns[2]):
                log += columns
                events += len(columns[2])
        self._log_events = events

    def result(self) -> StoringResult:
        """Decode the structure (Lemma 4.2's output); FAIL if > α cells."""
        self._flush()
        if len(self._ckeys) > self.alpha:
            raise FailedConstruction(
                f"Storing: {len(self._ckeys)} non-empty cells exceed alpha={self.alpha}"
            )
        cells = dict(zip(self._ckeys.tolist(), self._ccounts.tolist()))  # scalar-ok: decode, <= alpha cells
        small = {}
        if self.recover_points:
            pcell = self._pcell
            # repro-lint: disable=DET104 cells follows the sorted key column
            for cell, cnt in cells.items():  # scalar-ok: decode, ≤ alpha cells
                if cnt > self.beta:
                    continue
                lo = np.searchsorted(pcell, cell, side="left")
                hi = np.searchsorted(pcell, cell, side="right")
                small[cell] = dict(zip(self._ppoint[lo:hi].tolist(),  # scalar-ok: decode, small cells only
                                       self._pcount[lo:hi].tolist()))  # scalar-ok: decode, small cells only
        return StoringResult(cells=cells, small_points=small)

    def space_bits(self, cell_bits: int = 64, point_bits: int = 64) -> int:
        """Actual content bits (the reference implementation is not sublinear)."""
        self._flush()
        bits = len(self._ckeys) * (cell_bits + 32)
        if self.recover_points:
            bits += len(self._pcount) * (point_bits + 32)
        return bits

    def resident_bits(self, cell_bits: int = 64, point_bits: int = 64) -> int:
        """Same as :meth:`space_bits` (only live content is held)."""
        return self.space_bits(cell_bits, point_bits)


class SketchStoring:
    """The sublinear linear-sketch implementation of Lemma 4.2.

    ``_cells`` is the cell IBLT of capacity α; ``_points`` (``None`` unless
    ``recover_points``) holds the nested point IBLT of capacity β of every
    cell bucket ``(row, pos)`` as group ``row·m + pos`` of one table.
    """

    def __init__(
        self,
        alpha: int,
        beta: int,
        cell_universe_bits: int,
        point_universe_bits: int,
        seed=0,
        recover_points: bool = True,
    ):
        self.alpha = int(alpha)
        self.beta = int(beta)
        self.recover_points = bool(recover_points)
        self.cell_universe_bits = int(cell_universe_bits)
        self.point_universe_bits = int(point_universe_bits)
        seed = int(seed) & 0xFFFFFFFF
        self._cells = IBLTSketch(self.alpha, cell_universe_bits,
                                 seed=derive_seed(seed, "cells"))
        self._points = IBLTSketch(
            self.beta, point_universe_bits, seed=derive_seed(seed, "pt-family"),
            groups=self._cells.span) if recover_points else None

    def copy(self) -> "SketchStoring":
        """An independent structure with the same contents (the bucket
        columns are copied, the hash families shared)."""
        new = copy.copy(self)
        new._cells = self._cells.copy()
        if self._points is not None:
            new._points = self._points.copy()
        return new

    def update_many(self, cell_keys, point_keys, signs) -> None:
        """Apply a batch of signed updates in vectorized sweeps.

        The cell IBLT takes one batched scatter; every event then updates
        the nested point sketch of its cell bucket in each row — the groups
        of the point table at the cell's flat positions — in one more.
        """
        cell_keys = as_keys(cell_keys)
        if len(cell_keys) == 0:
            return
        signs = np.asarray(signs, dtype=np.int64)
        cells = self._cells
        pos_rows, fps = cells.family.hash_np(cell_keys)
        cells.apply_hashed(pos_rows, fps, cell_keys, signs)
        if self._points is None:
            return
        point_keys = as_keys(point_keys)
        points = self._points
        points.apply_hashed(*points.family.hash_np(point_keys), point_keys, signs,
                            group=cells.flat_positions(pos_rows))

    def result(self) -> StoringResult:
        """Peel the sketches into Lemma 4.2's output; FAIL on stall."""
        try:
            cells = self._cells.decode()
        except DecodeFailure as exc:
            raise FailedConstruction(f"Storing sketch: {exc}") from exc
        if len(cells) > self.alpha:
            raise FailedConstruction(
                f"Storing sketch: decoded {len(cells)} cells exceed alpha={self.alpha}"
            )
        small: dict[int, dict[int, int]] = {}
        if self._points is not None and cells:
            # Which cells share each (row, bucket)?  We know all live cells,
            # so bucket occupancy is computable exactly, in one hash sweep.
            sk = self._cells
            flat = sk.flat_positions(sk.family.hash_np(list(cells))[0])
            _, inverse, occupancy = np.unique(flat.ravel(), return_inverse=True,
                                              return_counts=True)
            alone = (occupancy[inverse] == 1).reshape(flat.shape)
            # A small cell's points come from the nested sketch of its first
            # isolated (row, bucket) that decodes (a shared bucket's sketch
            # is polluted); all candidates peel jointly.
            tries = {
                cell: [g for g, isolated in zip(cell_flat, cell_alone) if isolated]
                for (cell, cnt), cell_flat, cell_alone in zip(
                    cells.items(), flat.T.tolist(), alone.T.tolist())  # scalar-ok: decode, ≤ alpha cells
                if cnt <= self.beta
            }
            wanted = sorted(set(chain.from_iterable(tries.values())))
            decoded = dict(zip(wanted, self._points.peel(wanted)))
            # repro-lint: disable=DET104 tries follows decode()'s ascending keys
            for cell, groups in tries.items():  # scalar-ok: decode, ≤ alpha cells
                points = None
                for g in groups:  # scalar-ok: ROWS=3
                    points = decoded[g]
                    if points is not None:
                        break
                if points is None:
                    raise FailedConstruction(
                        f"Storing sketch: small cell {cell} never isolated "
                        f"in any row; cannot recover its points"
                    )
                small[cell] = points
        return StoringResult(cells=cells, small_points=small)

    # -- accounting ------------------------------------------------------------
    def space_bits(self) -> int:
        """Worst-case pre-allocated layout: the cell IBLT plus one nested
        point IBLT per (row, bucket) slot — the O(α·β) of Lemma 4.2."""
        bits = self._cells.space_bits()
        if self._points is not None:
            bits += self._points.space_bits()
        return bits

    def resident_bits(self) -> int:
        """Bits of buckets actually materialized (data-dependent)."""
        bits = self._cells.resident_bits()
        if self._points is not None:
            bits += self._points.resident_bits()
        return bits
