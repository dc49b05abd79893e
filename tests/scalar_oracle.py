"""Per-event reference ingest: the oracle the batched path is pinned to.

``src/`` ingests only in batches.  This module replays a stream one event
at a time, written from the paper's per-event description rather than from
the vectorised code, so the tests (and ``make bench-smoke``) can demand
that batched ingest reproduce it byte for byte:

- :class:`CounterStoring` — the exact ``Storing`` as plain Counters, with a
  running live-cell count for the early kill;
- :class:`ScalarIBLT` — one IBLT (or one group of a grouped table) as a
  ``{(row, pos): [count, keysum, fpsum]}`` bucket dict, read from and
  written back to an :class:`IBLTSketch` through ``bucket_rows`` /
  ``group_rows`` / ``load_bucket_rows``;
- :func:`iblt_update` — one IBLT bucket update through the scalar hashes
  (``positions``, ``fingerprint``), materializing buckets one at a time;
- :func:`scalar_iblt_merge` — the bucket-at-a-time IBLT merge;
- :func:`scalar_decode` / :func:`scalar_sample` — the key-at-a-time IBLT
  peel and the ℓ₀ sampler's level walk over it, the reference the
  round-based peel in :mod:`repro.streaming.sketch` must match;
- :class:`ScalarSketchStoring` — a ``SketchStoring`` as a cell
  :class:`ScalarIBLT` and one nested point :class:`ScalarIBLT` per touched
  cell bucket, updated row by row;
- :func:`l0_update` — the ℓ₀ sampler's level loop;
- :func:`scalar_ingest` — Algorithm 4 per event for every guess instance,
  including the mid-event early kill, plus the pilot sampler, on scalar
  mirrors of every store and level written back at the end;
- :func:`greedy_assignment_numpy` / :func:`forestify_support_dfs` — the
  capacitated solver's greedy loop over numpy scalars and the cycle
  cancelling that always runs the DFS, which the float-list greedy and the
  forest check in :mod:`repro.assignment.capacitated` must match;
- :func:`v1_service_payload` / :func:`v1_streaming_state_to_dict` /
  :func:`v1_store_lists` / :func:`v1_bucket_rows` — the retired v1
  checkpoint writer, column-wise, IBLT rows and nested sketches in
  position order (memory keeps no first-touch order to write):
  re-encoding a restored v1 file with it must reproduce the file's
  contents, which :func:`v1_position_order` puts in that order;
- :func:`counter_state_to_dict` / :func:`counter_state_from_dict` — the v1
  codec written entry by entry through the Counter views and
  :class:`ScalarIBLT` bucket dicts, the reference the v1 reader in
  :mod:`repro.service.state` must match;
- :func:`counter_state_v2_to_dict` / :func:`counter_state_v2_from_dict` —
  the v2 codec, entry by entry in Python ints, the reference the columnar
  v2 codec must match byte for byte.

Import as ``from tests.scalar_oracle import scalar_ingest`` (the repo root
must be on ``sys.path``; pytest and the benchmark scripts arrange that).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.assignment.capacitated import _find_support_cycle
from repro.core.io import params_from_dict, params_to_dict
from repro.streaming.sketch import DecodeFailure
from repro.streaming.storing import ExactStoring, SketchStoring
from repro.streaming.stream import events_to_arrays
from repro.streaming.streaming_coreset import StreamingCoreset
from repro.utils.validation import check_stream_points

__all__ = [
    "CounterStoring",
    "ScalarIBLT",
    "ScalarSketchStoring",
    "counter_state_from_dict",
    "counter_state_to_dict",
    "counter_state_v2_from_dict",
    "counter_state_v2_to_dict",
    "forestify_support_dfs",
    "greedy_assignment_numpy",
    "iblt_update",
    "l0_update",
    "scalar_decode",
    "scalar_iblt_merge",
    "scalar_ingest",
    "scalar_sample",
    "v1_bucket_rows",
    "v1_position_order",
    "v1_service_payload",
    "v1_store_lists",
    "v1_streaming_state_to_dict",
]


class CounterStoring:
    """Exact Storing as Counters: cell → count, cell → {point → count}."""

    def __init__(self, store: ExactStoring):
        self.store = store
        self.recover_points = store.recover_points
        self.cells = store._cells      # fresh Counter snapshots
        self.points = store._points
        self.live = sum(1 for v in self.cells.values() if v)

    def update(self, cell: int, point: int, sign: int) -> None:
        before = self.cells[cell]
        after = before + sign
        self.cells[cell] = after
        self.live += (after != 0) - (before != 0)
        if self.recover_points:
            self.points.setdefault(cell, Counter())[point] += sign

    def write_back(self) -> None:
        """Pour the Counters into the real structure (checkpoint setters)."""
        self.store._cells = self.cells
        self.store._points = self.points


class ScalarIBLT:
    """One IBLT as a bucket dict ``{(row, pos): [count, keysum, fpsum]}``
    of Python ints, hashed through a real sketch's family."""

    def __init__(self, sk, rows=()):
        self.family = sk.family
        self.capacity = sk.capacity
        self.universe_bits = sk.universe_bits
        self.buckets = {(r, p): [c, ks, fs] for r, p, c, ks, fs in rows}

    @classmethod
    def of(cls, sk, group: int = 0) -> "ScalarIBLT":
        """The buckets of group ``group`` of an :class:`IBLTSketch`."""
        return cls(sk, dict(sk.group_rows()).get(group, ()))

    def rows(self) -> list:
        """``[row, pos, count, keysum, fpsum]`` rows in position order."""
        return [[r, p, *b] for (r, p), b in sorted(self.buckets.items())]


def _load_groups(sk, groups: dict) -> None:
    """Write ``{group: ScalarIBLT}`` into the :class:`IBLTSketch` ``sk``,
    replacing its contents."""
    rows, owner = [], []
    for g in sorted(groups):
        part = groups[g].rows()
        rows += part
        owner += [g] * len(part)
    sk.load_bucket_rows(rows, group=np.asarray(owner, dtype=np.int64))


def iblt_update(sk: ScalarIBLT, key: int, delta: int) -> None:
    """Add ``delta`` copies of ``key`` to a :class:`ScalarIBLT`."""
    key = int(key)
    fp = sk.family.fingerprint(key)
    for r, pos in enumerate(sk.family.positions(key)):
        b = sk.buckets.setdefault((r, pos), [0, 0, 0])
        b[0] += delta
        b[1] += delta * key
        b[2] += delta * fp


def scalar_iblt_merge(dst: ScalarIBLT, src: ScalarIBLT) -> None:
    """Add ``src``'s buckets into ``dst`` one bucket at a time."""
    for pos, (c, ks, fs) in src.buckets.items():
        b = dst.buckets.setdefault(pos, [0, 0, 0])
        b[0] += c
        b[1] += ks
        b[2] += fs


def _try_extract(sk, b: list):
    """Return (key, count) if the bucket is verified 1-sparse, else None."""
    cnt, ks, fs = b
    if cnt == 0:
        return None
    if ks % cnt != 0:
        return None
    key = ks // cnt
    if key < 0 or key >= (1 << sk.universe_bits):
        return None
    if fs != cnt * sk.family.fingerprint(key):
        return None
    return key, cnt


def scalar_decode(sk, group: int = 0) -> dict[int, int]:
    """Peel a copy of a :class:`ScalarIBLT`, or of group ``group`` of an
    :class:`IBLTSketch`, one key at a time (LIFO queue of bucket
    positions); returns {key: count} in extraction order.

    Raises :class:`DecodeFailure` when peeling stalls with residual mass.
    """
    if not isinstance(sk, ScalarIBLT):
        sk = ScalarIBLT.of(sk, group)
    work = {pos: list(b) for pos, b in sk.buckets.items() if any(b)}
    out: dict[int, int] = {}
    queue = list(work.keys())
    while queue:
        pos = queue.pop()
        b = work.get(pos)
        if b is None or not any(b):
            continue
        got = _try_extract(sk, b)
        if got is None:
            continue
        key, cnt = got
        out[key] = out.get(key, 0) + cnt
        fp = sk.family.fingerprint(key)
        for r, p in enumerate(sk.family.positions(key)):
            wb = work.get((r, p))
            if wb is None:
                wb = [0, 0, 0]
                work[(r, p)] = wb
            wb[0] -= cnt
            wb[1] -= cnt * key
            wb[2] -= cnt * fp
            queue.append((r, p))
    for b in work.values():
        if any(b):
            raise DecodeFailure(f"IBLT peeling stalled (capacity {sk.capacity})")
    return {k: v for k, v in out.items() if v != 0}


def scalar_sample(sampler):
    """:meth:`DistinctSampler.sample` over :func:`scalar_decode`: the
    first level that decodes (non-empty unless it is level 0) gives the
    sorted keys and the live-count estimate."""
    last_error = None
    for j in range(sampler.num_levels):
        try:
            decoded = scalar_decode(sampler._sketches[j])
        except DecodeFailure as exc:
            last_error = exc
            continue
        if j == 0 or decoded:
            return sorted(decoded), float(len(decoded)) * (2.0**j)
    if last_error is not None:
        raise last_error
    return [], 0.0


class ScalarSketchStoring:
    """A :class:`SketchStoring` as bucket dicts: the cell IBLT and the
    nested point IBLT of every touched cell bucket ``(row, pos)``."""

    def __init__(self, store: SketchStoring):
        self.store = store
        self.cells = ScalarIBLT.of(store._cells)
        self.nested = {}
        if store._points is not None:
            m = store._cells.m
            self.nested = {divmod(g, m): ScalarIBLT(store._points, rows)
                           for g, rows in store._points.group_rows()}

    def update(self, cell: int, point: int, sign: int) -> None:
        """The cell sketch first, then the nested point sketch of each
        row's cell bucket."""
        iblt_update(self.cells, cell, sign)
        if self.store.recover_points:
            for r, pos in enumerate(self.cells.family.positions(int(cell))):
                nested = self.nested.get((r, pos))
                if nested is None:
                    nested = self.nested[r, pos] = ScalarIBLT(self.store._points)
                iblt_update(nested, point, sign)

    def write_back(self) -> None:
        """Pour the bucket dicts into the real structure."""
        self.store._cells.load_bucket_rows(self.cells.rows())
        if self.store._points is not None:
            m = self.store._cells.m
            _load_groups(self.store._points,
                        {r * m + p: sk for (r, p), sk in self.nested.items()})


def l0_update(sampler, levels: list, key: int, sign: int) -> None:
    """One event into the :class:`ScalarIBLT` ``levels`` of a
    :class:`DistinctSampler`: every level from 0 down to the deepest j
    with h(key) < p / 2^j."""
    v = sampler._level_hash.value(int(key))
    threshold = sampler._level_hash.prime
    deepest = 0
    while deepest + 1 < sampler.num_levels:
        threshold //= 2
        if v >= threshold:
            break
        deepest += 1
    for j in range(deepest + 1):
        iblt_update(levels[j], key, sign)


def _store_update(mirrors, store, cell, point, sign):
    """One event into one store's mirror; returns it."""
    mirror = mirrors[store]
    mirror.update(cell, point, sign)
    return mirror


def _instance_update(inst, mirrors, pkey, cells, sign, vh, vhp, vhh) -> None:
    """Algorithm 4 for one event and one guess: per level, the h, h' and ĥ
    sub-streams in order; an h-store past the kill line kills the guess
    on the spot, before the rest of this event reaches it."""
    thr_h, thr_hp, thr_hhat = (col[:, 0] for col in inst._thresholds)
    for i in range(inst.params.L + 1):
        if vh[i] < thr_h[i]:
            store = inst.store_h[i]
            mirror = _store_update(mirrors, store, cells[i], pkey, sign)
            if (isinstance(mirror, CounterStoring) and inst._early_kill is not None
                    and mirror.live > inst._early_kill * store.alpha):
                inst.dead_reason = (
                    f"level {i} cell count blew past "
                    f"{inst._early_kill:g}x alpha (o={inst.o:g})"
                )
                return
        if vhp[i] < thr_hp[i]:
            _store_update(mirrors, inst.store_hp[i], cells[i], pkey, sign)
        if vhh[i] < thr_hhat[i]:
            _store_update(mirrors, inst.store_hhat[i], cells[i], pkey, sign)


def scalar_ingest(driver, events) -> int:
    """Apply ``events`` to a :class:`StreamingCoreset` one at a time.

    Exact stores are mirrored into :class:`CounterStoring`, sketch stores
    into :class:`ScalarSketchStoring` and the pilot levels into
    :class:`ScalarIBLT` for the run, and written back at the end.  Returns
    the number of events.
    """
    rows, signs = events_to_arrays(events, d=driver.params.d)
    rows = check_stream_points(rows, driver.params.delta, driver.params.d)
    mirrors = {}
    for inst in driver.instances:
        for store in inst.store_h + inst.store_hp + inst.store_hhat:
            mirrors[store] = (CounterStoring(store) if isinstance(store, ExactStoring)
                              else ScalarSketchStoring(store))
    sampler = driver._pilot_sampler
    levels = [] if sampler is None else [ScalarIBLT.of(sk) for sk in sampler._sketches]
    codec, shared = driver.grids.point_codec, driver.shared
    grid_levels = range(driver.params.L + 1)
    for row, sign in zip(rows, signs.tolist()):
        pkey = codec.encode_one(row)
        cells = [int(driver.grids.cell_keys(row, i)[0]) for i in grid_levels]
        vh = [shared.h[i].value(pkey) for i in grid_levels]
        vhp = [shared.hp[i].value(pkey) for i in grid_levels]
        vhh = [shared.hhat[i].value(pkey) for i in grid_levels]
        for inst in driver.instances:
            if inst.dead_reason is None:
                _instance_update(inst, mirrors, pkey, cells, sign, vh, vhp, vhh)
        if sampler is not None:
            l0_update(sampler, levels, pkey, sign)
        driver.num_updates += 1
    for mirror in mirrors.values():
        mirror.write_back()
    for sk, level in zip(sampler._sketches if sampler else (), levels):
        sk.load_bucket_rows(level.rows())
    return len(signs)


# ------------------------------------------------------------ v1 codec
_GROUPS = ("store_h", "store_hp", "store_hhat")


def v1_store_lists(store) -> tuple[list, list]:
    """The retired v1 writer of one :class:`ExactStoring`, column-wise from
    the compacted state: ``cells`` as ``[cell, count]`` rows sorted by
    cell, and ``points`` as ``[cell, [[point, count], ...]]`` per cell run
    of the pairs."""
    store._flush()
    cells = np.column_stack((store._ckeys, store._ccounts)).tolist()
    pcell = store._pcell
    if not len(pcell):
        return cells, []
    pairs = np.column_stack((store._ppoint, store._pcount)).tolist()
    starts = np.flatnonzero(np.r_[True, np.asarray(pcell[1:] != pcell[:-1], dtype=bool)])
    heads = pcell[starts].tolist()
    bounds = np.r_[starts, len(pcell)].tolist()
    return cells, [[c, pairs[lo:hi]] for c, lo, hi in zip(heads, bounds, bounds[1:])]


def v1_bucket_rows(sk) -> list:
    """The v1 IBLT rows ``[row, pos, count, keysum, fpsum]``, column-wise
    in position order."""
    return sk.bucket_rows()


def _v1_nested(store) -> list:
    """``[row, pos, rows]`` of every touched nested point sketch."""
    if store._points is None:
        return []
    m = store._cells.m
    return [[*divmod(g, m), rows] for g, rows in store._points.group_rows()]


def _v1_storing(store) -> dict:
    if isinstance(store, ExactStoring):
        cells, points = v1_store_lists(store)
        return {"kind": "exact", "cells": cells, "points": points}
    return {"kind": "sketch", "cells": v1_bucket_rows(store._cells),
            "nested": _v1_nested(store)}


def v1_position_order(data: dict) -> dict:
    """A v1 driver state with every IBLT row list and nested-sketch list
    sorted by position: what :func:`v1_streaming_state_to_dict` writes for
    the contents a first-touch-ordered v1 file holds."""
    def rows(part):
        return sorted(part, key=lambda row: row[:2])

    out = dict(data)
    out["instances"] = [
        {**inst, **{group: [
            store if store["kind"] == "exact" else
            {**store, "cells": rows(store["cells"]),
             "nested": [[r, p, rows(part)] for r, p, part in rows(store["nested"])]}
            for store in inst[group]] for group in _GROUPS}}
        for inst in data["instances"]]
    if data["pilot"] is not None:
        out["pilot"] = [rows(level) for level in data["pilot"]]
    return out


def _header(sc, version: int) -> dict:
    return {
        "format_version": version,
        "params": params_to_dict(sc.params),
        "seed": sc.seed,
        "backend": sc.backend,
        "prefer": "largest",
        "o_range": list(sc.o_range) if sc.o_range is not None else None,
        "auto_pilot": sc.o_range is None,
        "num_updates": sc.num_updates,
    }


def v1_streaming_state_to_dict(sc, storing=_v1_storing, bucket_rows=v1_bucket_rows) -> dict:
    """The retired v1 ``streaming_state_to_dict``: one dict per store under
    each instance, IBLT rows in position order."""
    data = _header(sc, 1)
    data["instances"] = [
        {"o": inst.o, "dead_reason": inst.dead_reason,
         **{group: [storing(s) for s in getattr(inst, group)] for group in _GROUPS}}
        for inst in sc.instances]
    data["pilot"] = (None if sc._pilot_sampler is None else
                     [bucket_rows(sk) for sk in sc._pilot_sampler._sketches])
    return data


def v1_service_payload(service) -> dict:
    """The retired v1 checkpoint envelope of a :class:`ClusteringService`
    (one driver; files from services with N in-process shards hold N)."""
    ingest = service.ingest
    return {
        "format_version": 1,
        "config": service.config.to_dict(),
        "counters": {"bytes_ingested": service.bytes_ingested},
        "ingest": {
            "format_version": 1,
            "num_shards": 1,
            "version": int(ingest.version),
            "events_per_shard": [int(ingest.num_events)],
            "num_insertions": int(ingest.num_insertions),
            "num_deletions": int(ingest.num_deletions),
            "shards": [v1_streaming_state_to_dict(ingest.driver)],
        },
    }


def _bucket_rows(sk) -> list:
    return ScalarIBLT.of(sk).rows()


def _load_bucket_rows(sk, rows) -> None:
    """v1 rows through a bucket dict: a bucket listed twice keeps its last row."""
    sk.load_bucket_rows(ScalarIBLT(sk, rows).rows())


def _storing_to_dict(store) -> dict:
    if isinstance(store, ExactStoring):
        return {
            "kind": "exact",
            "cells": [[int(c), int(n)] for c, n in store._cells.items()],
            "points": [
                [int(cell), [[int(p), int(n)] for p, n in pts.items()]]
                for cell, pts in store._points.items()
            ],
        }
    assert isinstance(store, SketchStoring)
    mirror = ScalarSketchStoring(store)
    return {
        "kind": "sketch",
        "cells": mirror.cells.rows(),
        "nested": [[r, p, sk.rows()] for (r, p), sk in sorted(mirror.nested.items())],
    }


def _storing_from_dict(store, data: dict) -> None:
    if isinstance(store, ExactStoring):
        store._cells = Counter({int(c): int(n) for c, n in data["cells"]})
        store._points = {
            int(cell): Counter({int(p): int(n) for p, n in pts})
            for cell, pts in data["points"]
        }
        return
    mirror = ScalarSketchStoring(store)
    mirror.cells = ScalarIBLT(store._cells, data["cells"])
    mirror.nested = {(r, p): ScalarIBLT(store._points, rows) for r, p, rows in data["nested"]}
    mirror.write_back()


def counter_state_to_dict(sc) -> dict:
    """The v1 ``streaming_state_to_dict(sc)`` with every store and pilot
    level encoded entry by entry from the dict views."""
    return v1_streaming_state_to_dict(sc, _storing_to_dict, _bucket_rows)


def _rebuild(data: dict):
    o_range = tuple(data["o_range"]) if data["o_range"] is not None else None
    assert data["prefer"] == "largest" and data["auto_pilot"] is (o_range is None)
    sc = StreamingCoreset(
        params_from_dict(data["params"]), seed=data["seed"],
        backend=data["backend"], o_range=o_range,
    )
    for inst, rec in zip(sc.instances, data["instances"]):
        inst.dead_reason = rec["dead_reason"]
    if data["pilot"] is not None:
        for sk, rows in zip(sc._pilot_sampler._sketches, data["pilot"]):
            _load_bucket_rows(sk, rows)
    sc.num_updates = int(data["num_updates"])
    return sc


def counter_state_from_dict(data: dict):
    """Rebuild a driver from its arguments and pour v1 ``data`` in through
    the Counter and bucket-dict setters."""
    sc = _rebuild(data)
    for inst, rec in zip(sc.instances, data["instances"]):
        for group in _GROUPS:
            for store, payload in zip(getattr(inst, group), rec[group]):
                _storing_from_dict(store, payload)
    return sc


# ------------------------------------------------------------ v2 codec
_V2_COLUMNS = ("cells", "keys", "counts", "runs", "heads", "lengths", "points",
               "pair_counts")


def _schedule(sc) -> list:
    return [s for inst in sc.instances for group in _GROUPS for s in getattr(inst, group)]


def _deltas(keys) -> list:
    return [k - prev if j else k for j, (prev, k) in enumerate(zip([0] + keys, keys))]


def counter_state_v2_to_dict(sc) -> dict:
    """``streaming_state_to_dict(sc)`` (format v2) built entry by entry from
    the Counter and bucket-dict views: the stores in schedule order, the
    exact columns delta-coded per store and per run in Python ints, IBLT
    rows and nested sketches sorted by bucket position."""
    data = _header(sc, 2)
    data["instances"] = [{"o": inst.o, "dead_reason": inst.dead_reason}
                         for inst in sc.instances]
    stores = _schedule(sc)
    if sc.backend == "exact":
        cols = {name: [] for name in _V2_COLUMNS}
        for store in stores:
            cells = sorted(store._cells.items())
            cols["cells"].append(len(cells))
            cols["keys"] += _deltas([c for c, _ in cells])
            cols["counts"] += [n for _, n in cells]
            runs = sorted(store._points.items())
            cols["runs"].append(len(runs))
            cols["heads"] += _deltas([c for c, _ in runs])
            for _, pts in runs:
                pairs = sorted(pts.items())
                cols["lengths"].append(len(pairs))
                cols["points"] += _deltas([p for p, _ in pairs])
                cols["pair_counts"] += [n for _, n in pairs]
        data["stores"] = cols
    else:
        data["stores"] = [{key: rec[key] for key in ("cells", "nested")}
                          for rec in map(_storing_to_dict, stores)]
    data["pilot"] = (None if sc._pilot_sampler is None else
                     [_bucket_rows(sk) for sk in sc._pilot_sampler._sketches])
    return data


def counter_state_v2_from_dict(data: dict):
    """Rebuild a driver from its arguments and pour v2 ``data`` in through
    the Counter and bucket-dict setters, undoing the differences one entry
    at a time."""
    sc = _rebuild(data)
    stores = _schedule(sc)
    if sc.backend != "exact":
        for store, rec in zip(stores, data["stores"]):
            _storing_from_dict(store, {**rec, "kind": "sketch"})
        return sc
    cols = {name: iter(col) for name, col in data["stores"].items()}

    def undelta(name: str, n: int) -> list:
        out, key = [], 0
        for j in range(n):
            d = next(cols[name])
            key = key + d if j else d
            out.append(key)
        return out

    for store, ncell, nrun in zip(stores, data["stores"]["cells"], data["stores"]["runs"]):
        store._cells = {c: next(cols["counts"]) for c in undelta("keys", ncell)}
        store._points = {
            head: {p: next(cols["pair_counts"])
                   for p in undelta("points", next(cols["lengths"]))}
            for head in undelta("heads", nrun)}
    return sc


def greedy_assignment_numpy(D, w, caps):
    """The regret-ordered greedy with its loop over numpy scalars."""
    n, k = D.shape
    order = np.argsort(-(np.partition(D, 1, axis=1)[:, 1] - D.min(axis=1))) if k > 1 else np.arange(n)
    remaining = caps.astype(np.float64).copy()
    labels = np.empty(n, dtype=np.int64)
    pref = np.argsort(D, axis=1)
    for i in order:
        placed = False
        for j in pref[i]:
            if remaining[j] >= w[i] - 1e-12:
                labels[i] = j
                remaining[j] -= w[i]
                placed = True
                break
        if not placed:
            j = int(np.argmax(remaining))
            labels[i] = j
            remaining[j] -= w[i]
    return labels


def forestify_support_dfs(X, D=None, tol: float = 1e-9):
    """Cycle cancelling that searches for a cycle first, forest or not."""
    X = X.copy()
    while True:
        cycle = _find_support_cycle(X, tol)
        if cycle is None:
            return X
        plus, minus = cycle[0::2], cycle[1::2]
        if D is not None:
            delta_cost = sum(D[i, j] for (i, j) in plus) - sum(D[i, j] for (i, j) in minus)
            if delta_cost > 0:
                plus, minus = minus, plus
        a = min(X[i, j] for (i, j) in minus)
        for (i, j) in plus:
            X[i, j] += a
        for (i, j) in minus:
            X[i, j] -= a
            if X[i, j] < tol:
                X[i, j] = 0.0
