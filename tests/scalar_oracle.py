"""Per-event reference ingest: the oracle the batched path is pinned to.

``src/`` ingests only in batches.  This module replays a stream one event
at a time, written from the paper's per-event description rather than from
the vectorised code, so the tests (and ``make bench-smoke``) can demand
that batched ingest reproduce it byte for byte:

- :class:`CounterStoring` — the exact ``Storing`` as plain Counters, with a
  running live-cell count for the early kill;
- :func:`iblt_update` — one IBLT bucket update through the sketch's own
  scalar plumbing (``_slot_of``, ``positions``, ``fingerprint``);
- :func:`sketch_storing_update` — a cell-sketch update followed by the
  nested point sketches, row by row;
- :func:`l0_update` — the ℓ₀ sampler's level loop;
- :func:`scalar_ingest` — Algorithm 4 per event for every guess instance,
  including the mid-event early kill, plus the pilot sampler;
- :func:`counter_state_to_dict` / :func:`counter_state_from_dict` — the v1
  checkpoint codec written entry by entry through the Counter and bucket
  dict views, the reference the columnar codec in
  :mod:`repro.service.state` must match byte for byte.

Import as ``from tests.scalar_oracle import scalar_ingest`` (the repo root
must be on ``sys.path``; pytest and the benchmark scripts arrange that).
"""

from __future__ import annotations

from collections import Counter

from repro.core.io import params_from_dict
from repro.service.state import streaming_state_to_dict
from repro.streaming.storing import ExactStoring, SketchStoring
from repro.streaming.stream import events_to_arrays
from repro.streaming.streaming_coreset import StreamingCoreset
from repro.utils.validation import check_stream_points

__all__ = [
    "CounterStoring",
    "counter_state_from_dict",
    "counter_state_to_dict",
    "iblt_update",
    "l0_update",
    "scalar_ingest",
    "sketch_storing_update",
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


def iblt_update(sk, key: int, delta: int) -> None:
    """Add ``delta`` copies of ``key`` to an :class:`IBLTSketch`."""
    key = int(key)
    fp = sk.family.fingerprint(key)
    m = sk.m
    for r, pos in enumerate(sk.family.positions(key)):
        i = sk._slot_of(r * m + pos)
        sk._count[i] += delta
        sk._keysum[i] += delta * key
        sk._fpsum[i] += delta * fp


def sketch_storing_update(store, cell: int, point: int, sign: int) -> None:
    """One event into a :class:`SketchStoring`: the cell IBLT first, then
    the nested point sketch of each row's cell bucket."""
    iblt_update(store._cells, cell, sign)
    if store.recover_points:
        for r, pos in enumerate(store._cells.family.positions(int(cell))):
            iblt_update(store._nested_at(r, pos), point, sign)


def l0_update(sampler, key: int, sign: int) -> None:
    """One event into a :class:`DistinctSampler`: every level from 0 down
    to the deepest j with h(key) < p / 2^j."""
    v = sampler._level_hash.value(int(key))
    threshold = sampler._level_hash.prime
    deepest = 0
    while deepest + 1 < sampler.num_levels:
        threshold //= 2
        if v >= threshold:
            break
        deepest += 1
    for j in range(deepest + 1):
        iblt_update(sampler._sketches[j], key, sign)


def _store_update(mirrors, store, cell, point, sign):
    """One event into one store; returns its Counter mirror (exact) or None."""
    mirror = mirrors.get(store)
    if mirror is None:
        sketch_storing_update(store, cell, point, sign)
    else:
        mirror.update(cell, point, sign)
    return mirror


def _instance_update(inst, mirrors, pkey, cells, sign, vh, vhp, vhh) -> None:
    """Algorithm 4 for one event and one guess: per level, the h, h' and ĥ
    sub-streams in order; an h-store past the kill line kills the guess
    on the spot, before the rest of this event reaches it."""
    for i in range(inst.params.L + 1):
        if vh[i] < inst._thr_h[i]:
            store = inst.store_h[i]
            mirror = _store_update(mirrors, store, cells[i], pkey, sign)
            if (mirror is not None and inst._early_kill is not None
                    and mirror.live > inst._early_kill * store.alpha):
                inst.dead_reason = (
                    f"level {i} cell count blew past "
                    f"{inst._early_kill:g}x alpha (o={inst.o:g})"
                )
                return
        if vhp[i] < inst._thr_hp[i]:
            _store_update(mirrors, inst.store_hp[i], cells[i], pkey, sign)
        if vhh[i] < inst._thr_hhat[i]:
            _store_update(mirrors, inst.store_hhat[i], cells[i], pkey, sign)


def scalar_ingest(driver, events) -> int:
    """Apply ``events`` to a :class:`StreamingCoreset` one at a time.

    Exact stores are mirrored into :class:`CounterStoring` for the run and
    written back at the end; sketch stores and the pilot sampler take
    per-key bucket updates directly.  Returns the number of events.
    """
    rows, signs = events_to_arrays(events, d=driver.params.d)
    rows = check_stream_points(rows, driver.params.delta)
    mirrors = {}
    for inst in driver.instances:
        for store in inst.store_h + inst.store_hp + inst.store_hhat:
            if isinstance(store, ExactStoring):
                mirrors[store] = CounterStoring(store)
    codec, shared = driver.grids.point_codec, driver.shared
    levels = range(driver.params.L + 1)
    for row, sign in zip(rows, signs.tolist()):
        pkey = codec.encode_one(row)
        cells = [int(driver.grids.cell_keys(row, i)[0]) for i in levels]
        vh = [shared.h[i].value(pkey) for i in levels]
        vhp = [shared.hp[i].value(pkey) for i in levels]
        vhh = [shared.hhat[i].value(pkey) for i in levels]
        for inst in driver.instances:
            if inst.dead_reason is None:
                _instance_update(inst, mirrors, pkey, cells, sign, vh, vhp, vhh)
        if driver._pilot_sampler is not None:
            l0_update(driver._pilot_sampler, pkey, sign)
        driver.num_updates += 1
    for mirror in mirrors.values():
        mirror.write_back()
    return len(signs)


# ------------------------------------------------------------ v1 codec
_GROUPS = ("store_h", "store_hp", "store_hhat")


def _bucket_rows(sk) -> list:
    return [[r, p, b[0], int(b[1]), int(b[2])] for (r, p), b in sk.buckets.items()]


def _load_bucket_rows(sk, rows) -> None:
    sk.buckets = {(r, p): [c, ks, fs] for r, p, c, ks, fs in rows}


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
    return {
        "kind": "sketch",
        "cells": _bucket_rows(store._cells),
        "nested": [[r, p, _bucket_rows(sk)] for (r, p), sk in store._nested.items()],
    }


def _storing_from_dict(store, data: dict) -> None:
    if isinstance(store, ExactStoring):
        store._cells = Counter({int(c): int(n) for c, n in data["cells"]})
        store._points = {
            int(cell): Counter({int(p): int(n) for p, n in pts})
            for cell, pts in data["points"]
        }
        return
    _load_bucket_rows(store._cells, data["cells"])
    store._nested = {}
    for r, p, rows in data["nested"]:
        _load_bucket_rows(store._nested_at(r, p), rows)


def counter_state_to_dict(sc) -> dict:
    """``streaming_state_to_dict(sc)`` with every store and pilot level
    encoded entry by entry from the dict views."""
    data = streaming_state_to_dict(sc)
    for inst, rec in zip(sc.instances, data["instances"]):
        for group in _GROUPS:
            rec[group] = [_storing_to_dict(s) for s in getattr(inst, group)]
    if sc._pilot_sampler is not None:
        data["pilot"] = [_bucket_rows(sk) for sk in sc._pilot_sampler._sketches]
    return data


def counter_state_from_dict(data: dict):
    """Rebuild a driver from its arguments and pour ``data`` in through the
    Counter and bucket-dict setters."""
    o_range = tuple(data["o_range"]) if data["o_range"] is not None else None
    sc = StreamingCoreset(
        params_from_dict(data["params"]), seed=data["seed"],
        backend=data["backend"], o_range=o_range, prefer=data["prefer"],
        auto_pilot=data["auto_pilot"],
    )
    for inst, rec in zip(sc.instances, data["instances"]):
        inst.dead_reason = rec["dead_reason"]
        for group in _GROUPS:
            for store, payload in zip(getattr(inst, group), rec[group]):
                _storing_from_dict(store, payload)
    if data["pilot"] is not None:
        for sk, rows in zip(sc._pilot_sampler._sketches, data["pilot"]):
            _load_bucket_rows(sk, rows)
    sc.num_updates = int(data["num_updates"])
    return sc
