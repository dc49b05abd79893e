"""Bit-exact serialization of live streaming sketch state (checkpoints).

:mod:`repro.core.io` persists *finished* coresets — a summary frozen at
finalize time.  A long-running service additionally needs to persist the
*live* sketches mid-stream so a process can restart and keep ingesting.

The key observation making this cheap: every random choice inside a
:class:`~repro.streaming.streaming_coreset.StreamingCoreset` (grid shift,
hash polynomials, sketch layouts) is derived deterministically from
``(params, seed)``.  A checkpoint therefore stores only

1. the construction arguments (params dict, seed, backend, guess window,
   ``prefer``, ``auto_pilot``), and
2. the *data* the stream wrote: the Storing contents, the pilot ℓ₀-sampler
   buckets, the update counter, and any early-kill verdicts.

Restore rebuilds the driver from the arguments — regenerating identical
randomness, which :mod:`repro.hashing.kwise` draws once per process and
seed — and pours the data back in column-wise.  The round trip is
bit-identical: ``finalize()`` on the restored driver replays the same
decode on the same sketch contents.  Everything is JSON (Python's ``json``
round-trips the arbitrary-precision integers our point/cell keys need), so
checkpoints are portable and diffable.

Format v2 (written)
-------------------
A driver's stores are listed in schedule order — instance, then
``store_h`` / ``store_hp`` / ``store_hhat``, then level — which the rebuilt
driver already knows, so ``instances`` keeps only each guess's ``o`` and
``dead_reason`` and ``stores`` carries the data:

- exact backend: one set of flat, delta-coded int columns for all of the
  driver's :class:`~repro.streaming.storing.ExactStoring` stores
  (``ExactStoring.encode_columns`` / ``load_columns``: cells per store,
  cell keys as first differences restarting at each store, counts, runs
  per store, run heads, run lengths, points as differences within their
  run, pair counts);
- sketch backend: one ``{"cells": rows, "nested": [[row, pos, rows], ...]}``
  per store, nested sketches in (row, pos) order;

and ``pilot`` holds one row list per ℓ₀ level.  IBLT rows are
``[row, pos, count, keysum, fpsum]`` in bucket-position order
(``IBLTSketch.bucket_rows`` / ``load_bucket_rows``).  Every part is a
canonical function of the sketch contents, so a merged state's bytes do not
depend on the order sites or shards were folded in, and restore → write is
byte-identical.  Restore rejects non-canonical v2 input with ``ValueError``.

A service's ingest block (:func:`sharded_state_to_dict`) holds its
counters and a ``shards`` list with its one driver (``num_shards`` 1,
``events_per_shard`` ``[events]``).  Files from services that split a
stream over N in-process shards have N drivers there; they restore with
the drivers folded into one (:func:`sharded_state_from_dict`).  Restore of
either format rejects sketch data and counters that are not JSON integers
(``1.5``, ``"3"``, ``true``) instead of truncating or coercing them.

Format v1 (read only)
---------------------
Files and senders from before v2 hold one ``{"kind", "cells", "points"}``
(exact) or ``{"kind", "cells", "nested"}`` (sketch) dict per store under
each instance's ``store_h`` / ``store_hp`` / ``store_hhat``, IBLT rows in
first-touch order.  They restore bit-identically into memory (slot order
included) and answer as before; non-canonical v1 input is normalised the
way the v1 writer's dict views defined it.  Writing always produces v2.
"""

from __future__ import annotations

from urllib.parse import quote, unquote

from repro.core.io import atomic_write_json, params_from_dict, params_to_dict
from repro.hashing.kwise import json_ints
from repro.service.faults import fault_point
from repro.streaming.storing import ExactStoring, SketchStoring
from repro.streaming.streaming_coreset import StreamingCoreset

__all__ = [
    "READABLE_FORMAT_VERSIONS",
    "STATE_FORMAT_VERSION",
    "streaming_state_to_dict",
    "streaming_state_from_dict",
    "sharded_state_to_dict",
    "sharded_state_from_dict",
    "tenant_checkpoint_filename",
    "tenant_id_from_filename",
    "write_checkpoint",
]

#: The state format every writer produces.
STATE_FORMAT_VERSION = 2

#: Every state format restore reads.
READABLE_FORMAT_VERSIONS = (1, 2)

#: Prefix of per-tenant checkpoint files inside a ``--tenants-dir``.
_TENANT_FILE_PREFIX = "tenant-"
_TENANT_FILE_SUFFIX = ".ckpt.json"


# ------------------------------------------------------------ tenant files
def tenant_checkpoint_filename(stream_id: str) -> str:
    """File name a tenant's eviction checkpoint is stored under.

    The stream id is percent-encoded with no safe characters, so any
    printable id (slashes, dots, unicode) maps to exactly one flat file
    name, and :func:`tenant_id_from_filename` inverts it losslessly.
    """
    return _TENANT_FILE_PREFIX + quote(stream_id, safe="") + _TENANT_FILE_SUFFIX


def tenant_id_from_filename(name: str) -> str | None:
    """Inverse of :func:`tenant_checkpoint_filename`; ``None`` for foreign
    files (a tenants dir may also hold manifests or user checkpoints)."""
    if not (name.startswith(_TENANT_FILE_PREFIX)
            and name.endswith(_TENANT_FILE_SUFFIX)):
        return None
    return unquote(name[len(_TENANT_FILE_PREFIX): -len(_TENANT_FILE_SUFFIX)])


# ------------------------------------------------------------- durability
def write_checkpoint(path, payload: dict) -> None:
    """Crash-safe checkpoint write: every service checkpoint goes through
    here (engine checkpoints, tenant eviction, close-time persistence).

    Durability is :func:`~repro.core.io.atomic_write_json` — temp file in
    the target directory, ``fsync`` of the file *and* of the directory
    entry, then ``os.replace`` — so a reader (or a crash at any byte) sees
    either the previous complete checkpoint or the new complete one, never
    a torn mix.  The ``checkpoint.write`` fault point injects an
    ``OSError`` *before* any bytes are written, modelling a full disk or
    dead volume: the previous checkpoint must survive such a failure
    untouched, which the fault tests assert.
    """
    act = fault_point("checkpoint.write", path=str(path))
    if act is not None:
        raise OSError(f"injected checkpoint write failure: {path}")
    atomic_write_json(path, payload)


# ---------------------------------------------------------------- storing
def _stores(sc: StreamingCoreset) -> list:
    """Every Storing of a driver in schedule order: instance, then
    ``store_h`` / ``store_hp`` / ``store_hhat``, then level."""
    return [store for inst in sc.instances
            for store in inst.store_h + inst.store_hp + inst.store_hhat]


def _sketch_storing_to_dict(store: SketchStoring) -> dict:
    """One sketch Storing: its cell IBLT and every nested point IBLT, the
    nested sketches in (row, pos) order."""
    return {
        "cells": store._cells.bucket_rows(),
        "nested": [[r, p, store._nested[r, p].bucket_rows()]
                   for r, p in sorted(store._nested)],
    }


def _sketch_storing_from_dict(store: SketchStoring, data: dict) -> None:
    """Inverse of :func:`_sketch_storing_to_dict` (v2: canonical only)."""
    store._cells.load_bucket_rows(data["cells"])
    store._nested = {}
    last = None
    for r, p, rows in data["nested"]:
        json_ints((r, p), "v2 state: nested sketch positions")
        if (last is not None and (r, p) <= last) or not (
                0 <= r < store._cells.ROWS and 0 <= p < store._cells.m):
            raise ValueError("v2 state: nested sketches must name in-range "
                             "buckets in increasing (row, pos) order")
        last = (r, p)
        store._nested_at(r, p).load_bucket_rows(rows)


def _v1_storing_from_dict(store, data: dict) -> None:
    """Pour one v1 per-store dict into a freshly constructed Storing."""
    if isinstance(store, ExactStoring):
        if data["kind"] != "exact":
            raise ValueError("checkpoint backend mismatch (expected exact)")
        store.load_lists(data["cells"], data["points"])
        return
    if data["kind"] != "sketch":
        raise ValueError("checkpoint backend mismatch (expected sketch)")
    store._cells.load_bucket_rows(data["cells"], canonical=False)
    store._nested = {}
    for r, p, rows in data["nested"]:
        json_ints((r, p), "checkpoint nested sketch positions")
        store._nested_at(r, p).load_bucket_rows(rows, canonical=False)


# ------------------------------------------------------------- one driver
def streaming_state_to_dict(sc: StreamingCoreset) -> dict:
    """Full JSON-safe state of one :class:`StreamingCoreset` (format v2)."""
    stores = _stores(sc)
    if sc.backend == "exact":
        payload = ExactStoring.encode_columns(stores)
    else:
        payload = [_sketch_storing_to_dict(s) for s in stores]
    pilot = None
    if sc._pilot_sampler is not None:
        pilot = [sk.bucket_rows() for sk in sc._pilot_sampler._sketches]
    return {
        "format_version": STATE_FORMAT_VERSION,
        "params": params_to_dict(sc.params),
        "seed": sc.seed,
        "backend": sc.backend,
        "prefer": sc.prefer,
        "o_range": list(sc.o_range) if sc.o_range is not None else None,
        "auto_pilot": sc.auto_pilot,
        "num_updates": sc.num_updates,
        "instances": [{"o": inst.o, "dead_reason": inst.dead_reason}
                      for inst in sc.instances],
        "stores": payload,
        "pilot": pilot,
    }


def _check_version(data: dict, what: str) -> int:
    version = data.get("format_version")
    if version not in READABLE_FORMAT_VERSIONS:
        raise ValueError(f"unsupported {what} format {version!r}")
    return version


def _count(value, what: str) -> int:
    """A non-negative JSON integer counter, else ``ValueError`` (``true``,
    ``1.5`` and ``"3"`` are not counters)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"checkpoint {what} must be a non-negative integer, "
                         f"got {value!r}")
    return value


def streaming_state_from_dict(data: dict) -> StreamingCoreset:
    """Rebuild a :class:`StreamingCoreset` from :func:`streaming_state_to_dict`
    output (format v2) or a v1 file.

    The driver is reconstructed from its arguments (regenerating identical
    grids and hash polynomials), then the sketch contents are restored, so
    the result is indistinguishable from the checkpointed original — it can
    keep ingesting, merge with other sites' drivers, and finalize.
    """
    version = _check_version(data, "streaming-state")
    params = params_from_dict(data["params"])
    o_range = tuple(data["o_range"]) if data["o_range"] is not None else None
    sc = StreamingCoreset(
        params,
        seed=data["seed"],
        backend=data["backend"],
        o_range=o_range,
        prefer=data["prefer"],
        auto_pilot=data["auto_pilot"],
    )
    got = [inst.o for inst in sc.instances]
    want = [rec["o"] for rec in data["instances"]]
    if got != want:
        raise ValueError(
            f"checkpoint guess schedule {want} does not match rebuilt {got}"
        )
    for inst, rec in zip(sc.instances, data["instances"]):
        inst.dead_reason = rec["dead_reason"]
    if version == 1:
        for inst, rec in zip(sc.instances, data["instances"]):
            for group, payload in (
                (inst.store_h, rec["store_h"]),
                (inst.store_hp, rec["store_hp"]),
                (inst.store_hhat, rec["store_hhat"]),
            ):
                if len(group) != len(payload):
                    raise ValueError("checkpoint level count mismatch")
                for store, d in zip(group, payload):
                    _v1_storing_from_dict(store, d)
    else:
        stores, payload = _stores(sc), data["stores"]
        if sc.backend == "exact":
            if not isinstance(payload, dict):
                raise ValueError("v2 state: exact stores must be one column set")
            ExactStoring.load_columns(stores, payload)
        else:
            if not isinstance(payload, list) or len(payload) != len(stores):
                raise ValueError("v2 state: one entry per sketch store expected")
            for store, d in zip(stores, payload):
                _sketch_storing_from_dict(store, d)
    if data["pilot"] is not None:
        if sc._pilot_sampler is None:
            raise ValueError("checkpoint has pilot state but rebuilt driver has none")
        levels = sc._pilot_sampler._sketches
        if len(levels) != len(data["pilot"]):
            raise ValueError(
                f"checkpoint pilot level count {len(data['pilot'])} does not "
                f"match rebuilt {len(levels)}")
        for sk, rows in zip(levels, data["pilot"]):
            sk.load_bucket_rows(rows, canonical=version > 1)
    sc.num_updates = _count(data["num_updates"], "num_updates")
    return sc


# ------------------------------------------------------------ service ingest
def sharded_state_to_dict(ingest) -> dict:
    """JSON-safe state of a :class:`~repro.service.shards.ShardedIngest`:
    its counters and its one driver (``num_shards`` 1)."""
    return {
        "format_version": STATE_FORMAT_VERSION,
        "num_shards": 1,
        "version": int(ingest.version),
        "events_per_shard": [int(ingest.num_events)],
        "num_insertions": int(ingest.num_insertions),
        "num_deletions": int(ingest.num_deletions),
        "shards": [streaming_state_to_dict(ingest.driver)],
    }


def sharded_state_from_dict(data: dict):
    """Rebuild a :class:`~repro.service.shards.ShardedIngest` (inverse of
    :func:`sharded_state_to_dict`).

    A file written with N in-process shards restores as one driver: its
    shards are folded by :meth:`ShardedIngest.from_drivers`, the sum a
    query over those shards always took.
    """
    from repro.service.shards import ShardedIngest

    _check_version(data, "sharded-state")
    drivers = [streaming_state_from_dict(rec) for rec in data["shards"]]
    if len(drivers) != _count(data["num_shards"], "num_shards"):
        raise ValueError("checkpoint shard count mismatch")
    per_shard = [_count(x, "events_per_shard") for x in data["events_per_shard"]]
    ingest = ShardedIngest.from_drivers(drivers)
    ingest.version = _count(data["version"], "version")
    ingest.num_insertions = _count(data["num_insertions"], "num_insertions")
    ingest.num_deletions = _count(data["num_deletions"], "num_deletions")
    if len(per_shard) != len(drivers) or sum(per_shard) != ingest.num_events:
        raise ValueError("checkpoint event counts do not add up")
    return ingest
