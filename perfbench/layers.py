"""Which public functions are timed, under which layer name, and the
per-layer metrics derived from their spans.

Layers are named after the modules they live in.  Names imported by value
(``parse_points`` inside ``aserver``, ``kmeans_plusplus`` inside
``capacitated_lloyd``, ...) are wrapped where they are looked up, not
where they are defined.  Nothing under ``src/`` changes: the wrappers are
installed at run time, in the server process by ``launcher.py`` and in the
benchmark process by ``run.py``.
"""

from __future__ import annotations

import json
import time

from spans import Recorder

#: Span name of each client round trip; its self time, less the server
#: spans inside it, is the time the request spent on the wire and queued.
WIRE = "wire.wait"


def install_server_side(rec: Recorder) -> None:
    """Wrappers that only run in a ``repro serve`` process."""
    from repro.service import aserver
    from repro.service.tenants import TenantRegistry

    rec.wrap_async(aserver.AsyncClusteringServer, "_dispatch", "aserver.dispatch")
    rec.wrap(aserver, "decode_line", "protocol.decode", leaf=True)
    rec.wrap(aserver, "parse_points", "protocol.parse_points", leaf=True)
    # The reply is encoded outside _dispatch: a root span of its own.
    rec.wrap(aserver, "encode_message", "protocol.encode")
    for op in ("insert", "delete", "query", "pull_state", "site_stats",
               "checkpoint"):
        rec.wrap(TenantRegistry, op, "tenants.self")


def install_common(rec: Recorder) -> None:
    """Sketch, merge, solver and state layers (server and coordinator)."""
    from importlib import import_module

    from repro.distributed import fleet
    from repro.service import engine, shards, state
    from repro.streaming import streaming_coreset as sc
    from repro.streaming.l0sampler import DistinctSampler
    from repro.streaming.storing import ExactStoring

    # ``repro.solvers`` re-exports functions under these module names.
    lloyd = import_module("repro.solvers.lloyd")
    capacitated_lloyd = import_module("repro.solvers.capacitated_lloyd")
    for op in ("insert", "delete", "query", "site_stats", "state_payload",
               "checkpoint"):
        rec.wrap(engine.ClusteringService, op, "engine.self")
    rec.wrap(shards.ShardedIngest, "apply_arrays", "shards.route")
    rec.wrap(shards.ShardedIngest, "merged_state", "shards.merged_state")
    rec.wrap(shards, "merge_streaming_states", "merge.fold")
    rec.wrap(fleet, "merge_streaming_states", "merge.fold")
    rec.wrap(sc.StreamingCoreset, "update_arrays", "streaming.hash")
    rec.wrap(sc.StreamingCoresetInstance, "update_batch_arrays",
             "streaming.scatter")
    rec.wrap(sc.StreamingCoreset, "finalize_with_instance", "streaming.finalize")
    rec.wrap(sc.StreamingCoresetInstance, "finalize", "streaming.guess")
    rec.wrap(ExactStoring, "update_many", "storing.update", leaf=True)
    rec.wrap(ExactStoring, "merge_from", "storing.merge", leaf=True)
    rec.wrap(ExactStoring, "result", "storing.result", leaf=True)
    rec.wrap(DistinctSampler, "update_many", "l0sampler.update", leaf=True)
    # The pilot imports ``lloyd`` from its module at call time.
    rec.wrap(lloyd, "lloyd", "solvers.pilot")
    rec.wrap(capacitated_lloyd.CapacitatedKClustering, "fit", "solvers.fit")
    rec.wrap(capacitated_lloyd, "kmeans_plusplus", "solvers.kmeanspp", leaf=True)
    rec.wrap(lloyd, "kmeans_plusplus", "solvers.kmeanspp", leaf=True)
    rec.wrap(capacitated_lloyd, "capacitated_assignment", "assignment.solve",
             leaf=True)
    # ShardedIngest.to_state_dict imports this from its module at call time.
    rec.wrap(state, "sharded_state_to_dict", "state.to_dict")
    rec.wrap(engine, "write_checkpoint", "state.write", leaf=True)
    rec.wrap(fleet, "sharded_state_from_dict", "state.from_dict", leaf=True)


class _TracedJson:
    """Stand-in for the ``json`` module inside ``repro.service.client``:
    times reply decoding as ``client.decode``."""

    def __init__(self, rec: Recorder):
        self._rec = rec

    def loads(self, text, *args, **kwargs):
        if not self._rec.enabled:
            return json.loads(text, *args, **kwargs)
        t0 = time.perf_counter_ns()
        out = json.loads(text, *args, **kwargs)
        self._rec.add_leaf("client.decode", time.perf_counter_ns() - t0,
                           len(text))
        return out

    def __getattr__(self, attr):
        return getattr(json, attr)


def install_client_side(rec: Recorder) -> None:
    """Wrappers for the benchmark process: client, feeder, coordinator."""
    from repro.distributed import fleet
    from repro.service import client

    for op in ("insert", "delete", "query", "pull_state", "site_stats",
               "checkpoint", "ping"):
        rec.wrap(client.ServiceClient, op, "client.encode")
    rec.wrap(client, "encode_message", "client.encode", leaf=True, units=len)
    rec.wrap(client.ServiceClient, "_roundtrip", WIRE)
    client.json = _TracedJson(rec)
    rec.wrap(fleet.SiteFeeder, "apply", "fleet.feed")
    rec.wrap(fleet.Coordinator, "poll_site_stats", "fleet.pull")
    rec.wrap(fleet.Coordinator, "pull_ingests", "fleet.pull")
    rec.wrap(fleet.Coordinator, "merged_service", "fleet.merge")
    rec.wrap(fleet, "merge_sharded", "fleet.merge")


def dump_rows(rec: Recorder, path) -> None:
    """Write a recorder's spans as JSON (one list per span)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec.rows(), fh)


def layer_metrics(table: dict[str, dict], *, wall_ns: int, ratio: float,
                  extra: dict) -> dict[str, float]:
    """The per-layer metrics BENCHMARK.json declares, from a
    :func:`spans.self_times` table (``*_ms``: self time summed over the
    timed region).

    ``extra`` supplies what spans cannot: client retries, fleet recoveries,
    ingested events and the pull_state byte/bit ratio.
    """
    def ms(name: str) -> float:
        return table.get(name, {}).get("self_ns", 0) / 1e6

    def count(name: str) -> int:
        return table.get(name, {}).get("count", 0)

    tried = count("streaming.guess")
    events = extra.get("ingest_events", 0)
    out = {
        "client.encode_ms": ms("client.encode"),
        "client.decode_ms": ms("client.decode"),
        "client.retries": extra.get("client_retries", 0),
        "wire.wait_ms": ms(WIRE),
        "aserver.dispatch_ms": ms("aserver.dispatch"),
        "protocol.decode_ms": ms("protocol.decode"),
        "protocol.parse_points_ms": ms("protocol.parse_points"),
        "protocol.encode_ms": ms("protocol.encode"),
        "protocol.bytes_per_event": (extra.get("ingest_frame_bytes", 0) / events
                                     if events else 0.0),
        "tenants.self_ms": ms("tenants.self"),
        "engine.self_ms": ms("engine.self"),
        "shards.route_ms": ms("shards.route"),
        "shards.merged_state_ms": ms("shards.merged_state"),
        "streaming.hash_ms": ms("streaming.hash"),
        "streaming.scatter_ms": ms("streaming.scatter"),
        "streaming.instance_updates": count("streaming.scatter"),
        "streaming.finalize_ms": ms("streaming.finalize") + ms("streaming.guess"),
        "streaming.guesses_tried": tried,
        "streaming.guesses_failed": table.get("streaming.guess", {}).get("failed", 0),
        "streaming.guess_useful_ratio": (count("streaming.finalize") / tried
                                         if tried else 0.0),
        "storing.update_ms": ms("storing.update"),
        "storing.merge_ms": ms("storing.merge"),
        "storing.result_ms": ms("storing.result"),
        "l0sampler.update_ms": ms("l0sampler.update"),
        "merge.fold_ms": ms("merge.fold"),
        "merge.calls": count("merge.fold"),
        "solvers.pilot_ms": ms("solvers.pilot"),
        "solvers.fit_ms": ms("solvers.fit"),
        "solvers.kmeanspp_ms": ms("solvers.kmeanspp"),
        "assignment.solve_ms": ms("assignment.solve"),
        "assignment.calls": count("assignment.solve"),
        "state.to_dict_ms": ms("state.to_dict"),
        "state.from_dict_ms": ms("state.from_dict"),
        "state.write_ms": ms("state.write"),
        "state.checkpoints": count("state.write"),
        "fleet.pull_ms": ms("fleet.pull"),
        "fleet.merge_ms": ms("fleet.merge"),
        "fleet.feed_ms": ms("fleet.feed"),
        "fleet.recoveries": extra.get("fleet_recoveries", 0),
        "fleet.bytes_per_charged_bit": extra.get("bytes_per_charged_bit", 0.0),
        "bench.self_ms": ms("bench.self"),
        "trace.wall_ms": wall_ns / 1e6,
        "trace.layer_sum_ratio": ratio,
    }
    return out
