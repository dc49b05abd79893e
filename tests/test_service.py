"""Tests for the long-lived clustering service (repro.service).

Covers the three load-bearing claims of the subsystem:

1. the sketches are *linear* — drivers built with shared randomness and
   fed disjoint parts of a stream fold to the state of one driver that saw
   the whole stream, even when deletions land in a different driver than
   their insertions (what fleet merges and multi-shard restores rely on);
2. checkpoint/restore is *bit-identical* — a restored driver finalizes to
   the same coreset and can keep ingesting in lockstep with the original;
3. the wire service end-to-end: ingest over TCP, query quality vs the
   offline pipeline, checkpoint → kill → restore → identical answers, and
   the version-keyed query cache observable through ``stats``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.core import CoresetParams, build_coreset_auto
from repro.core.io import atomic_write_json, read_json
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream
from repro.metrics.costs import capacitated_cost
from repro.service import (
    ClusteringService,
    ServiceClient,
    ServiceConfig,
    ShardedIngest,
    TenantRegistry,
    start_async_server,
)
from repro.service.state import (
    sharded_state_from_dict,
    sharded_state_to_dict,
    streaming_state_from_dict,
    streaming_state_to_dict,
    tenant_checkpoint_filename,
)
from repro.solvers.capacitated_lloyd import CapacitatedKClustering
from repro.streaming import StreamingCoreset, materialize
from repro.streaming.stream import events_to_arrays
from repro.streaming.merge import merge_streaming_states


#: A shape and seed (tenant "alpha"'s derived seed under base seed 17) on
#: which the largest guess finalizes to an empty coreset.
EMPTY_GUESS_SHAPE = dict(k=2, d=2, delta=32, seed=4191614534410916974)


def empty_guess_points() -> np.ndarray:
    return np.unique(gaussian_mixture(60, 2, 32, k=2, seed=5), axis=0)


def empty_guess_stream():
    return churn_stream(empty_guess_points(), delete_fraction=0.3, seed=6)


@pytest.fixture(scope="module")
def world():
    """Small dynamic-stream instance: (stream, survivors, params)."""
    pts = np.unique(gaussian_mixture(900, 2, 64, k=3, seed=21), axis=0)
    stream = churn_stream(pts, delete_fraction=0.35, seed=4)
    survivors = materialize(stream, d=2)
    params = CoresetParams.practical(k=3, d=2, delta=64)
    return stream, survivors, params


def _coreset_points(cs):
    return sorted(map(tuple, cs.points.tolist()))


def _apply(ing, events):
    """A batch of (point, sign) events into a :class:`ShardedIngest`."""
    return ing.apply_arrays(*events_to_arrays(events, d=ing.params.d))


class TestShardRouting:
    def test_version_bumps_per_batch_not_per_event(self, world):
        stream, _, params = world
        ing = ShardedIngest(params, seed=3)
        _apply(ing, list(stream)[:10])
        assert ing.version == 1
        _apply(ing, list(stream)[10:20])
        assert ing.version == 2
        _apply(ing, list(stream)[20:21])
        assert ing.version == 3


class TestShardedMergeExact:
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_three_shards_equal_unsharded(self, world, backend):
        """Three drivers fed thirds of one logical stream fold, in two
        orders, to the answer and the state bytes of the service's one
        driver fed all of it."""
        stream, _, params = world
        events = list(stream)
        ing = ShardedIngest(params, seed=9, backend=backend)
        assert _apply(ing, stream) == len(stream)
        want = ing.merged_state().finalize()
        want_state = json.dumps(streaming_state_to_dict(ing.driver))

        parts = []
        for i in range(3):
            part = StreamingCoreset(params, seed=9, backend=backend)
            part.update_batch(events[i::3])
            parts.append(part)
        for order in ([0, 1, 2], [2, 0, 1]):
            merged = merge_streaming_states(
                parts[order[0]].copy(), *(parts[j] for j in order[1:]))
            assert json.dumps(streaming_state_to_dict(merged)) == want_state
            got = merged.finalize()
            assert got.o == want.o
            assert _coreset_points(got) == _coreset_points(want)

    def test_deletions_crossing_shard_boundaries(self, world):
        """Round-robin routing sends deletions to different shards than the
        matching insertions; linearity makes the merged state exact anyway."""
        stream, _, params = world
        events = list(stream)
        shards = [StreamingCoreset(params, seed=9, backend="exact")
                  for _ in range(3)]
        for i, shard in enumerate(shards):
            shard.update_batch(events[i::3])
        # The round-robin shards really do hold negative entries (a deletion
        # whose insertion went to a different shard) — the case under test.
        assert any(
            cnt < 0
            for sh in shards
            for store in sh.instances[0].store_hhat
            for cell_points in store._points.values()
            for cnt in cell_points.values()
        )

        ref = StreamingCoreset(params, seed=9, backend="exact")
        ref.update_batch(events)
        want = ref.finalize()
        merged = shards[0]
        for other in shards[1:]:
            merge_streaming_states(merged, other)
        got = merged.finalize()
        assert got.o == want.o
        assert _coreset_points(got) == _coreset_points(want)

    def test_merged_state_does_not_disturb_ingest(self, world):
        stream, _, params = world
        ing = ShardedIngest(params, seed=9)
        events = list(stream)
        _apply(ing, events[: len(events) // 2])
        first = ing.merged_state().finalize()
        # Querying must not consume the driver: keep ingesting and the
        # final answer matches a fresh run of the whole stream.
        _apply(ing, events[len(events) // 2:])
        got = ing.merged_state().finalize()
        ref = StreamingCoreset(params, seed=9)
        ref.update_batch(events)
        assert _coreset_points(got) == _coreset_points(ref.finalize())
        assert first is not None


class TestCheckpointRestore:
    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_roundtrip_bit_identical(self, world, backend):
        stream, _, params = world
        sc = StreamingCoreset(params, seed=11, backend=backend)
        sc.update_batch(stream)
        blob = json.dumps(streaming_state_to_dict(sc))  # JSON-safe end to end
        restored = streaming_state_from_dict(json.loads(blob))
        want, got = sc.finalize(), restored.finalize()
        assert got.o == want.o
        assert _coreset_points(got) == _coreset_points(want)
        assert np.allclose(np.sort(got.weights), np.sort(want.weights))
        assert restored.num_updates == sc.num_updates

    def test_restore_then_continue_ingesting(self, world):
        """The invariant the service needs: checkpoint mid-stream, restore,
        keep ingesting — indistinguishable from never having stopped."""
        stream, _, params = world
        events = list(stream)
        half = len(events) // 2

        sc = StreamingCoreset(params, seed=11)
        sc.update_batch(events[:half])
        restored = streaming_state_from_dict(streaming_state_to_dict(sc))
        restored.update_batch(events[half:])

        ref = StreamingCoreset(params, seed=11)
        ref.update_batch(events)
        want, got = ref.finalize(), restored.finalize()
        assert got.o == want.o
        assert _coreset_points(got) == _coreset_points(want)

    def test_file_roundtrip_is_atomic(self, world, tmp_path):
        stream, _, params = world
        sc = StreamingCoreset(params, seed=11)
        sc.update_batch(stream)
        path = tmp_path / "state.json"
        atomic_write_json(path, streaming_state_to_dict(sc))
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp.*"))  # temp file cleaned up
        restored = streaming_state_from_dict(read_json(path))
        assert _coreset_points(restored.finalize()) == _coreset_points(sc.finalize())

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2, "payload": list(range(50))})
        assert read_json(path)["v"] == 2

    def test_sharded_roundtrip_preserves_counters(self, world):
        """One-driver state round-trips with its counters; a three-shard
        state (as services once wrote) restores into one driver whose
        checkpoint is the one-driver state's."""
        stream, _, params = world
        events = list(stream)
        ing = ShardedIngest(params, seed=9)
        _apply(ing, events)
        data = sharded_state_to_dict(ing)
        assert data["num_shards"] == 1
        assert data["events_per_shard"] == [len(events)]
        ing2 = sharded_state_from_dict(data)
        assert ing2.version == ing.version
        assert ing2.num_events == ing.num_events == len(events)
        assert ing2.num_insertions == ing.num_insertions
        assert ing2.num_deletions == ing.num_deletions
        assert (_coreset_points(ing2.merged_state().finalize())
                == _coreset_points(ing.merged_state().finalize()))

        parts = [StreamingCoreset(params, seed=9) for _ in range(3)]
        for i, part in enumerate(parts):
            part.update_batch(events[i::3])
        three = dict(data, num_shards=3,
                     events_per_shard=[len(events[i::3]) for i in range(3)],
                     shards=[streaming_state_to_dict(p) for p in parts])
        assert sharded_state_to_dict(sharded_state_from_dict(three)) == data

    @pytest.mark.parametrize("field,value", [
        ("version", 1.5), ("version", "3"), ("num_insertions", True),
        ("num_deletions", -1), ("events_per_shard", [1.0]),
        ("num_shards", "1")])
    def test_non_integral_counters_rejected(self, world, field, value):
        _, _, params = world
        data = sharded_state_to_dict(ShardedIngest(params, seed=9))
        data[field] = value
        with pytest.raises(ValueError):
            sharded_state_from_dict(data)

    @pytest.mark.parametrize("value", [-1_000_000_000, 1.5, "7", True])
    def test_bytes_ingested_must_be_a_counter(self, value):
        """A negative ``bytes_ingested`` would hand the tenant that much
        extra byte quota; a float, string or bool is no counter either."""
        svc = ClusteringService(ServiceConfig(k=2, d=2, delta=32, seed=3))
        svc.insert(np.array([[1, 1], [5, 9]]))
        payload = json.loads(json.dumps(svc.state_payload()))
        assert ClusteringService.from_payload(payload).bytes_ingested == 32
        payload["counters"]["bytes_ingested"] = value
        with pytest.raises(ValueError, match="bytes_ingested"):
            ClusteringService.from_payload(payload)
        svc.close()

    def test_bad_format_version_rejected(self, world):
        _, _, params = world
        sc = StreamingCoreset(params, seed=11)
        data = streaming_state_to_dict(sc)
        data["format_version"] = 999
        with pytest.raises(ValueError, match="format"):
            streaming_state_from_dict(data)


class TestQueryEngine:
    def test_cache_hit_until_ingest_invalidates(self, world):
        stream, _, params = world
        svc = ClusteringService(
            ServiceConfig(k=3, d=2, delta=64, seed=17))
        svc.apply_events(stream)
        r1, hit1 = svc.query()
        r2, hit2 = svc.query()
        assert not hit1 and hit2
        assert r2 is r1  # memoized object, O(1) path
        svc.delete(materialize(stream, d=2)[:3])
        r3, hit3 = svc.query()
        assert not hit3 and r3.version > r1.version
        stats = svc.stats()
        assert stats["queries"] == 3 and stats["cache_hits"] == 1

    def test_nondefault_slack_bypasses_cache(self, world):
        stream, _, params = world
        svc = ClusteringService(
            ServiceConfig(k=3, d=2, delta=64, seed=17))
        svc.apply_events(stream)
        svc.query()
        result, hit = svc.query(capacity_slack=2.0)
        assert not hit
        assert result.capacity > svc.query()[0].capacity

    def test_unsolvable_settings_rejected_up_front(self, world):
        """Settings on which every solve fails are refused by the config,
        and a bad per-query slack before any merge work is done."""
        for bad in (dict(restarts=0), dict(capacity_slack=0.9),
                    dict(capacity_slack=float("nan")),
                    dict(capacity_slack=float("inf"))):
            with pytest.raises(ValueError, match="restarts|capacity_slack"):
                ServiceConfig(k=3, d=2, delta=64, **bad)
        stream, _, _ = world
        svc = ClusteringService(
            ServiceConfig(k=3, d=2, delta=64, seed=17))
        svc.apply_events(stream)

        def no_merge():
            raise AssertionError("merged_state ran for a bad slack")

        svc.ingest.merged_state = no_merge
        for slack in (float("nan"), 0.5):
            with pytest.raises(ValueError, match="capacity_slack"):
                svc.query(capacity_slack=slack)
        assert svc.queries == 0

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_empty_guess_loses_to_a_nonempty_one(self, num_shards):
        """7 live points give the pilot too few keys for a cap, and the
        largest guess passes with an empty coreset (no cell is heavy, so
        nothing fails).  Finalize must skip it for a guess that keeps the
        live points; the solver cannot fit an empty coreset."""
        svc = ClusteringService(
            ServiceConfig(**EMPTY_GUESS_SHAPE, num_shards=num_shards))
        stream = empty_guess_stream()
        assert len(materialize(stream, d=2)) == 7
        svc.apply_events(stream)
        result, _ = svc.query()
        assert result.coreset_size > 0
        assert result.o < max(inst.o for inst in
                              svc.ingest.merged_state().instances)
        assert np.isfinite(result.cost) and len(result.centers) == 2

    def test_all_deleted_stream_keeps_the_empty_fallback(self):
        """With nothing live every guess is empty: finalize still returns
        the first empty coreset, as it did before empty guesses were
        skipped."""
        svc = ClusteringService(ServiceConfig(**EMPTY_GUESS_SHAPE))
        pts = empty_guess_points()
        svc.insert(pts)
        svc.delete(pts)
        merged = svc.ingest.merged_state()
        coreset, instance = merged.finalize_with_instance()
        assert len(coreset) == 0
        assert instance is merged.instances[-1]  # largest guess first

    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_empty_live_set_answers_empty(self, num_shards):
        """A fresh service, and one whose points were all deleted, answer
        with no centers and zero cost from the fallback guess instead of
        handing the solver an empty coreset; the answer is cached."""
        fresh = ClusteringService(
            ServiceConfig(k=2, d=2, delta=32, num_shards=num_shards))
        drained = ClusteringService(
            ServiceConfig(**EMPTY_GUESS_SHAPE, num_shards=num_shards))
        pts = empty_guess_points()
        assert len(pts) == 14
        drained.insert(pts)
        drained.delete(pts)
        for svc in (fresh, drained):
            result, hit = svc.query()
            assert not hit
            assert result.centers.shape == (0, 2)
            assert result.cost == 0.0 and result.coreset_size == 0
            fallback, _ = svc.ingest.merged_state().finalize_with_instance()
            assert result.o == fallback.o
            assert result.version == svc.ingest.version
            again, hit = svc.query()
            assert hit and again is result
        with pytest.raises(ValueError, match="empty input"):
            CapacitatedKClustering(k=2, capacity=1.0).fit(np.empty((0, 2)))

    def test_service_checkpoint_restore(self, world, tmp_path):
        stream, _, params = world
        svc = ClusteringService(
            ServiceConfig(k=3, d=2, delta=64, seed=17))
        svc.apply_events(stream)
        want, _ = svc.query()
        info = svc.checkpoint(tmp_path / "svc.json")
        assert info["version"] == svc.ingest.version

        twin = ClusteringService.restore(tmp_path / "svc.json")
        got, hit = twin.query()
        assert not hit  # the result cache is not part of the checkpoint
        assert np.allclose(got.centers, want.centers)
        assert got.cost == want.cost and got.o == want.o

    def test_legacy_supervise_key_restores(self, world, tmp_path):
        """Envelopes from before pools were always supervised carry a
        ``supervise`` config flag.  Checkpoints, evicted-tenant files and
        pulled states in that format restore bit-identically; any other
        unknown config key is still an error."""
        stream, _, _ = world
        svc = ClusteringService(
            ServiceConfig(k=3, d=2, delta=64, seed=17))
        svc.apply_events(stream)
        want, _ = svc.query()
        current = svc.state_payload()
        legacy = json.loads(json.dumps(current))
        legacy["config"]["supervise"] = False

        twin = ClusteringService.from_payload(legacy)
        assert json.dumps(twin.state_payload(), sort_keys=True) == \
            json.dumps(current, sort_keys=True)
        got, _ = twin.query()
        assert got.centers.tolist() == want.centers.tolist()
        assert got.cost == want.cost and got.o == want.o

        atomic_write_json(tmp_path / "legacy.json", legacy)
        assert ClusteringService.restore(tmp_path / "legacy.json") \
            .ingest.version == svc.ingest.version
        tenants = tmp_path / "tenants"
        tenants.mkdir()
        atomic_write_json(tenants / tenant_checkpoint_filename("default"),
                          legacy)
        with TenantRegistry(svc.config, tenants_dir=tenants) as registry:
            got, _ = registry.query("default")
            assert got.cost == want.cost

        legacy["config"]["unheard_of"] = 1
        with pytest.raises(TypeError, match="unheard_of"):
            ClusteringService.from_payload(legacy)


class TestServiceEndToEnd:
    """The acceptance-criterion scenario, over a real TCP socket."""

    def test_ingest_query_checkpoint_restore(self, world, tmp_path):
        stream, survivors, params = world
        config = ServiceConfig(k=3, d=2, delta=64, seed=17,
                               capacity_slack=1.2)
        registry = TenantRegistry(config)
        server, _ = start_async_server(registry)
        host, port = server.address
        inserts = np.array([ev.point for ev in stream if ev.sign > 0])
        deletes = np.array([ev.point for ev in stream if ev.sign < 0])
        ckpt = tmp_path / "e2e.ckpt.json"
        try:
            with ServiceClient(host, port) as cli:
                assert cli.ping()
                assert cli.insert(inserts, batch_size=64) == len(inserts)
                assert cli.delete(deletes) == len(deletes)

                answer = cli.query()
                assert not answer["cache_hit"]
                centers = np.asarray(answer["centers"], dtype=float)
                assert centers.shape == (3, 2)

                # Quality vs the offline pipeline on the materialized set.
                t = len(survivors) / 3 * config.capacity_slack
                off_cs = build_coreset_auto(survivors, params, seed=17)
                solver = CapacitatedKClustering(
                    k=3, capacity=off_cs.total_weight / 3 * config.capacity_slack,
                    r=2.0, restarts=2, seed=17)
                off = solver.fit(off_cs.points.astype(float),
                                 weights=off_cs.weights)
                svc_cost = capacitated_cost(survivors, centers, t, r=2.0)
                off_cost = capacitated_cost(survivors, off.centers, t, r=2.0)
                assert svc_cost <= (1 + 4 * params.eps) * off_cost

                # Unchanged stream ⇒ second query is served from cache.
                again = cli.query()
                assert again["cache_hit"]
                assert again["centers"] == answer["centers"]
                assert cli.stats()["cache_hits"] == 1

                cli.checkpoint(ckpt)
        finally:
            server.shutdown()
            registry.close()

        # "Kill" the server; a fresh one restores (as `serve --restore`
        # does) and answers identically.
        twin_registry = TenantRegistry(config)
        twin_registry.restore("default", ckpt)
        twin, _ = start_async_server(twin_registry)
        try:
            with ServiceClient(*twin.address) as cli:
                restored = cli.query()
                assert restored["centers"] == answer["centers"]
                assert restored["cost"] == answer["cost"]
                assert restored["version"] == answer["version"]
        finally:
            twin.shutdown()
            twin_registry.close()

    def test_out_of_range_insert_rejected_atomically(self, world):
        """Regression: an insert with a coordinate outside [0, Δ] used to
        alias to a different point's key mid-batch, corrupting the sketches
        and leaving a partially-applied batch behind.  The server must now
        answer a clean error envelope with *zero* events applied and keep
        both the connection and the state healthy."""
        from repro.service.client import ServiceError

        registry = TenantRegistry(
            ServiceConfig(k=3, d=2, delta=64, seed=1))
        server, _ = start_async_server(registry)
        host, port = server.address
        try:
            with ServiceClient(host, port) as cli:
                for bad in ([[3, 3], [1, -1]],   # negative coordinate
                            [[3, 3], [0, 65]],   # > Δ
                            [[2**70, 1]]):       # json int too big for int64
                    with pytest.raises(ServiceError, match="point"):
                        cli.request("insert", points=bad)
                    stats = cli.stats()
                    assert stats["events"] == 0 and stats["version"] == 0
                # The boundary coordinates 0 and Δ are legal.
                assert cli.insert(np.array([[0, 0], [64, 64]])) == 2
                assert cli.stats()["events"] == 2
        finally:
            server.shutdown()
            registry.close()

    @pytest.fixture
    def client(self):
        registry = TenantRegistry(ServiceConfig(k=3, d=2, delta=64, seed=1))
        server, _ = start_async_server(registry)
        try:
            with ServiceClient(*server.address) as cli:
                yield cli
        finally:
            server.shutdown()
            registry.close()

    def test_client_rejects_fractional_rows(self, client):
        """[[2.7, 3.0]] raises before anything is sent; an int64 cast
        applied it as the point (2, 3).  Integral floats still pass."""
        with pytest.raises(ValueError, match="integral"):
            client.insert([[2.7, 3.0]])
        assert client.stats()["events"] == 0
        assert client.insert([[2.0, 3.0]]) == 1

    def test_client_batch_size_zero_sends_one_row_per_frame(self, client):
        """``batch_size=0`` chunks by one row; it used to send empty
        frames, which the server rejects."""
        assert client.insert([[2, 3], [4, 5], [6, 7]], batch_size=0) == 3
        stats = client.stats()
        assert (stats["events"], stats["version"]) == (3, 3)

    def test_oversized_request_line_rejected(self, world):
        """Regression: the handler read request lines with an unbounded
        ``readline()``, so one newline-free client could balloon server
        memory.  Over-long frames now get an error envelope and a close."""
        import socket

        registry = TenantRegistry(
            ServiceConfig(k=3, d=2, delta=64, seed=1))
        server, _ = start_async_server(registry, max_request_bytes=2048)
        host, port = server.address
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(b'{"op": "insert", "points": [' + b"9" * 4096)
                fh.flush()
                resp = json.loads(fh.readline())
                assert resp["ok"] is False
                assert "exceeds 2048 bytes" in resp["error"]
                # Mid-frame resync is impossible: the server closes.
                assert fh.readline() == b""
            # The server itself survives and serves new connections.
            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                fh.write(b'{"op": "ping"}\n')
                fh.flush()
                assert json.loads(fh.readline())["ok"] is True
        finally:
            server.shutdown()
            registry.close()

    def test_malformed_requests_get_error_responses(self, world):
        registry = TenantRegistry(
            ServiceConfig(k=3, d=2, delta=64, seed=1))
        server, _ = start_async_server(registry)
        host, port = server.address
        try:
            import socket

            with socket.create_connection((host, port), timeout=10) as sock:
                fh = sock.makefile("rwb")
                for junk in (b"not json\n", b'{"op": "nope"}\n',
                             b'{"op": "insert", "points": "x"}\n'):
                    fh.write(junk)
                    fh.flush()
                    resp = json.loads(fh.readline())
                    assert resp["ok"] is False and resp["error"]
                # The connection survives all of that.
                fh.write(b'{"op": "ping"}\n')
                fh.flush()
                assert json.loads(fh.readline())["ok"] is True
        finally:
            server.shutdown()
            registry.close()


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        """Satellite: ``python -m repro`` must resolve to the CLI."""
        import os
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert "serve" in proc.stdout and "client" in proc.stdout
