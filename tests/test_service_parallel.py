"""Envelopes of the removed process-parallel ingest backend.

``ServiceConfig.workers = N > 0`` used to run one shard per worker process.
Its checkpoints and evicted-tenant files hold the same ingest block as N
in-process shards, so :meth:`ServiceConfig.from_dict` maps them to
``workers=0`` and they restore into :class:`ShardedIngest`'s one driver,
their shards folded.  The ``tests/data/legacy_pool_*`` fixtures were
written by that backend (``tests/data/make_legacy_pool.py``) in state
format v1: each must restore, re-serialize every driver byte for byte
through the retired v1 writer, and answer exactly as the pool did.
Process parallelism is the fleet's now (``test_fleet.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream
from repro.service import ClusteringService, ServiceConfig, ShardedIngest
from repro.service.state import streaming_state_from_dict
from tests.scalar_oracle import v1_streaming_state_to_dict

DATA = Path(__file__).resolve().parent / "data"
LEGACY = DATA / "legacy_pool_w2.ckpt.json"
LEGACY_ANSWER = DATA / "legacy_pool_w2.answer.json"


def _events(seed: int):
    """The stream ``make_legacy_pool.py`` fed the ``workers=2`` service."""
    pts = np.unique(gaussian_mixture(60, 2, 32, k=2, seed=seed), axis=0)
    return list(churn_stream(pts, delete_fraction=0.3, seed=seed + 1))


def _bytes(block: dict) -> bytes:
    """A state block as the checkpoint writer encodes it."""
    return json.dumps(block, separators=(",", ":")).encode()


class TestLegacyConfig:
    def test_workers_accepts_only_zero(self):
        with pytest.raises(ValueError, match="fleet"):
            ServiceConfig(k=2, d=2, delta=32, workers=2)

    def test_from_dict_maps_pool_configs_to_shards(self):
        data = ServiceConfig(k=2, d=2, delta=32).to_dict()
        data.update(workers=3, num_shards=4, supervise=True)
        config = ServiceConfig.from_dict(data)
        assert config.workers == 0 and config.num_shards == 1


class TestParallelDeterminism:
    def test_query_results_identical_across_backends(self):
        """The pool-written state, its shards folded, equals a fresh
        service fed the same stream: same bytes, same answer."""
        config = ServiceConfig(k=2, d=2, delta=32, seed=13)
        with ClusteringService(config) as fresh, \
                ClusteringService.restore(LEGACY) as legacy:
            fresh.apply_events(_events(3))
            assert legacy.config == config
            assert (_bytes(legacy.ingest.to_state_dict())
                    == _bytes(fresh.ingest.to_state_dict()))
            assert legacy.query()[0].to_dict() == fresh.query()[0].to_dict()


class TestWorkerCheckpointRestore:
    def test_pool_checkpoint_restore_roundtrip(self, tmp_path):
        """Every pool driver restores and re-encodes byte for byte through
        the retired v1 writer; the service checkpoint of the restore is a
        plain one-driver envelope in state format v2 and keeps ingesting
        like a service that never stopped."""
        ckpt = tmp_path / "again.ckpt.json"
        with ClusteringService.restore(LEGACY) as svc:
            svc.checkpoint(ckpt)
        payload = json.loads(ckpt.read_text())
        assert payload["config"]["workers"] == 0
        assert payload["config"]["num_shards"] == 1
        assert payload["ingest"]["format_version"] == 2
        assert payload["ingest"]["num_shards"] == 1
        legacy = json.loads(LEGACY.read_text())
        assert b'"ingest":' + _bytes(legacy["ingest"]) in LEGACY.read_bytes()
        assert len(legacy["ingest"]["shards"]) == 2
        for shard in legacy["ingest"]["shards"]:
            again = v1_streaming_state_to_dict(streaming_state_from_dict(shard))
            assert _bytes(again) == _bytes(shard)

        more = np.array([[3, 4], [20, 21], [9, 30]])
        with ClusteringService.restore(ckpt) as twin, \
                ClusteringService(ServiceConfig.from_dict(payload["config"])) as ref:
            ref.apply_events(_events(3))
            twin.insert(more)
            ref.insert(more)
            assert twin.query()[0].to_dict() == ref.query()[0].to_dict()

    def test_checkpoints_interchangeable_across_backends(self):
        """A ``workers=2`` pool checkpoint restores into the in-process
        backend and gives the pool's answer."""
        with ClusteringService.restore(LEGACY) as svc:
            assert isinstance(svc.ingest, ShardedIngest)
            assert svc.config.workers == 0
            assert svc.ingest.num_events == len(_events(3))
            got, _ = svc.query()
        assert got.to_dict() == json.loads(LEGACY_ANSWER.read_text())

    def test_restore_rejects_shard_count_mismatch(self):
        """The ingest block says 5 shards but holds 2."""
        payload = json.loads((DATA / "golden_v1_exact.ckpt.json").read_text())
        payload["ingest"]["num_shards"] = 5
        with pytest.raises(ValueError, match="shard count mismatch"):
            ClusteringService.from_payload(payload)
