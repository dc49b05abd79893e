"""Regenerate the legacy worker-pool fixtures in this directory.

The service once had a process-parallel ingest backend (``workers = N > 0``
in :class:`~repro.service.ServiceConfig`: one shard per worker process).
It was removed; its checkpoints and evicted-tenant files still have to
restore.  These fixtures were written by that backend, so this script only
runs on a build that still has it (commit ``b5efb2e`` or earlier); from
the repo root::

    mkdir -p /tmp/pool-build && git archive b5efb2e | tar -x -C /tmp/pool-build
    PYTHONPATH=/tmp/pool-build/src python tests/data/make_legacy_pool.py

It writes

- ``legacy_pool_w2.ckpt.json``: a ``workers=2`` service checkpoint (its
  config still says ``num_shards=4``, which the pool ignored), with the
  service's ``query()`` answer in ``legacy_pool_w2.answer.json``;
- ``legacy_pool_tenant_w1.ckpt.json``: the eviction file of stream
  ``"alpha"`` from a tenant registry whose base config had ``workers=1``,
  with that tenant's answer in ``legacy_pool_tenant_w1.answer.json``.

``tests/test_service_parallel.py`` and
``tests/test_service_tenants.py::TestEvictionAndRestore::test_evict_restore_with_worker_processes``
restore them into the in-process backend.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream
from repro.service import ClusteringService, ServiceConfig, TenantRegistry
from repro.service.state import tenant_checkpoint_filename

HERE = Path(__file__).resolve().parent

SERVICE_CONFIG = ServiceConfig(k=2, d=2, delta=32, num_shards=4, workers=2,
                               seed=13, backend="exact")
TENANT_CONFIG = ServiceConfig(k=2, d=2, delta=32, num_shards=4, workers=1,
                              seed=17, backend="exact")
TENANT = "alpha"


def events_for(seed: int):
    pts = np.unique(gaussian_mixture(60, 2, 32, k=2, seed=seed), axis=0)
    return list(churn_stream(pts, delete_fraction=0.3, seed=seed + 1))


def write_answer(path: Path, result) -> None:
    path.write_text(json.dumps(result.to_dict(), sort_keys=True) + "\n")


def main() -> None:
    with ClusteringService(SERVICE_CONFIG) as svc:
        svc.apply_events(events_for(3))
        svc.checkpoint(HERE / "legacy_pool_w2.ckpt.json")
        write_answer(HERE / "legacy_pool_w2.answer.json", svc.query()[0])

    tmp = Path(tempfile.mkdtemp())
    try:
        reg = TenantRegistry(TENANT_CONFIG, tenants_dir=tmp)
        reg.apply_events(TENANT, events_for(9))
        write_answer(HERE / "legacy_pool_tenant_w1.answer.json",
                     reg.query(TENANT)[0])
        assert reg.evict(TENANT)
        reg.close()
        shutil.copyfile(tmp / tenant_checkpoint_filename(TENANT),
                        HERE / "legacy_pool_tenant_w1.ckpt.json")
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
