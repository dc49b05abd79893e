"""Regenerate the golden v1 checkpoint fixtures in this directory.

Usage (from the repo root)::

    PYTHONPATH=src python tests/data/make_golden_v1.py

Writes, per backend, ``golden_v1_<backend>.ckpt.json`` (the service's
checkpoint envelope in state format v1, written by the retired v1 writer
kept in ``tests/scalar_oracle.py``) and ``golden_v1_<backend>.answer.json``
(the ``query()`` answer of the service that wrote it).  The committed
files were written by the service itself while v1 was current, when it
split its stream over two in-process shards, so each holds two drivers
(this script now writes one); they pin the v1 byte contract and the
seed → hash-coefficient derivation, so only regenerate them on purpose:
``tests/test_golden_state.py`` fails whenever a restored v1 driver,
re-encoded by the oracle, gives different bytes, or a v1 restore answers
differently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.core.io import atomic_write_json
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream
from repro.service import ClusteringService, ServiceConfig

HERE = Path(__file__).resolve().parent

#: Per backend: a small service fed one churn stream of a 3-cluster mix.
#: The exact one runs its ℓ₀ pilot over the full guess range; the sketch
#: one (IBLT Storing) gets a guess window to keep the fixture small.
CONFIGS = {
    "exact": ServiceConfig(k=3, d=2, delta=64, seed=5, backend="exact"),
    "sketch": ServiceConfig(k=2, d=2, delta=32, seed=7, backend="sketch",
                            o_range=(4.0, 64.0)),
}


def events_for(config: ServiceConfig):
    n = 160 if config.backend == "exact" else 80
    pts = np.unique(gaussian_mixture(n, config.d, config.delta, k=3, seed=3),
                    axis=0)
    return list(churn_stream(pts, delete_fraction=0.3, seed=2))


def main() -> None:
    sys.path.insert(0, str(HERE.parents[1]))  # the repo root, for tests/
    from tests.scalar_oracle import v1_service_payload

    for name, config in CONFIGS.items():
        svc = ClusteringService(config)
        svc.apply_events(events_for(config))
        atomic_write_json(HERE / f"golden_v1_{name}.ckpt.json",
                          v1_service_payload(svc))
        result, _ = svc.query()
        (HERE / f"golden_v1_{name}.answer.json").write_text(
            json.dumps(result.to_dict(), sort_keys=True) + "\n")
        svc.close()


if __name__ == "__main__":
    main()
