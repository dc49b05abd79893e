"""Regenerate the one-driver golden v2 checkpoint fixtures in this directory.

Usage (from the repo root)::

    PYTHONPATH=src python tests/data/make_golden_v2.py

Feeds the services and streams of ``make_golden_v1.py`` (same configs,
same churn streams) and writes, per backend,
``golden_v2_single_<backend>.ckpt.json`` (the service's checkpoint
envelope in state format v2: one driver) and
``golden_v2_single_<backend>.answer.json`` (its ``query()`` answer, which
equals the v1 fixture's).  The committed files pin the v2 byte contract,
so only regenerate them on purpose: ``tests/test_golden_state.py`` fails
whenever the live writer would produce different bytes — from these files,
or from the two-shard v1 and v2 fixtures restored — or answer differently.

``golden_v2_<backend>.ckpt.json`` (no ``single``) are the same services
written when a service split its stream over ``num_shards=2`` in-process
shards; this script wrote them at commit ``093cee9`` and earlier, and they
are kept as written, to pin the restore of multi-shard files.
"""

from __future__ import annotations

import json
from pathlib import Path

from make_golden_v1 import CONFIGS, events_for
from repro.service import ClusteringService

HERE = Path(__file__).resolve().parent


def main() -> None:
    for name, config in CONFIGS.items():
        svc = ClusteringService(config)
        svc.apply_events(events_for(config))
        svc.checkpoint(HERE / f"golden_v2_single_{name}.ckpt.json")
        result, _ = svc.query()
        (HERE / f"golden_v2_single_{name}.answer.json").write_text(
            json.dumps(result.to_dict(), sort_keys=True) + "\n")
        svc.close()


if __name__ == "__main__":
    main()
