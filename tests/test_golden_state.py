"""Golden v1 checkpoints: the byte contract and the seed → randomness map.

``tests/data/golden_v1_<backend>.ckpt.json`` are service checkpoints
written by an earlier build (see ``tests/data/make_golden_v1.py``), with
the answer that service gave in ``golden_v1_<backend>.answer.json``.  A
restore must re-serialize to the very same bytes and answer identically —
which pins both the v1 format and the hash coefficients every seed derives
(checkpoints store seeds, not coefficients).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service import ClusteringService
from repro.service.state import STATE_FORMAT_VERSION

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("backend", ["exact", "sketch"])
def test_golden_checkpoint_round_trip(backend, tmp_path):
    golden = DATA / f"golden_v1_{backend}.ckpt.json"
    svc = ClusteringService.restore(golden)
    try:
        assert svc.config.backend == backend
        out = tmp_path / "again.ckpt.json"
        svc.checkpoint(out)
        assert out.read_bytes() == golden.read_bytes()
        result, _ = svc.query()
        want = json.loads((DATA / f"golden_v1_{backend}.answer.json").read_text())
        assert result.to_dict() == want
    finally:
        svc.close()


def test_golden_format_version():
    assert STATE_FORMAT_VERSION == 1
    for backend in ("exact", "sketch"):
        payload = json.loads((DATA / f"golden_v1_{backend}.ckpt.json").read_text())
        assert payload["format_version"] == 1
        assert payload["ingest"]["format_version"] == 1
