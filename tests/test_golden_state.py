"""Golden checkpoints: the byte contracts and the seed → randomness map.

``tests/data/golden_v1_<backend>.ckpt.json`` are service checkpoints in
state format v1, written by an earlier build (see
``tests/data/make_golden_v1.py``); ``golden_v2_<backend>.ckpt.json`` are
the same services in format v2 (``tests/data/make_golden_v2.py``).  Each
comes with the answer its service gave.  A v1 file must restore and answer
identically, and re-encoding the restore with the retired v1 writer
(``tests/scalar_oracle.py``) must give the very same bytes; the live
writer must reproduce the v2 files byte for byte, from a v2 restore and
from the v1 restore of the same state.  The legacy worker-pool files must
restore and answer identically too.  Together they pin both formats and
the hash coefficients every seed derives (checkpoints store seeds, not
coefficients).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.io import atomic_write_json
from repro.service import ClusteringService
from repro.service.state import READABLE_FORMAT_VERSIONS, STATE_FORMAT_VERSION
from tests.scalar_oracle import v1_service_payload

DATA = Path(__file__).resolve().parent / "data"


def _answer(name: str) -> dict:
    return json.loads((DATA / f"{name}.answer.json").read_text())


@pytest.mark.parametrize("backend", ["exact", "sketch"])
def test_golden_checkpoint_round_trip(backend, tmp_path):
    """v1: restore answers as recorded; the v1 oracle re-encodes the
    restore to the committed bytes; the live writer turns it into the v2
    fixture's bytes."""
    golden = DATA / f"golden_v1_{backend}.ckpt.json"
    svc = ClusteringService.restore(golden)
    try:
        assert svc.config.backend == backend
        again = tmp_path / "v1.ckpt.json"
        atomic_write_json(again, v1_service_payload(svc))
        assert again.read_bytes() == golden.read_bytes()
        out = tmp_path / "v2.ckpt.json"
        svc.checkpoint(out)
        assert out.read_bytes() == (DATA / f"golden_v2_{backend}.ckpt.json").read_bytes()
        result, _ = svc.query()
        assert result.to_dict() == _answer(f"golden_v1_{backend}")
    finally:
        svc.close()


@pytest.mark.parametrize("backend", ["exact", "sketch"])
def test_golden_v2_round_trip(backend, tmp_path):
    """v2: restore → checkpoint is byte-identical and answers as recorded."""
    golden = DATA / f"golden_v2_{backend}.ckpt.json"
    svc = ClusteringService.restore(golden)
    try:
        out = tmp_path / "again.ckpt.json"
        svc.checkpoint(out)
        assert out.read_bytes() == golden.read_bytes()
        result, _ = svc.query()
        assert result.to_dict() == _answer(f"golden_v2_{backend}")
        assert result.to_dict() == _answer(f"golden_v1_{backend}")
    finally:
        svc.close()


@pytest.mark.parametrize("name", ["legacy_pool_w2"])
def test_legacy_pool_checkpoint_answers(name):
    with ClusteringService.restore(DATA / f"{name}.ckpt.json") as svc:
        assert svc.query()[0].to_dict() == _answer(name)


def test_golden_format_version():
    assert STATE_FORMAT_VERSION == 2
    assert READABLE_FORMAT_VERSIONS == (1, 2)
    for version in (1, 2):
        for backend in ("exact", "sketch"):
            payload = json.loads(
                (DATA / f"golden_v{version}_{backend}.ckpt.json").read_text())
            assert payload["format_version"] == version
            assert payload["ingest"]["format_version"] == version
            assert {s["format_version"] for s in payload["ingest"]["shards"]} == {version}
