"""Golden checkpoints: the byte contracts and the seed → randomness map.

``tests/data/golden_v1_<backend>.ckpt.json`` are service checkpoints in
state format v1, written by an earlier build (see
``tests/data/make_golden_v1.py``); ``golden_v2_<backend>.ckpt.json`` are
the same services in format v2.  Both were written when a service split
its stream over two in-process shards, so each holds two drivers;
``golden_v2_single_<backend>.ckpt.json`` are the same services with one
driver, as the live writer produces them
(``tests/data/make_golden_v2.py``).  Each comes with the answer its
service gave.

A two-shard file restores into one driver by folding its shards, so it
must answer as recorded, and checkpointing the restore must give the
one-driver fixture's bytes; the one-driver fixture must round-trip byte
for byte.  Every v1 driver, re-encoded by the retired v1 writer
(``tests/scalar_oracle.py``), must give its committed contents, IBLT rows
in position order (memory keeps no first-touch order).  The legacy
worker-pool files must restore and answer identically too.  Together they
pin both formats and the hash coefficients every seed derives
(checkpoints store seeds, not coefficients).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service import ClusteringService
from repro.service.state import (
    READABLE_FORMAT_VERSIONS,
    STATE_FORMAT_VERSION,
    streaming_state_from_dict,
)
from tests.scalar_oracle import v1_position_order, v1_streaming_state_to_dict

DATA = Path(__file__).resolve().parent / "data"


def _answer(name: str) -> dict:
    return json.loads((DATA / f"{name}.answer.json").read_text())


def _bytes(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def _restore_and_checkpoint(golden: Path, tmp_path) -> tuple[bytes, dict]:
    """The checkpoint bytes and the answer of ``golden`` restored."""
    out = tmp_path / "again.ckpt.json"
    with ClusteringService.restore(golden) as svc:
        svc.checkpoint(out)
        answer = svc.query()[0].to_dict()
    return out.read_bytes(), answer


@pytest.mark.parametrize("backend", ["exact", "sketch"])
def test_golden_checkpoint_round_trip(backend, tmp_path):
    """v1: the v1 oracle re-encodes every restored driver to its committed
    contents in position order; the service restore answers as recorded, and the live writer
    turns it into the one-driver v2 fixture's bytes."""
    golden = DATA / f"golden_v1_{backend}.ckpt.json"
    payload = json.loads(golden.read_text())
    assert _bytes(payload) == golden.read_bytes()
    shards = payload["ingest"]["shards"]
    assert len(shards) == 2
    for shard in shards:
        again = v1_streaming_state_to_dict(streaming_state_from_dict(shard))
        assert _bytes(again) == _bytes(v1_position_order(shard))
    assert payload["config"]["backend"] == backend
    got, answer = _restore_and_checkpoint(golden, tmp_path)
    assert got == (DATA / f"golden_v2_single_{backend}.ckpt.json").read_bytes()
    assert answer == _answer(f"golden_v1_{backend}")


@pytest.mark.parametrize("backend", ["exact", "sketch"])
def test_golden_v2_round_trip(backend, tmp_path):
    """v2, two shards: restore folds them into one driver, answers as
    recorded and checkpoints to the one-driver fixture's bytes."""
    got, answer = _restore_and_checkpoint(
        DATA / f"golden_v2_{backend}.ckpt.json", tmp_path)
    assert got == (DATA / f"golden_v2_single_{backend}.ckpt.json").read_bytes()
    assert answer == _answer(f"golden_v2_{backend}")
    assert answer == _answer(f"golden_v1_{backend}")


@pytest.mark.parametrize("backend", ["exact", "sketch"])
def test_golden_single_driver_round_trip(backend, tmp_path):
    """v2, one driver: restore → checkpoint is byte-identical and answers
    as recorded (the two-shard fixtures' answer)."""
    golden = DATA / f"golden_v2_single_{backend}.ckpt.json"
    got, answer = _restore_and_checkpoint(golden, tmp_path)
    assert got == golden.read_bytes()
    assert answer == _answer(f"golden_v2_single_{backend}")
    assert answer == _answer(f"golden_v1_{backend}")


@pytest.mark.parametrize("name", ["legacy_pool_w2"])
def test_legacy_pool_checkpoint_answers(name):
    with ClusteringService.restore(DATA / f"{name}.ckpt.json") as svc:
        assert svc.query()[0].to_dict() == _answer(name)


def test_golden_format_version():
    assert STATE_FORMAT_VERSION == 2
    assert READABLE_FORMAT_VERSIONS == (1, 2)
    for version, name in ((1, "v1"), (2, "v2"), (2, "v2_single")):
        for backend in ("exact", "sketch"):
            payload = json.loads(
                (DATA / f"golden_{name}_{backend}.ckpt.json").read_text())
            assert payload["format_version"] == version
            assert payload["ingest"]["format_version"] == version
            assert {s["format_version"] for s in payload["ingest"]["shards"]} == {version}


@pytest.mark.parametrize("field,value", [
    ("seed", 6), ("backend", "sketch"), ("o_range", [1, 8])])
def test_config_must_match_driver(field, value):
    """Restore compares the driver's (params, seed, backend, o_range) with
    the envelope's config: a seed-5 exact pilot driver must not run under a
    config that says otherwise."""
    payload = json.loads((DATA / "golden_v2_single_exact.ckpt.json").read_text())
    payload["config"][field] = value
    with pytest.raises(ValueError, match="seed, backend or o_range"):
        ClusteringService.from_payload(payload)


def _bump_hhat_count(payload: dict) -> None:
    """Add one to the first cell count of the first point-keeping store of
    the first driver, leaving its pair counts as they were."""
    shard = payload["ingest"]["shards"][0]
    if shard["format_version"] == 1:
        shard["instances"][0]["store_hhat"][0]["cells"][0][1] += 1
        return
    driver = streaming_state_from_dict(shard)
    stores = [s for inst in driver.instances for s in inst.stores()]
    first = next(i for i, s in enumerate(stores) if s.recover_points and len(s._ckeys))
    shard["stores"]["counts"][sum(shard["stores"]["cells"][:first])] += 1


@pytest.mark.parametrize("name", ["golden_v1_exact", "golden_v2_exact",
                                  "golden_v2_single_exact"])
def test_hhat_counts_must_equal_pair_sums(name):
    """A point-keeping exact store's cell count is the sum of its pair
    counts in any stream; restore rejects a file where one is off by one
    (``merge_from`` logs only the pairs, so the count would change in a
    fold)."""
    payload = json.loads((DATA / f"{name}.ckpt.json").read_text())
    _bump_hhat_count(payload)
    with pytest.raises(ValueError, match="sums of their point counts"):
        ClusteringService.from_payload(payload)
