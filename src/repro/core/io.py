"""Serialization of coresets, parameters, and live streaming state.

A coreset is a *summary* — the whole point is to persist/ship it instead of
the data.  The format is a single ``.npz`` holding the point/weight/part
arrays plus a JSON-encoded header with the construction parameters, so a
loaded coreset can (a) be solved against, (b) extend assignments via
Section 3.3 (it retains part provenance and the accepted guess ``o``), and
(c) be validated against the parameters it was built with.

Beyond finished coresets, :func:`atomic_write_json` is the crash-safe
primitive every checkpoint of live sketch state goes through (write temp,
fsync, rename — a checkpoint is either the complete old file or the
complete new one, never a torn mix); the live-state codec itself is
:mod:`repro.service.state`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from repro.core.params import CoresetParams
from repro.core.weighted import Coreset, PartInfo

__all__ = [
    "save_coreset",
    "load_coreset",
    "params_to_dict",
    "params_from_dict",
    "atomic_write_json",
    "read_json",
]

_FORMAT_VERSION = 1


def params_to_dict(params: CoresetParams) -> dict:
    """JSON-safe dict of a :class:`CoresetParams`."""
    return dataclasses.asdict(params)


def params_from_dict(data: dict) -> CoresetParams:
    """Inverse of :func:`params_to_dict`."""
    return CoresetParams(**data)


def save_coreset(path, coreset: Coreset, params: CoresetParams | None = None) -> None:
    """Write a coreset (and optionally its parameters) to ``path`` (.npz)."""
    path = Path(path)
    header = {
        "format_version": _FORMAT_VERSION,
        "o": coreset.o,
        "delta": coreset.delta,
        "input_size": coreset.input_size,
        "parts": [dataclasses.asdict(p) for p in coreset.parts],
        "params": params_to_dict(params) if params is not None else None,
    }
    np.savez_compressed(
        path,
        points=coreset.points,
        weights=coreset.weights,
        part_ids=coreset.part_ids,
        header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
    )


def load_coreset(path) -> tuple[Coreset, CoresetParams | None]:
    """Read a coreset written by :func:`save_coreset`.

    Returns (coreset, params) where params is ``None`` when it was not saved.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
        if header.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported coreset format version {header.get('format_version')}"
            )
        coreset = Coreset(
            points=data["points"],
            weights=data["weights"],
            part_ids=data["part_ids"],
            parts=[PartInfo(**p) for p in header["parts"]],
            o=float(header["o"]),
            delta=int(header["delta"]),
            input_size=int(header["input_size"]),
        )
    params = params_from_dict(header["params"]) if header["params"] else None
    return coreset, params


def atomic_write_json(path, obj) -> None:
    """Write ``obj`` as JSON to ``path`` atomically (temp + fsync + rename).

    ``os.replace`` is atomic on POSIX within one filesystem, so a concurrent
    reader (or a crash mid-write) sees either the previous checkpoint or the
    new one in full.  The temp file lives next to the target to stay on the
    same filesystem.

    The whole document is encoded with ``json.dumps`` before the temp file
    opens, then written in one call.  ``json.dump`` would stream through
    the pure-Python encoder, ~10x slower on a checkpoint-sized envelope;
    only ``dumps`` takes the C encoder, and the bytes are the same.  An
    unserialisable ``obj`` therefore fails before anything touches disk.
    """
    path = Path(path)
    text = json.dumps(obj, separators=(",", ":"))
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        # fsync the file's data is not enough: the *rename* lives in the
        # directory, and a crash between replace and the directory entry
        # reaching disk can resurrect the old file name with the new one
        # gone.  Sync the parent directory so the swap itself is durable.
        try:
            dfd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dfd)
            finally:
                os.close(dfd)
        except OSError:  # pragma: no cover - fs without directory fsync
            pass
    finally:
        if tmp.exists():
            tmp.unlink()


def read_json(path):
    """Read a JSON file written by :func:`atomic_write_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
