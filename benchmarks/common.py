"""Shared helpers for the experiment benchmarks (E1-E9).

Each bench prints the rows of its table / the series of its figure using
:func:`print_table`, so `pytest benchmarks/ --benchmark-only -s` regenerates
the full evaluation.  DESIGN.md maps experiments to modules; EXPERIMENTS.md
records claim-vs-measured.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from repro.core import CoresetParams, build_coreset_auto
from repro.data.synthetic import gaussian_mixture, unbalanced_mixture
from repro.solvers.kmeanspp import kmeans_plusplus

__all__ = [
    "print_table",
    "append_bench_record",
    "make_mixture",
    "make_unbalanced",
    "standard_params",
    "build_standard_coreset",
    "center_battery",
]


def _git_sha() -> str | None:
    """Commit of the ``repro`` sources under test, suffixed ``-dirty`` when
    the checkout has uncommitted changes; ``None`` without git."""
    import repro

    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40",
             "--exclude=*"],
            cwd=Path(repro.__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def host_metadata() -> dict:
    """What a later run needs to reproduce a record: host and versions."""
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def append_bench_record(record: dict, out=None) -> Path:
    """Append one run record to ``BENCH_service.json`` (repo root).

    The file holds ``{"format": 2, "runs": [...]}`` so successive bench
    invocations accumulate a history instead of clobbering each other; a
    pre-format-2 file (one bare run dict) is absorbed as the first run.
    Every record is stamped with :func:`host_metadata` (keys the record
    already sets win).
    """
    record = {**host_metadata(), **record}
    out = (Path(out) if out is not None
           else Path(__file__).resolve().parents[1] / "BENCH_service.json")
    doc = {"format": 2, "runs": []}
    if out.exists():
        try:
            existing = json.loads(out.read_text())
        except json.JSONDecodeError:
            existing = None
        if isinstance(existing, dict) and existing.get("format") == 2 \
                and isinstance(existing.get("runs"), list):
            doc = existing
        elif isinstance(existing, dict):
            doc["runs"].append(existing)
    doc["runs"].append(record)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return out


def print_table(title: str, header: list, rows: list) -> None:
    """Render one experiment table to stdout."""
    widths = [max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
              for i, h in enumerate(header)]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
    print()


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0 or (1e-3 < abs(v) < 1e5):
            return f"{v:.3f}"
        return f"{v:.3g}"
    return str(v)


def make_mixture(n: int, d: int, delta: int, k: int, seed: int = 0,
                 spread: float = 0.02):
    """Deduplicated balanced mixture + planted means."""
    pts, means, _ = gaussian_mixture(n, d, delta, k, spread=spread, seed=seed,
                                     return_truth=True)
    return np.unique(pts, axis=0), means.astype(float)


def make_unbalanced(n: int, d: int, delta: int, k: int, imbalance: float = 8.0,
                    seed: int = 0):
    pts, means, _ = unbalanced_mixture(n, d, delta, k, imbalance=imbalance,
                                       spread=0.02, seed=seed, return_truth=True)
    return np.unique(pts, axis=0), means.astype(float)


def standard_params(k: int, d: int, delta: int, eps: float = 0.25,
                    eta: float = 0.25, r: float = 2.0) -> CoresetParams:
    return CoresetParams.practical(k=k, d=d, delta=delta, eps=eps, eta=eta, r=r)


def build_standard_coreset(pts, params, seed: int = 7):
    """Pilot-guided construction (the default pipeline)."""
    return build_coreset_auto(pts, params, seed=seed)


def center_battery(pts, means, k: int, r: float = 2.0, seed: int = 3,
                   extra_random: int = 1):
    """Adversarial center sets: planted optimum, k-means++ seeds, random."""
    rng = np.random.default_rng(seed)
    out = [means[:k]] if means is not None and len(means) >= k else []
    out.append(kmeans_plusplus(pts.astype(float), k, r=r, seed=seed))
    delta = int(pts.max())
    for _ in range(extra_random):
        out.append(rng.integers(1, delta + 1, size=(k, pts.shape[1])).astype(float))
    return out
