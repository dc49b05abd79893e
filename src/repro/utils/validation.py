"""Input validation helpers and the library-wide FAIL exception.

The paper's algorithms explicitly output ``FAIL`` when internal invariants
(number of heavy cells, estimated part sizes, sketch capacities) are violated
for a given guess ``o`` of the optimal clustering cost.  We mirror that with
:class:`FailedConstruction`, which drivers such as the guess-``o`` enumeration
of Theorem 3.19 catch and interpret as "try the next guess".
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "FailedConstruction",
    "check_points",
    "check_stream_points",
    "check_delta",
    "check_epsilon_eta",
    "check_k",
    "check_o_range",
    "check_signs",
    "check_weights",
    "coerce_integral_rows",
]


class FailedConstruction(RuntimeError):
    """Raised when an algorithm outputs FAIL (paper semantics).

    Carries a ``reason`` string naming the violated check, so ablation
    experiments can distinguish failure modes.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def check_delta(delta: int) -> int:
    """Validate the coordinate range Δ; must be an integer power of two ≥ 2.

    The paper assumes Δ = 2^L without loss of generality (round up otherwise).
    """
    delta = int(delta)
    if delta < 2 or (delta & (delta - 1)) != 0:
        raise ValueError(f"delta must be a power of two >= 2, got {delta}")
    return delta


def check_points(points: np.ndarray, delta: int) -> np.ndarray:
    """Validate a point set Q ⊆ [Δ]^d given as an (n, d) integer array."""
    q = np.asarray(points)
    if q.ndim != 2:
        raise ValueError(f"points must be a 2-D array (n, d), got shape {q.shape}")
    if not np.issubdtype(q.dtype, np.integer):
        raise ValueError(
            "points must be integers in [1, delta]; use repro.grid.discretize "
            f"for real-valued data (got dtype {q.dtype})"
        )
    if q.size and (q.min() < 1 or q.max() > delta):
        raise ValueError(
            f"point coordinates must lie in [1, {delta}], got range "
            f"[{q.min()}, {q.max()}]"
        )
    return q.astype(np.int64, copy=False)


def check_stream_points(points, delta: int, d: int) -> np.ndarray:
    """The stream-row rule: ``points`` as an (n, d) int64 array of
    *encodable* stream points, else ``ValueError``.

    Coordinates go through :func:`coerce_integral_rows` (integral floats
    such as 2.0 pass, 2.7 does not).  The mixed-radix point codec is
    injective exactly on coordinates in [0, Δ] (base Δ+1).  Anything
    outside that window would silently alias to a **different** valid
    point's key and corrupt every downstream sketch, so the streaming and
    service ingest paths reject it before touching any state; so must a
    row without exactly ``d`` coordinates, which would broadcast into
    another point.  (The offline pipeline keeps the paper's stricter
    [1, Δ] domain via :func:`check_points`.)
    """
    q = coerce_integral_rows(points)
    if q.shape[1] != d:
        raise ValueError(f"points must be (n, {d}), got shape {q.shape}")
    if q.size and (q.min() < 0 or q.max() > delta):
        raise ValueError(
            f"point coordinates must lie in [0, {delta}], got range "
            f"[{q.min()}, {q.max()}]"
        )
    return q


def coerce_integral_rows(points) -> np.ndarray:
    """Coerce an (n, d) array-like of coordinates to int64, rejecting
    non-integral values.

    ``np.asarray(..., dtype=np.int64)`` and ``int(c)`` both *truncate*: a
    coordinate like 2.7 (or NaN/inf on some platforms) silently becomes a
    different point, which then aliases to a different key under the
    mixed-radix codec and corrupts every downstream sketch.  Every ingest
    entry point funnels float-bearing input through here instead: integral
    floats (2.0) are accepted, anything else raises ``ValueError`` before
    any state is touched.
    """
    arr = np.asarray(points)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"points must be a 2-D array (n, d), got shape {arr.shape}")
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64, copy=False)
    if arr.dtype == object:
        # Ragged rows or non-numeric entries; re-coerce elementwise so the
        # error names the offender instead of a generic cast failure.
        try:
            arr = arr.astype(np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"point coordinates must be numeric: {exc}") from exc
    if np.issubdtype(arr.dtype, np.floating):
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("point coordinates must be finite (got NaN/inf)")
        floored = np.floor(arr)
        if arr.size and not (floored == arr).all():
            bad = arr[floored != arr].ravel()[0]
            raise ValueError(
                f"point coordinates must be integral, got {bad!r}; round or "
                "discretize real-valued data explicitly (repro.grid.discretize)"
            )
        if arr.size and (np.abs(floored) >= 2.0**63).any():
            # Would overflow the int64 cast (undefined value + RuntimeWarning).
            bad = floored[np.abs(floored) >= 2.0**63].ravel()[0]
            raise ValueError(f"point coordinate {bad!r} out of int64 range")
        return floored.astype(np.int64)
    raise ValueError(f"points must be integers, got dtype {arr.dtype}")


def check_signs(signs, n: int) -> np.ndarray:
    """The sign vector of an ``n``-event batch as int64: 1-D, one integral
    ±1 per row, else ``ValueError`` (an int64 cast would keep 2 and
    truncate 0.5 to 0, which the sketches and counters read differently)."""
    s = np.asarray(signs)
    if s.shape != (n,):
        raise ValueError(
            f"signs must be a 1-D array of {n} values, one per row, got shape {s.shape}")
    if s.dtype.kind not in "biuf":
        raise ValueError(f"signs must be +1 or -1, got dtype {s.dtype}")
    ok = (s == 1) | (s == -1)
    if not ok.all():
        raise ValueError(f"signs must be +1 or -1, got {s[~ok][0].item()!r}")
    return s.astype(np.int64, copy=False)


def check_o_range(o_range) -> tuple[float, float] | None:
    """A guess window as a ``(lo, hi)`` float pair, or ``None``;
    ``ValueError`` unless both ends are finite and 0 ≤ lo ≤ hi."""
    if o_range is None:
        return None
    try:
        lo, hi = (float(x) for x in o_range)
    except (TypeError, ValueError):
        raise ValueError(f"o_range must be a (lo, hi) pair, got {o_range!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
        raise ValueError(f"o_range must be finite with 0 <= lo <= hi, got {o_range!r}")
    return lo, hi


def check_epsilon_eta(eps: float, eta: float) -> tuple[float, float]:
    """Validate ε, η ∈ (0, 0.5) as required by Theorems 1.1-1.3."""
    if not (0.0 < eps < 0.5):
        raise ValueError(f"epsilon must be in (0, 0.5), got {eps}")
    if not (0.0 < eta < 0.5):
        raise ValueError(f"eta must be in (0, 0.5), got {eta}")
    return float(eps), float(eta)


def check_k(k: int) -> int:
    """Validate the number of clusters k ≥ 1."""
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def check_weights(weights: np.ndarray, n: int) -> np.ndarray:
    """Validate a positive weight vector aligned with n points."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},), got {w.shape}")
    if w.size and w.min() <= 0:
        raise ValueError("weights must be strictly positive")
    return w
