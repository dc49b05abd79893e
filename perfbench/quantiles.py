"""Order statistics for the benchmark: medians, tail percentiles, spreads.

A tail percentile is only trusted when enough samples lie beyond it:
``percentile`` refuses one with fewer than ``MIN_BEYOND`` samples above it,
so a run either reports a p90 backed by at least ten slower samples or
omits it.  The median is always reported, together with its sample count.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a tail percentile before it is reported.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, q: float) -> float:
    """Expected number of samples above the ``q``-th percentile of ``n``."""
    return n * (100.0 - q) / 100.0


def _interpolate(ordered: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[lo] == ordered[hi]:  # also keeps inf samples from making nan
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    """Median of a non-empty sample (a failed operation enters as ``inf``)."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise TooFewSamples("median of an empty sample")
    return _interpolate(vals, 50.0)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) of ``values``.

    Raises :class:`TooFewSamples` for a tail percentile (q > 50) with fewer
    than :data:`MIN_BEYOND` samples beyond it.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    vals = sorted(float(v) for v in values)
    if not vals:
        raise TooFewSamples("percentile of an empty sample")
    if q > 50.0 and samples_beyond(len(vals), q) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(vals)} samples give {samples_beyond(len(vals), q):.1f}")
    return _interpolate(vals, q)


def quartile_spread(values) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the acceptance check
    computes it, with :func:`statistics.quantiles` (exclusive method)."""
    vals = [float(v) for v in values]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    spread = (q3 - q1) / q2 if q2 else math.inf
    return q1, q2, q3, spread
