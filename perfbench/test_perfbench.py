"""Tests of the benchmark's own arithmetic.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import statistics
import types

import pytest

import spans
from quantiles import (
    MIN_BEYOND,
    TooFewSamples,
    median,
    percentile,
    quartile_spread,
)


# ------------------------------------------------------------- percentiles
def test_p90_refused_with_fewer_than_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(range(99), 90)          # 9.9 samples beyond
    assert percentile(range(100), 90) == pytest.approx(89.1)


def test_tail_rule_scales_with_the_percentile():
    with pytest.raises(TooFewSamples):
        percentile(range(999), 99)
    assert percentile(range(1000), 99) == pytest.approx(989.01)
    assert percentile(range(20), 50) == pytest.approx(9.5)
    assert MIN_BEYOND == 10


def test_median_needs_a_sample_and_keeps_failures_visible():
    with pytest.raises(TooFewSamples):
        median([])
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, math.inf, math.inf]) == math.inf


def test_quartile_spread_matches_statistics_quantiles():
    vals = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.5, 9.8]
    q1, q2, q3, spread = quartile_spread(vals)
    assert [q1, q2, q3] == statistics.quantiles(vals, n=4)
    assert spread == pytest.approx((q3 - q1) / q2)


# --------------------------------------------------------------- self time
def _span(sid, name, start, end, parent=None, leaves=None, failed=False):
    return {"sid": sid, "name": name, "start": start, "end": end,
            "parent": parent, "rid": 1, "leaves": leaves or {},
            "failed": failed}


def test_self_time_of_nested_spans_and_leaves():
    spans_ = [
        _span(1, "root", 0, 100),
        _span(2, "a", 10, 40, parent=1, leaves={"leaf": [5, 3, 0]}),
        _span(3, "b", 50, 80, parent=1),
        _span(4, "c", 15, 20, parent=2),
    ]
    table = spans.self_times(spans_)
    assert table["root"]["self_ns"] == 100 - 30 - 30
    assert table["a"]["self_ns"] == 30 - 5 - 5
    assert table["b"]["self_ns"] == 30
    assert table["c"]["self_ns"] == 5
    assert table["leaf"] == {"self_ns": 5, "count": 3, "failed": 0, "units": 0}
    # Without overlaps, self times partition the root exactly.
    assert sum(r["self_ns"] for r in table.values()) == 100


def test_overlapping_children_are_subtracted_once():
    table = spans.self_times([
        _span(1, "root", 0, 100),
        _span(2, "a", 10, 40, parent=1),
        _span(3, "a", 30, 60, parent=1),
        _span(4, "b", 90, 120, parent=1),   # clipped to the parent at 100
    ])
    assert table["root"]["self_ns"] == 100 - 50 - 10
    assert table["a"]["count"] == 2


def test_remote_roots_attach_to_the_round_trip_that_contains_them():
    local = [_span(("c", 1), "op", 0, 100),
             _span(("c", 2), "wire.wait", 10, 90, parent=("c", 1))]
    remote = [_span(("s", 1), "dispatch", 20, 70),
              _span(("s", 2), "inner", 30, 60, parent=("s", 1)),
              _span(("s", 3), "outside", 95, 99)]
    merged, dropped = spans.attach_remote(local, remote, "wire.wait")
    assert dropped == 1
    table = spans.self_times(merged)
    assert table["wire.wait"]["self_ns"] == 80 - 50
    assert table["dispatch"]["self_ns"] == 50 - 30
    assert sum(r["self_ns"] for r in table.values()) == 100


# ------------------------------------------------------------ layer sums
def test_layer_sum_check_against_traced_wall_time():
    table = {"a": {"self_ns": 60}, "b": {"self_ns": 35}}
    assert spans.coverage(table, 100) == pytest.approx(0.95)
    assert spans.within_tolerance(spans.coverage(table, 100))
    assert not spans.within_tolerance(spans.coverage(table, 120))
    assert not spans.within_tolerance(spans.coverage(table, 80))
    assert spans.coverage(table, 0) == 0.0


def test_recorded_spans_sum_to_the_root_wall_time():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1

    def inner(x):
        return sum(mod.leaf(i) for i in range(x))

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    rec = spans.Recorder(enabled=True)
    rec.wrap(mod, "leaf", "leaf", leaf=True, units=lambda out: 1)
    rec.wrap(mod, "inner", "inner")
    rec.wrap(mod, "outer", "outer")
    assert mod.outer(50) == 2 * sum(range(1, 51))
    rows = spans.rows_to_dicts(rec.rows(), "t")
    root = next(r for r in rows if r["name"] == "outer")
    table = spans.self_times(rows)
    assert table["inner"]["count"] == 2
    assert table["leaf"]["count"] == 100 and table["leaf"]["units"] == 100
    total = sum(r["self_ns"] for r in table.values())
    assert total == root["end"] - root["start"]


def test_disabled_recorder_records_nothing():
    mod = types.SimpleNamespace(f=lambda: 7)
    rec = spans.Recorder(enabled=False)
    rec.wrap(mod, "f", "f")
    assert mod.f() == 7 and rec.rows() == []


# ------------------------------------------------------ declared metrics
def test_reported_metrics_match_benchmark_json():
    import layers
    import run
    from workloads import Outcome

    declared = run.declared()
    per_layer = layers.layer_metrics({}, wall_ns=1, ratio=1.0, extra={})
    assert list(per_layer) == [m["name"] for m in declared["per_layer"]]
    out = Outcome(setup_s=[1.0], ingest_s=[0.5], ingest_events=10,
                  query_s=[0.2], answer_cost_ratio=1.0, state_bytes=2 ** 20,
                  server_rss_mb=50.0)
    e2e, _ = run.end_to_end(out)
    assert list(e2e) == [m["name"] for m in declared["end_to_end"]]
