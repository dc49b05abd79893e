"""Service benchmark — ingest and query-cache latency.

The numbers every later scaling change moves: (a) per-batch ingest
latency, (b) cold (copy + decode + solve) vs cached query latency, and
(c) checkpoint write/restore time.  Process parallelism is the fleet's and
is measured by ``bench_fleet.py``.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke

which runs an ingest/query latency percentile pass (p50/p95/p99), the
scalar-vs-batched ingest check (fails unless the two states are
bit-identical), the fold check (fails unless 4 drivers fed disjoint
parts of the stream fold to the bytes of one driver fed all of it, on the
exact and the sketch backend, and the merged pilot samples like the scalar
peel) and the solve check (fails unless the exact transportation solve
matches HiGHS's cost within 1e-9 relative with a feasible flow), and
**appends** the records to ``BENCH_service.json`` at
the repo root (``make bench-smoke``) — runs accumulate as a history rather
than overwriting each other.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from common import append_bench_record, make_mixture, print_table
from repro.core import CoresetParams
from repro.data.workloads import churn_stream
from repro.service import ClusteringService, ServiceConfig
from repro.solvers.pilot import estimate_opt_cost
from repro.streaming import materialize


def _workload(n: int = 4000, delta: int = 1024, seed: int = 3):
    pts, _ = make_mixture(n, 2, delta, 3, seed=seed)
    stream = churn_stream(pts, delete_fraction=0.3, seed=seed)
    survivors = materialize(stream, d=2)
    pilot = estimate_opt_cost(survivors, 3, r=2.0, seed=seed)
    return stream, survivors, pilot


def _canonical(state_dict: dict) -> str:
    return json.dumps(state_dict, sort_keys=True)


def run_scalar_vs_batched(n: int = 4000, delta: int = 1024,
                          batch: int = 1024, seed: int = 3) -> dict:
    """Per-event reference ingest vs vectorized ``update_batch``.

    The reference is ``scalar_ingest`` from ``tests/scalar_oracle.py``.
    The batched path is only allowed to exist because it is bit-identical
    to it — this pass re-checks that on the bench workload (checkpoint
    bytes compared) while timing both, and records the speedup ratio so a
    regression that quietly falls back to per-event work shows up in the
    bench history.
    """
    params = CoresetParams.practical(k=3, d=2, delta=delta)
    stream, _, pilot = _workload(n=n, delta=delta, seed=seed)
    orange = (pilot / 16, pilot / 4)
    events = list(stream)

    from repro.service.state import streaming_state_to_dict
    from repro.streaming.streaming_coreset import StreamingCoreset

    repo_root = str(Path(__file__).resolve().parents[1])
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)
    from tests.scalar_oracle import scalar_ingest

    scalar = StreamingCoreset(params, seed=9, backend="exact", o_range=orange)
    t0 = time.perf_counter()
    scalar_ingest(scalar, events)
    scalar_s = time.perf_counter() - t0

    batched = StreamingCoreset(params, seed=9, backend="exact", o_range=orange)
    t0 = time.perf_counter()
    for lo in range(0, len(events), batch):
        batched.update_batch(events[lo: lo + batch])
    batched_s = time.perf_counter() - t0

    identical = (_canonical(streaming_state_to_dict(scalar))
                 == _canonical(streaming_state_to_dict(batched)))
    return {
        "bench": "scalar vs batched ingest",
        "n_points": n,
        "delta": delta,
        "batch": batch,
        "events": len(events),
        "scalar_s": round(scalar_s, 3),
        "batched_s": round(batched_s, 3),
        "scalar_eps": int(len(events) / max(scalar_s, 1e-9)),
        "batched_eps": int(len(events) / max(batched_s, 1e-9)),
        "scalar_vs_batched": round(scalar_s / max(batched_s, 1e-9), 2),
        "bit_identical": identical,
    }


def _fed_drivers(make, events, batch: int, num_drivers: int):
    """``num_drivers`` drivers fed disjoint parts of ``events`` (event
    ``i`` to driver ``i mod num_drivers``) and one driver fed all of it."""
    drivers = [make() for _ in range(num_drivers)]
    single = make()
    for lo in range(0, len(events), batch):
        chunk = events[lo: lo + batch]
        for j, driver in enumerate(drivers):
            driver.update_batch(chunk[j::num_drivers])
        single.update_batch(chunk)
    return drivers, single


def run_fold_identity(n: int = 1500, delta: int = 256, batch: int = 512,
                      num_drivers: int = 4, seed: int = 3, repeats: int = 5,
                      sketch_n: int = 300) -> dict:
    """The linear fold of drivers and the ℓ₀ pilot peel, checked and timed.

    ``num_drivers`` drivers fed disjoint parts of the stream (event ``i``
    to driver ``i mod num_drivers``, so most deletions land in another
    driver than their insertions) and folded by
    :func:`merge_streaming_states` — what a fleet coordinator and a
    multi-shard restore do — must equal one driver fed the whole stream
    byte for byte, the Storing state and the pilot sketches alike (IBLT
    rows are written in bucket-position order, so it does not matter which
    driver touched a bucket first).  The same holds for sketch-backend
    drivers on a ``sketch_n``-point stream with a two-guess window (cell
    IBLTs and the nested point sketches folded).  The merged pilot's
    ``sample()`` must equal the key-at-a-time peel of
    ``tests/scalar_oracle.py``.
    """
    from repro.service.state import streaming_state_to_dict
    from repro.streaming.merge import merge_streaming_states
    from repro.streaming.streaming_coreset import StreamingCoreset

    repo_root = str(Path(__file__).resolve().parents[1])
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)
    from tests.scalar_oracle import scalar_sample

    params = CoresetParams.practical(k=3, d=2, delta=delta)
    stream, _, _ = _workload(n=n, delta=delta, seed=seed)
    events = list(stream)
    drivers, single = _fed_drivers(lambda: StreamingCoreset(params, seed=9),
                                   events, batch, num_drivers)
    fold_s = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        merged = merge_streaming_states(drivers[0].copy(), *drivers[1:])
        fold_s.append(time.perf_counter() - t0)

    sketch_stream, _, pilot = _workload(n=sketch_n, delta=delta, seed=seed)
    sketch_events = list(sketch_stream)
    sketches, sketch_single = _fed_drivers(
        lambda: StreamingCoreset(params, seed=9, backend="sketch",
                                 o_range=(pilot / 8, pilot / 4)),
        sketch_events, batch, num_drivers)
    t0 = time.perf_counter()
    sketch_merged = merge_streaming_states(sketches[0].copy(), *sketches[1:])
    sketch_fold_s = time.perf_counter() - t0

    sampler = merged._pilot_sampler
    t0 = time.perf_counter()
    sample = sampler.sample()
    sample_s = time.perf_counter() - t0
    return {
        "bench": "driver fold and pilot peel identity",
        "n_points": n,
        "delta": delta,
        "batch": batch,
        "events": len(events),
        "drivers": num_drivers,
        "fold_ms": round(float(np.median(fold_s)) * 1e3, 3),
        "sample_ms": round(sample_s * 1e3, 3),
        "fold_identical": (_canonical(streaming_state_to_dict(merged))
                           == _canonical(streaming_state_to_dict(single))),
        "sketch_events": len(sketch_events),
        "sketch_fold_ms": round(sketch_fold_s * 1e3, 3),
        "sketch_fold_identical": (
            _canonical(streaming_state_to_dict(sketch_merged))
            == _canonical(streaming_state_to_dict(sketch_single))),
        "peel_identical": sample == scalar_sample(sampler),
    }


def run_solve_identity(n: int = 1500, delta: int = 256, batch: int = 512,
                       seed: int = 3, slack: float = 1.2,
                       repeats: int = 5) -> dict:
    """The exact transportation solve (``auto``) checked against the HiGHS
    oracle (``_solve_transportation_lp``) and timed.

    On the coreset of the smoke stream, at k-means++ centers (many
    pushes) and at the centers a :class:`CapacitatedKClustering` fit
    converges to (few), the ``auto`` flow must fit the capacities and
    reach HiGHS's fractional cost within 1e-9 relative.
    """
    from repro.assignment.capacitated import (
        _solve_transportation_lp, _solve_transportation_ssp, capacitated_assignment)
    from repro.metrics.distances import pairwise_power_distances
    from repro.solvers.capacitated_lloyd import CapacitatedKClustering
    from repro.solvers.kmeanspp import kmeans_plusplus
    from repro.streaming.streaming_coreset import StreamingCoreset

    k = 3
    params = CoresetParams.practical(k=k, d=2, delta=delta)
    stream, _, _ = _workload(n=n, delta=delta, seed=seed)
    events = list(stream)
    driver = StreamingCoreset(params, seed=9)
    for lo in range(0, len(events), batch):
        driver.update_batch(events[lo: lo + batch])
    coreset = driver.finalize()
    pts, w = coreset.points.astype(float), coreset.weights
    cap = coreset.total_weight / k * slack
    centers = {
        "kmeans++": kmeans_plusplus(pts, k, weights=w, seed=seed),
        "converged": CapacitatedKClustering(k, cap, seed=seed).fit(pts, w).centers,
    }

    def auto_cost(ctr):
        return capacitated_assignment(pts, ctr, cap, weights=w,
                                      integral=False).fractional_cost

    def lp_cost(ctr):
        D = pairwise_power_distances(pts, ctr, 2.0)
        return float((D * _solve_transportation_lp(D, w, np.full(k, cap))).sum())

    def median_ms(solve, ctr):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            cost = solve(ctr)
            times.append(time.perf_counter() - t0)
        return round(float(np.median(times)) * 1e3, 3), cost

    record = {"bench": "exact solve vs HiGHS", "n_points": n, "delta": delta,
              "coreset": len(pts), "k": k, "slack": slack, "auto_ms": {},
              "lp_ms": {}, "pushes": {}, "cost_gap": {}, "feasible": True}
    for name, ctr in centers.items():
        X, pushes = _solve_transportation_ssp(pairwise_power_distances(pts, ctr, 2.0),
                                              w, np.full(k, cap))
        record["feasible"] &= bool(
            (X >= 0).all() and np.allclose(X.sum(axis=1), w, rtol=1e-9)
            and (X.sum(axis=0) <= cap * (1 + 1e-9)).all())
        record["auto_ms"][name], auto = median_ms(auto_cost, ctr)
        record["lp_ms"][name], lp = median_ms(lp_cost, ctr)
        record["pushes"][name] = pushes
        record["cost_gap"][name] = abs(auto - lp) / lp
    return record


def _percentiles(samples_s: list[float]) -> dict:
    """p50/p95/p99 of a latency sample, in milliseconds."""
    ms = np.asarray(samples_s) * 1e3
    return {p: round(float(np.percentile(ms, q)), 3)
            for p, q in (("p50", 50), ("p95", 95), ("p99", 99))}


def run_latency_percentiles(n: int = 3000, delta: int = 256,
                            batch: int = 256, queries: int = 12,
                            seed: int = 3) -> dict:
    """Tail-latency profile of one service: per-batch ingest, cold query
    (copy + assemble + solve after an invalidating ingest) and cached
    query (version-keyed memo hit).  Tails, not means — the p99 is what a
    caller sharing the server actually waits."""
    stream, _, pilot = _workload(n=n, delta=delta, seed=seed)
    events = list(stream)
    config = ServiceConfig(k=3, d=2, delta=delta, seed=9,
                           o_range=(pilot / 16, pilot / 4))
    svc = ClusteringService(config)
    try:
        ingest_s = []
        for lo in range(0, len(events), batch):
            t0 = time.perf_counter()
            svc.apply_events(events[lo: lo + batch])
            ingest_s.append(time.perf_counter() - t0)
        cold_s, cached_s = [], []
        probe = np.asarray([[1, 1]])
        for _ in range(queries):
            svc.insert(probe)  # bump the version: next query is a miss
            t0 = time.perf_counter()
            _, hit = svc.query()
            cold_s.append(time.perf_counter() - t0)
            assert not hit
            t0 = time.perf_counter()
            _, hit = svc.query()
            cached_s.append(time.perf_counter() - t0)
            assert hit
        return {
            "bench": "service latency percentiles",
            "n_points": n,
            "delta": delta,
            "batch": batch,
            "events": len(events) + queries,
            "queries": queries,
            "ingest_batch_ms": _percentiles(ingest_s),
            "query_cold_ms": _percentiles(cold_s),
            "query_cached_ms": _percentiles(cached_s),
        }
    finally:
        svc.close()


def _latency_rows(report: dict) -> list[list]:
    return [[name, report[key]["p50"], report[key]["p95"], report[key]["p99"]]
            for name, key in (("ingest batch", "ingest_batch_ms"),
                              ("query cold", "query_cold_ms"),
                              ("query cached", "query_cached_ms"))]


@pytest.mark.benchmark(group="service")
def test_service_latency_percentiles(benchmark):
    """Ingest/query tail latency; the cached-query tail must stay far below
    the cold-solve median."""
    report = run_latency_percentiles(n=2000, queries=8)
    print_table(
        f"service: latency percentiles (ms; batch={report['batch']}, "
        f"{report['events']} events)",
        ["path", "p50", "p95", "p99"],
        _latency_rows(report),
    )
    assert report["query_cached_ms"]["p99"] < report["query_cold_ms"]["p50"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.benchmark(group="service")
def test_service_query_cache_latency(benchmark):
    """Cold query (copy + assemble + solve) vs memoized repeat query."""
    stream, survivors, pilot = _workload(n=3000)
    config = ServiceConfig(k=3, d=2, delta=1024, seed=9,
                           o_range=(pilot / 16, pilot / 4))
    svc = ClusteringService(config)
    svc.apply_events(stream)

    t0 = time.time()
    cold, hit_cold = svc.query()
    cold_s = time.time() - t0
    t0 = time.time()
    warm, hit_warm = svc.query()
    warm_s = time.time() - t0
    assert not hit_cold and hit_warm

    t0 = time.time()
    info = svc.checkpoint("/tmp/bench_service.ckpt.json")
    ckpt_s = time.time() - t0
    t0 = time.time()
    ClusteringService.restore("/tmp/bench_service.ckpt.json")
    restore_s = time.time() - t0

    print_table(
        "service: query & checkpoint latency",
        ["events", "|Q'|", "cold query s", "cached query s", "speedup",
         "checkpoint s", "restore s"],
        [[info["events"], cold.coreset_size, round(cold_s, 3),
          round(warm_s, 6), int(cold_s / max(warm_s, 1e-9)),
          round(ckpt_s, 3), round(restore_s, 3)]],
    )
    # The memoized path must be orders of magnitude below a fresh solve.
    assert warm_s < cold_s / 10
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _smoke(argv=None) -> dict:
    """Reduced sizes for CI: small stream, appended JSON records."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes + append to BENCH_service.json")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo-root "
                             "BENCH_service.json; runs append)")
    args = parser.parse_args(argv)
    if args.smoke:
        n = args.n or 1500
        delta, batch, queries = 256, 512, 6
    else:
        n = args.n or 4000
        delta, batch, queries = 1024, 1024, 12
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    latency = run_latency_percentiles(n=n, delta=delta,
                                      batch=batch, queries=queries)
    latency["timestamp"] = stamp
    vector = run_scalar_vs_batched(n=n, delta=delta, batch=batch)
    vector["timestamp"] = stamp
    fold = run_fold_identity(n=n, delta=delta, batch=batch)
    fold["timestamp"] = stamp
    solve = run_solve_identity(n=n, delta=delta, batch=batch)
    solve["timestamp"] = stamp
    out = append_bench_record(latency, out=args.out)
    append_bench_record(vector, out=args.out)
    append_bench_record(fold, out=args.out)
    append_bench_record(solve, out=args.out)
    print_table(
        f"service: latency percentiles (ms; batch={latency['batch']}) -> {out}",
        ["path", "p50", "p95", "p99"],
        _latency_rows(latency),
    )
    print_table(
        f"service: scalar vs batched ingest (batch={vector['batch']})",
        ["events", "scalar ev/s", "batched ev/s", "speedup", "bit-identical"],
        [[vector["events"], vector["scalar_eps"], vector["batched_eps"],
          vector["scalar_vs_batched"], vector["bit_identical"]]],
    )
    print_table(
        f"service: {fold['drivers']}-driver fold vs one driver",
        ["backend", "events", "fold ms", "sample ms", "fold identical",
         "peel identical"],
        [["exact", fold["events"], fold["fold_ms"], fold["sample_ms"],
          fold["fold_identical"], fold["peel_identical"]],
         ["sketch", fold["sketch_events"], fold["sketch_fold_ms"], "-",
          fold["sketch_fold_identical"], "-"]],
    )
    print_table(
        f"service: exact solve vs HiGHS ({solve['coreset']}-point merged coreset)",
        ["centers", "auto ms", "lp ms", "pushes", "cost gap"],
        [[name, solve["auto_ms"][name], solve["lp_ms"][name],
          solve["pushes"][name], f"{solve['cost_gap'][name]:.1e}"]
         for name in solve["auto_ms"]],
    )
    if not vector["bit_identical"]:
        raise SystemExit("FAIL: batched ingest state diverged from scalar")
    if not fold["fold_identical"]:
        raise SystemExit("FAIL: driver fold diverged from the one-driver state")
    if not fold["sketch_fold_identical"]:
        raise SystemExit("FAIL: sketch driver fold diverged from the one-driver state")
    if not fold["peel_identical"]:
        raise SystemExit("FAIL: pilot sample diverged from the scalar peel")
    if not solve["feasible"]:
        raise SystemExit("FAIL: the exact solve's flow is infeasible")
    if max(solve["cost_gap"].values()) > 1e-9:
        raise SystemExit(f"FAIL: exact solve cost differs from HiGHS "
                         f"({solve['cost_gap']})")
    if vector["scalar_vs_batched"] < 1.0:
        raise SystemExit(
            f"FAIL: batched ingest slower than scalar "
            f"({vector['batched_eps']} vs {vector['scalar_eps']} ev/s)")
    return vector


if __name__ == "__main__":
    _smoke()
