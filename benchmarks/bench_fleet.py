"""Fleet benchmark — real multi-process coordinator runs vs. the E7 twin.

Spawns ``s`` real ``repro serve`` site processes per row, feeds each its
partition share over TCP, pulls and merges all site states through the
bit-metered :class:`~repro.distributed.fleet.Coordinator`, and reports:

- ingest throughput (events/s) vs. site count;
- measured uplink/downlink bits on the *real* wire path, side by side
  with :func:`~repro.distributed.fleet.simulate_fleet`'s in-process
  accounting of the identical partition/seed — the Theorem 4.7 check E7
  makes, now validated on real sockets (the two must be equal, and are
  by construction: both charge the same policy functions on sketches
  with identical contents);
- the bit-identity verdicts: merged state and query answer byte-equal to
  a single-process reference fed the same batches.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_fleet.py              # sweep sites
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke      # CI check

``--smoke`` (the CI fleet check, ``make fleet-smoke``) is one 2-site run
with a seeded ``site.kill`` fault plan: site 1 is SIGKILLed mid-run and
recovered from its checkpoint + journal replay, and the final merged
state must still be bit-identical — the acceptance criterion of the
fleet subsystem — and byte-equal to the pulled sites folded in reverse
order.  It prints each site's ``pull_state`` bytes.  Both modes append a
record to ``BENCH_service.json``.
"""

from __future__ import annotations

import argparse
import os
import time

from common import append_bench_record, make_mixture, print_table
from repro.service import ServiceConfig, faults
from repro.service.faults import FaultPlan, FaultRule

#: Site shape: only fields the ``serve`` CLI exposes (spawned sites run
#: the auto-pilot guess schedule; ``o_range`` has no CLI flag).
FLEET_CONFIG = dict(k=3, d=2, delta=64, seed=7, restarts=1)

#: The smoke's failure schedule: kill site 1 after its first acked batch,
#: once — recovery must replay the journal and stay bit-identical.
SMOKE_KILL_PLAN = FaultPlan(
    [FaultRule(point="site.kill", match={"site": 1}, after=1, times=1)],
    seed=3)


def _workload(n: int, delete_fraction: float):
    pts, _ = make_mixture(n, FLEET_CONFIG["d"], FLEET_CONFIG["delta"],
                          FLEET_CONFIG["k"], seed=2)
    return pts, delete_fraction


def run_sweep(site_counts, n: int, delete_fraction: float,
              batch_size: int) -> dict:
    """One run_fleet row per site count, same workload throughout."""
    from repro.distributed.fleet import run_fleet

    pts, frac = _workload(n, delete_fraction)
    rows = []
    for s in site_counts:
        report = run_fleet(ServiceConfig(**FLEET_CONFIG), pts, s,
                           batch_size=batch_size, delete_fraction=frac,
                           checkpoint_every=4)
        rows.append(report)
    return {
        "bench": "distributed fleet sweep",
        "cpu_count": os.cpu_count(),
        "points": int(len(pts)),
        "delete_fraction": frac,
        "rows": [{k: r[k] for k in
                  ("sites", "events", "batches", "events_per_s", "ingest_s",
                   "merge_s", "uplink_bits", "downlink_bits",
                   "sim_uplink_bits", "sim_downlink_bits",
                   "bits_match_simulation", "state_identical",
                   "reverse_fold_identical", "answer_identical",
                   "pull_state_bytes", "passed")} for r in rows],
        "passed": all(r["passed"] for r in rows),
    }


def run_smoke(n: int, batch_size: int) -> dict:
    """The CI fleet check: 2 real sites, one killed mid-run, bit-identity
    asserted after checkpoint + journal-replay recovery."""
    from repro.distributed.fleet import run_fleet

    pts, frac = _workload(n, 0.2)
    faults.install(SMOKE_KILL_PLAN)
    try:
        report = run_fleet(ServiceConfig(**FLEET_CONFIG), pts, 2,
                           batch_size=batch_size, delete_fraction=frac,
                           checkpoint_every=2)
    finally:
        faults.uninstall()
    report["bench"] = "distributed fleet smoke (site kill + recovery)"
    report["passed"] = bool(report["passed"] and report["recoveries"] >= 1
                            and report["restarts"] >= 1)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="one 2-site run with an injected site kill "
                             "(the CI fleet check)")
    parser.add_argument("--sites", default="1,2,3",
                        help="comma-separated site counts for the sweep")
    parser.add_argument("--n", type=int, default=None,
                        help="points in the workload (default: 1500, "
                             "smoke: 400)")
    parser.add_argument("--delete-fraction", type=float, default=0.2)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo-root "
                             "BENCH_service.json; runs append)")
    args = parser.parse_args(argv)

    if args.smoke:
        report = run_smoke(args.n or 400, args.batch_size)
        print_table(
            f"{report['bench']}: recoveries={report['recoveries']} "
            f"restarts={report['restarts']}",
            ["sites", "events", "events/s", "up bits", "sim up", "down bits",
             "state==", "reverse==", "answer==", "bits==sim", "passed"],
            [[report["sites"], report["events"], report["events_per_s"],
              report["uplink_bits"], report["sim_uplink_bits"],
              report["downlink_bits"], report["state_identical"],
              report["reverse_fold_identical"], report["answer_identical"],
              report["bits_match_simulation"], report["passed"]]],
        )
        for j, size in enumerate(report["pull_state_bytes"]):
            print(f"site {j}: pull_state envelope {size} bytes")
    else:
        counts = [int(t) for t in args.sites.split(",") if t.strip()]
        report = run_sweep(counts, args.n or 1500, args.delete_fraction,
                           args.batch_size)
        print_table(
            "distributed fleet: events/s and wire bits vs. site count",
            ["sites", "events", "events/s", "ingest s", "merge s",
             "up bits", "sim up", "down bits", "sim down", "passed"],
            [[r["sites"], r["events"], r["events_per_s"], r["ingest_s"],
              r["merge_s"], r["uplink_bits"], r["sim_uplink_bits"],
              r["downlink_bits"], r["sim_downlink_bits"], r["passed"]]
             for r in report["rows"]],
        )
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    out = append_bench_record(report, out=args.out)
    print(f"appended record to {out}")
    if not report["passed"]:
        raise SystemExit("FAIL: fleet run diverged from the single-process "
                         "reference or the simulated bit accounting")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
