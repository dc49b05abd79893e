"""Benchmark of the stock ``repro serve``: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest_churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload query_cold --report 5      # steadiness
    python3 perfbench/run.py --workload fleet_rounds --report 5 --overhead

A run prints every metric by name and unit, a ``RECORD`` line (host
metadata, steadiness controls, samples, checks) and, as its last line, the
result object: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.  ``--report N`` runs the workload N times (seeds
``--seed`` .. ``--seed + N - 1``) in fresh processes and prints each
end-to-end metric's median, quartiles and (q3 - q1) / median beside its
bound; ``--overhead`` adds traced runs and prints traced / untraced
medians.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _pin_environment() -> None:
    """Re-execute under the pinned environment before numpy loads, so the
    generator runs with the same hash seed and thread counts as servers."""
    from serverproc import PINNED_ENV

    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    _pin_environment()
    sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402
from quantiles import TooFewSamples, median, percentile, quartile_spread  # noqa: E402
from serverproc import PINNED_ENV  # noqa: E402

BENCHMARK_JSON = Path(ROOT) / "BENCHMARK.json"
#: End-to-end metrics fixed by the seed alone (with uplink_mbit on the fleet).
DETERMINISTIC = ("answer_cost_ratio", "state_mb")


def host_metadata() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha}


def declared() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(out) -> tuple[dict, dict]:
    """The declared end-to-end metrics, plus workload-specific extras
    (tail percentiles where the sample supports them, merge time, uplink
    bits) that are printed but not part of the result object."""
    ingest_ok = [t for t in out.ingest_s if math.isfinite(t)]
    metrics = {
        "setup_s": median(out.setup_s),
        "ingest_eps": out.ingest_events / sum(ingest_ok) if ingest_ok else 0.0,
        "ingest_p50_ms": 1e3 * median(out.ingest_s),
        "query_p50_ms": 1e3 * median(out.query_s),
        "answer_cost_ratio": out.answer_cost_ratio,
        "state_mb": out.state_bytes / 2 ** 20,
        "server_rss_mb": out.server_rss_mb,
    }
    extras = {}
    for name, sample in (("ingest_p90_ms", out.ingest_s),
                         ("query_p90_ms", out.query_s)):
        try:
            extras[name] = (1e3 * percentile(sample, 90), "ms")
        except TooFewSamples as exc:
            extras[name] = (None, f"omitted: {exc}")
    if out.merge_s:
        extras["merge_p50_ms"] = (1e3 * median(out.merge_s), "ms")
    if out.uplink_bits is not None:
        extras["uplink_mbit"] = (out.uplink_bits / 1e6, "Mbit")
    return metrics, extras


def per_layer(ctx, out) -> tuple[dict, dict]:
    """Layer metrics from the client spans and every server's span file."""
    client = spans.rows_to_dicts(ctx.rec.rows(), "client")
    server = []
    for path in sorted(ctx.spans_dir.glob("spans-*.json")):
        with open(path, encoding="utf-8") as fh:
            server += spans.rows_to_dicts(json.load(fh), path.stem)
    merged, dropped = spans.attach_remote(client, server, layers.WIRE)
    table = spans.self_times(merged)
    ratio = spans.coverage(table, out.wall_ns)
    frame_bytes = sum(s["leaves"].get("client.encode", (0, 0, 0))[2]
                      for s in client if s["rid"] in out.ingest_rids)
    extra = dict(out.layer_extra, ingest_events=out.ingest_events,
                 ingest_frame_bytes=frame_bytes)
    metrics = layers.layer_metrics(table, wall_ns=out.wall_ns, ratio=ratio,
                                   extra=extra)
    info = {"server_span_files": len(list(ctx.spans_dir.glob("spans-*.json"))),
            "spans": len(merged), "untimed_server_roots": dropped,
            "layer_sum_within_10pct": spans.within_tolerance(ratio)}
    return metrics, info


def run_once(args) -> int:
    from workloads import WORKLOADS, Context, cleanup

    decl = declared()
    work = Path(ROOT) / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    ctx = Context(root=Path(ROOT), seed=args.seed, seconds=args.seconds,
                  traced=bool(args.trace), work=work)
    try:
        ctx.spans_dir.mkdir(parents=True, exist_ok=True)
        if ctx.traced:
            ctx.rec = spans.Recorder(enabled=False)
            layers.install_client_side(ctx.rec)
            layers.install_common(ctx.rec)
        out = WORKLOADS[args.workload](ctx)
        e2e, extras = end_to_end(out)
        checks = dict(out.checks)
        checks["generator_single_threaded"] = out.generator_threads == 1
        layer_vals, trace_info = ({}, {})
        if ctx.traced:
            layer_vals, trace_info = per_layer(ctx, out)
            checks["layer_sum_within_10pct"] = trace_info["layer_sum_within_10pct"]
    finally:
        cleanup(work)
    correct = all(checks.values()) and out.failed == 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    units = {m["name"]: m["unit"] for m in decl["end_to_end"] + decl["per_layer"]}
    for name, value in e2e.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for name, (value, unit) in extras.items():
        print(f"  {name:<28} {value:>14.6g} {unit}" if value is not None
              else f"  {name:<28} {'-':>14} ({unit})")
    print(f"  samples: ingest {len(out.ingest_s)}, query {len(out.query_s)}, "
          f"merge {len(out.merge_s)}, setup {len(out.setup_s)}")
    for name, value in layer_vals.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_metadata(),
        "controls": {"fresh_server_per_run": True, "env_pins": PINNED_ENV,
                     "setup_repeats": len(out.setup_s),
                     "warmup_query_in_setup": args.workload == "query_cold",
                     "generator_threads": out.generator_threads},
        "end_to_end": e2e,
        "extras": {k: v[0] for k, v in extras.items()},
        "samples": {"setup_s": out.setup_s, "ingest_s": out.ingest_s,
                    "query_s": out.query_s, "merge_s": out.merge_s},
        "checks": checks, "per_layer": layer_vals, "trace_info": trace_info,
    }
    print("RECORD " + json.dumps(record, default=str))
    names = [m["name"] for m in decl["per_layer" if args.trace else "end_to_end"]]
    values = layer_vals if args.trace else e2e
    result = {"correct": bool(correct), "attempted": out.attempted,
              "failed": out.failed,
              "metrics": {n: {"value": _number(values[n]), "unit": units[n]}
                          for n in names}}
    print(json.dumps(result), flush=True)
    return 0


def _number(value):
    value = float(value)
    return value if math.isfinite(value) else None


# ------------------------------------------------------------------ report
def _spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run failed (seed {seed}):\n{proc.stderr[-2000:]}")
    record = next(json.loads(line[7:]) for line in lines
                  if line.startswith("RECORD "))
    return {"result": json.loads(lines[-1]), "record": record}


def report(args) -> int:
    decl = declared()
    seeds = range(args.seed, args.seed + args.report)
    runs = []
    for s in seeds:
        runs.append(_spawn(args.workload, s, args.seconds, 0))
        res = runs[-1]["result"]
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"  seed {s}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {values}", flush=True)
    print(f"\n{args.workload}: {len(runs)} runs, --seconds {args.seconds:g}")
    print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>7}  verdict")
    for m in decl["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, q2, q3, spread = quartile_spread(vals)
        verdict = ("steady" if spread < m["bound"] / 3 else
                   "within bound" if spread <= m["bound"] else "TOO NOISY")
        print(f"  {m['name']:<20} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>7.3f}  {verdict}")
    if args.overhead:
        traced = [_spawn(args.workload, s, args.seconds, 1) for s in seeds]
        print("\n  tracing overhead (median traced / median untraced):")
        for m in decl["end_to_end"]:
            a = median(r["record"]["end_to_end"][m["name"]] for r in runs)
            b = median(r["record"]["end_to_end"][m["name"]] for r in traced)
            print(f"  {m['name']:<20} {b / a if a else math.nan:>8.4f}")
        ratios = [r["record"]["per_layer"]["trace.layer_sum_ratio"] for r in traced]
        print(f"  layer sum / traced wall: min {min(ratios):.4f} "
              f"max {max(ratios):.4f}")
        # Equal seeds must give equal deterministic metrics, traced or not.
        def fixed(run):
            return ([run["record"]["end_to_end"][k] for k in DETERMINISTIC],
                    run["record"]["extras"].get("uplink_mbit"))

        same = all(fixed(a) == fixed(b) for a, b in zip(runs, traced))
        print(f"  deterministic metrics identical per seed: {same}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["ingest_churn", "query_cold", "fleet_rounds"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", type=int, default=0, metavar="N",
                   help="steadiness report over N seeds instead of one run")
    p.add_argument("--overhead", action="store_true",
                   help="with --report: also run traced and compare medians")
    args = p.parse_args(argv)
    return report(args) if args.report else run_once(args)


if __name__ == "__main__":
    sys.exit(main())
