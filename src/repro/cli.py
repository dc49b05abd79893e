"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands
-----------
``generate``   write a synthetic point set (.npy) in [Δ]^d
``build``      build a strong coreset from a .npy point set → .npz
``stream``     replay a churn stream over a point set and build the coreset
               with the one-pass dynamic algorithm
``evaluate``   check the strong-coreset sandwich of a saved coreset
``solve``      balanced k-clustering on a saved coreset (optionally extend
               the assignment to the original points)
``info``       print a saved coreset's provenance
``serve``      run the long-lived clustering service (JSON-lines TCP,
               asyncio multi-tenant)
``coordinator`` pull and merge a fleet of site servers over the wire
               (--sites host:port,... attaches to running sites;
               --sites spawn:N launches, feeds, and verifies a local fleet)
``client``     talk to a running service (insert/delete/query/checkpoint/
               pull_state/site_stats/tenants/...; --stream addresses a
               named tenant)
``lint``       project-specific static analysis (determinism, hot-path,
               async-safety, wire-protocol invariants); exit code 0 clean /
               1 findings / 2 usage error

Every command is seeded and prints exactly what it did; these are the same
code paths the library exposes, so the CLI doubles as an end-to-end smoke
test of the installation.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from repro.core import CoresetParams, build_coreset_auto
from repro.core.io import atomic_write_json, load_coreset, save_coreset
from repro.utils.tables import render_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Streaming Balanced Clustering — capacitated-coreset toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic point set")
    g.add_argument("output", help="output .npy path")
    g.add_argument("--n", type=int, default=10000)
    g.add_argument("--d", type=int, default=3)
    g.add_argument("--delta", type=int, default=1024)
    g.add_argument("--k", type=int, default=4)
    g.add_argument("--kind", choices=["mixture", "unbalanced", "uniform", "outliers"],
                   default="mixture")
    g.add_argument("--seed", type=int, default=0)

    b = sub.add_parser("build", help="build a strong coreset (Theorem 3.19)")
    b.add_argument("points", help="input .npy of (n, d) ints in [1, delta]")
    b.add_argument("output", help="output coreset .npz")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--delta", type=int, required=True)
    b.add_argument("--r", type=float, default=2.0)
    b.add_argument("--eps", type=float, default=0.25)
    b.add_argument("--eta", type=float, default=0.25)
    b.add_argument("--seed", type=int, default=7)

    s = sub.add_parser("stream", help="one-pass dynamic-stream coreset (Thm 4.5)")
    s.add_argument("points", help="input .npy")
    s.add_argument("output", help="output coreset .npz")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--delta", type=int, required=True)
    s.add_argument("--delete-fraction", type=float, default=0.3)
    s.add_argument("--backend", choices=["exact", "sketch"], default="exact")
    s.add_argument("--eps", type=float, default=0.25)
    s.add_argument("--eta", type=float, default=0.25)
    s.add_argument("--seed", type=int, default=7)

    e = sub.add_parser("evaluate", help="verify the strong-coreset sandwich")
    e.add_argument("points", help="original .npy point set")
    e.add_argument("coreset", help="coreset .npz (with saved params)")
    e.add_argument("--centers", type=int, default=3,
                   help="number of random/k-means++ center sets to test")
    e.add_argument("--seed", type=int, default=3)

    v = sub.add_parser("solve", help="balanced k-clustering on a coreset")
    v.add_argument("coreset", help="coreset .npz (with saved params)")
    v.add_argument("--capacity-slack", type=float, default=1.1)
    v.add_argument("--seed", type=int, default=5)

    i = sub.add_parser("info", help="print a saved coreset's provenance")
    i.add_argument("coreset")

    srv = sub.add_parser("serve", help="run the streaming clustering service "
                                       "(async multi-tenant)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7071)
    srv.add_argument("--k", type=int, default=4)
    srv.add_argument("--d", type=int, default=2)
    srv.add_argument("--delta", type=int, default=256)
    srv.add_argument("--r", type=float, default=2.0)
    srv.add_argument("--eps", type=float, default=0.25)
    srv.add_argument("--eta", type=float, default=0.25)
    srv.add_argument("--max-request-mb", type=int, default=8,
                     help="per-connection request-line cap in MiB; "
                          "over-long frames get an error envelope")
    srv.add_argument("--backend", choices=["exact", "sketch"], default="exact")
    srv.add_argument("--capacity-slack", type=float, default=1.2)
    srv.add_argument("--restarts", type=int, default=2,
                     help="k-means restarts per query solve (fleet sites "
                          "must match the coordinator's reference exactly)")
    srv.add_argument("--seed", type=int, default=7)
    srv.add_argument("--restore", default=None, metavar="CKPT",
                     help="start the 'default' tenant from a checkpoint "
                          "instead of empty state")
    srv.add_argument("--tenants-dir", default=None, metavar="DIR",
                     help="directory for cold-tenant eviction checkpoints; "
                          "enables LRU eviction and shutdown persistence")
    srv.add_argument("--max-live-tenants", type=int, default=None,
                     metavar="N",
                     help="keep at most N tenant sketches in memory, "
                          "evicting the least-recently-used to --tenants-dir "
                          "(default: unbounded)")
    srv.add_argument("--max-events-per-tenant", type=int, default=None,
                     metavar="N", help="per-tenant ingest quota in events")
    srv.add_argument("--max-mb-per-tenant", type=float, default=None,
                     metavar="MB", help="per-tenant ingest quota in MiB of "
                                        "nominal encoded volume")
    srv.add_argument("--fault-plan", default=None, metavar="PLAN",
                     help="chaos testing: install a seeded fault-injection "
                          "plan (JSON file path or inline JSON) before "
                          "serving; the REPRO_FAULT_PLAN environment "
                          "variable is the no-flag equivalent")
    # No --shards or --workers flag (a service runs one driver per tenant),
    # but perfbench/workloads.py::serve_defaults() reads both off the
    # parsed serve arguments.
    srv.set_defaults(shards=1, workers=0)

    coord = sub.add_parser(
        "coordinator",
        help="pull and merge a fleet of site servers (Theorem 4.7 for real)")
    coord.add_argument("--sites", required=True, metavar="ADDRS|spawn:N",
                       help="comma-separated host:port site addresses to "
                            "attach to, or 'spawn:N' to launch N local "
                            "site processes, feed them a partitioned "
                            "synthetic stream, and verify the merge "
                            "against a single-process reference")
    coord.add_argument("--stream", default=None, metavar="ID",
                       help="stream_id of the tenant to pull on every site "
                            "(default: each site's 'default' tenant)")
    coord.add_argument("--stats-only", action="store_true",
                       help="poll site_stats and stop (no pull, no merge)")
    coord.add_argument("--k", type=int, default=4)
    coord.add_argument("--d", type=int, default=2)
    coord.add_argument("--delta", type=int, default=256)
    coord.add_argument("--backend", choices=["exact", "sketch"],
                       default="exact")
    coord.add_argument("--seed", type=int, default=7)
    coord.add_argument("--n", type=int, default=4000,
                       help="spawn mode: synthetic stream size")
    coord.add_argument("--points", default=None,
                       help="spawn mode: feed this .npy instead of "
                            "generating --n synthetic points")
    coord.add_argument("--delete-fraction", type=float, default=0.2,
                       help="spawn mode: churn fraction per site share")
    coord.add_argument("--batch-size", type=int, default=512)
    coord.add_argument("--partition", choices=["random", "skewed"],
                       default="random",
                       help="spawn mode: how the stream is split over sites")
    coord.add_argument("--no-verify", action="store_true",
                       help="spawn mode: skip the single-process reference "
                            "and bit-accounting cross-checks")
    coord.add_argument("--fault-plan", default=None, metavar="PLAN",
                       help="spawn mode: install a fault plan in the fleet "
                            "driver (e.g. site.kill rules) before feeding")

    c = sub.add_parser("client", help="send one request to a running service")
    c.add_argument("op", choices=["ping", "insert", "delete", "query",
                                  "checkpoint", "restore", "pull_state",
                                  "site_stats", "stats", "tenants",
                                  "shutdown"])
    c.add_argument("--host", default="127.0.0.1")
    c.add_argument("--port", type=int, default=7071)
    c.add_argument("--stream", default=None, metavar="ID",
                   help="stream_id of the tenant to address (default: the "
                        "server's 'default' tenant)")
    c.add_argument("--points", default=None,
                   help=".npy of int rows for insert/delete")
    c.add_argument("--path", default=None,
                   help="server-side checkpoint path for checkpoint/restore")
    c.add_argument("--capacity-slack", type=float, default=None)

    from repro.analysis_lint.cli import add_lint_arguments

    lint = sub.add_parser("lint", help="AST-based static analysis "
                                       "(DET/HOT/ASYNC/WIRE rule families)")
    add_lint_arguments(lint)
    return p


def _cmd_generate(args) -> int:
    from repro.data.synthetic import (
        clustered_with_outliers,
        gaussian_mixture,
        unbalanced_mixture,
        uniform_points,
    )

    gen = {
        "mixture": lambda: gaussian_mixture(args.n, args.d, args.delta, args.k,
                                            seed=args.seed),
        "unbalanced": lambda: unbalanced_mixture(args.n, args.d, args.delta,
                                                 args.k, seed=args.seed),
        "uniform": lambda: uniform_points(args.n, args.d, args.delta,
                                          seed=args.seed),
        "outliers": lambda: clustered_with_outliers(args.n, args.d, args.delta,
                                                    args.k, seed=args.seed),
    }[args.kind]
    pts = np.unique(gen(), axis=0)
    np.save(args.output, pts)
    print(f"wrote {len(pts)} distinct points to {args.output}")
    return 0


def _cmd_build(args) -> int:
    pts = np.load(args.points)
    params = CoresetParams.practical(k=args.k, d=pts.shape[1], delta=args.delta,
                                     r=args.r, eps=args.eps, eta=args.eta)
    t0 = time.time()
    cs = build_coreset_auto(pts, params, seed=args.seed)
    save_coreset(args.output, cs, params)
    print(f"coreset: {len(cs)} points ({len(pts) / max(len(cs), 1):.1f}x), "
          f"o={cs.o:.3g}, {time.time() - t0:.2f}s -> {args.output}")
    return 0


def _cmd_stream(args) -> int:
    from repro.data.workloads import churn_stream
    from repro.solvers.pilot import estimate_opt_cost
    from repro.streaming import StreamingCoreset, materialize

    pts = np.load(args.points)
    params = CoresetParams.practical(k=args.k, d=pts.shape[1], delta=args.delta,
                                     eps=args.eps, eta=args.eta)
    stream = churn_stream(pts, delete_fraction=args.delete_fraction,
                          seed=args.seed)
    survivors = materialize(stream, d=pts.shape[1])
    pilot = estimate_opt_cost(survivors, args.k, r=2.0, seed=args.seed)
    sc = StreamingCoreset(params, seed=args.seed, backend=args.backend,
                          o_range=(pilot / 64, pilot / 4))
    t0 = time.time()
    sc.process(stream)
    cs = sc.finalize()
    save_coreset(args.output, cs, params)
    print(f"stream: {len(stream)} events ({stream.num_deletions()} deletions), "
          f"{len(survivors)} survivors")
    print(f"coreset: {len(cs)} points, o={cs.o:.3g}, "
          f"{time.time() - t0:.2f}s -> {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.metrics.evaluation import evaluate_coreset_quality
    from repro.solvers.kmeanspp import kmeans_plusplus

    pts = np.load(args.points)
    cs, params = load_coreset(args.coreset)
    if params is None:
        print("coreset was saved without parameters; cannot evaluate",
              file=sys.stderr)
        return 2
    n = len(pts)
    rng = np.random.default_rng(args.seed)
    Zs = [kmeans_plusplus(pts.astype(float), params.k, r=params.r, seed=args.seed)]
    for _ in range(max(0, args.centers - 1)):
        Zs.append(rng.integers(1, params.delta + 1,
                               size=(params.k, pts.shape[1])).astype(float))
    caps = [n / params.k, 1.5 * n / params.k, math.inf]
    rep = evaluate_coreset_quality(pts, cs, Zs, caps, r=params.r,
                                   eps=params.eps, eta=params.eta)
    rows = [[f"{e.t:.0f}", f"{e.full_cost:.4g}", f"{e.coreset_cost:.4g}",
             f"{max(e.upper_ratio, e.lower_ratio):.4f}"] for e in rep.entries]
    print(render_table("strong-coreset sandwich",
                       ["t", "cost_t(Q,Z)", "cost_(1+η)t(Q',Z,w')", "ratio"],
                       rows))
    verdict = "PASS" if rep.holds() else "FAIL"
    print(f"worst ratio {rep.worst_ratio:.4f} vs bound {1 + params.eps:.2f}: {verdict}")
    return 0 if rep.holds() else 1


def _cmd_solve(args) -> int:
    from repro.solvers import CapacitatedKClustering

    cs, params = load_coreset(args.coreset)
    if params is None:
        print("coreset was saved without parameters; cannot solve",
              file=sys.stderr)
        return 2
    cap = cs.total_weight / params.k * args.capacity_slack
    solver = CapacitatedKClustering(k=params.k, capacity=cap, r=params.r,
                                    seed=args.seed)
    sol = solver.fit(cs.points.astype(float), weights=cs.weights)
    print(render_table(
        "balanced clustering on the coreset",
        ["center", "coordinates", "load"],
        [[i, np.array2string(np.round(z, 1)), f"{sol.sizes[i]:.0f}"]
         for i, z in enumerate(sol.centers)],
    ))
    print(f"cost {sol.cost:.5g}, max load / capacity = {sol.max_violation():.3f}")
    return 0


def _cmd_info(args) -> int:
    cs, params = load_coreset(args.coreset)
    levels = sorted({p.level for p in cs.parts})
    print(render_table(
        "coreset",
        ["field", "value"],
        [["points", len(cs)],
         ["total weight", f"{cs.total_weight:.1f}"],
         ["input size", cs.input_size],
         ["accepted guess o", f"{cs.o:.4g}"],
         ["delta", cs.delta],
         ["parts", len(cs.parts)],
         ["levels used", levels],
         ["storage bits", cs.storage_bits()],
         ["params", "saved" if params else "absent"]],
    ))
    return 0


def _cmd_serve(args) -> int:
    from repro.service import ServiceConfig, TenantQuota, faults
    from repro.service.aserver import serve_forever_async

    if args.fault_plan:
        plan = faults.install(faults.load_plan(args.fault_plan))
        print(f"fault plan installed: {len(plan.rules)} rule(s), "
              f"seed={plan.seed}", flush=True)
    elif faults.install_from_env() is not None:
        print(f"fault plan installed from ${faults.ENV_FAULT_PLAN}",
              flush=True)

    try:
        config = ServiceConfig(
            k=args.k, d=args.d, delta=args.delta, r=args.r, eps=args.eps,
            eta=args.eta, seed=args.seed, backend=args.backend,
            capacity_slack=args.capacity_slack, restarts=args.restarts,
        )
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    quota = None
    if args.max_events_per_tenant is not None or args.max_mb_per_tenant is not None:
        quota = TenantQuota(
            max_events=args.max_events_per_tenant,
            max_bytes=(int(args.max_mb_per_tenant * 1024 * 1024)
                       if args.max_mb_per_tenant is not None else None))
    serve_forever_async(config, args.host, args.port,
                        tenants_dir=args.tenants_dir,
                        max_live_tenants=args.max_live_tenants,
                        quota=quota, restore_path=args.restore,
                        max_request_bytes=args.max_request_mb * 1024 * 1024)
    return 0


def _parse_sites(spec: str) -> tuple[int | None, list[tuple[str, int]]]:
    """``spawn:N`` → (N, []); ``host:port,host:port`` → (None, addresses)."""
    spec = spec.strip()
    if spec.startswith("spawn:"):
        n = int(spec.split(":", 1)[1])
        if n < 1:
            raise ValueError(f"spawn count must be >= 1, got {n}")
        return n, []
    addrs = []
    for part in spec.split(","):
        host, _, port = part.strip().rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"bad site address {part!r}; want host:port")
        addrs.append((host, int(port)))
    return None, addrs


def _cmd_coordinator(args) -> int:
    import json

    from repro.distributed.fleet import Coordinator, run_fleet
    from repro.service import ServiceConfig, faults

    spawn_n, addrs = _parse_sites(args.sites)
    if spawn_n is not None:
        if args.fault_plan:
            plan = faults.install(faults.load_plan(args.fault_plan))
            print(f"fault plan installed: {len(plan.rules)} rule(s), "
                  f"seed={plan.seed}", flush=True)
        config = ServiceConfig(k=args.k, d=args.d, delta=args.delta,
                               seed=args.seed, backend=args.backend)
        if args.points:
            pts = np.load(args.points)
        else:
            from repro.data.synthetic import gaussian_mixture

            pts = np.unique(gaussian_mixture(args.n, args.d, args.delta,
                                             args.k, seed=args.seed), axis=0)
        print(f"spawning {spawn_n} site processes for {len(pts)} points "
              f"({args.partition} partition)", flush=True)
        report = run_fleet(config, pts, spawn_n,
                           partition_seed=args.seed, mode=args.partition,
                           batch_size=args.batch_size,
                           delete_fraction=args.delete_fraction,
                           stream_id=args.stream,
                           verify=not args.no_verify)
        rows = [[key, report[key]] for key in
                ("sites", "events", "batches", "events_per_s", "recoveries",
                 "restarts", "uplink_bits", "downlink_bits", "messages")]
        for key in ("state_identical", "answer_identical",
                    "bits_match_simulation", "passed"):
            if key in report:
                rows.append([key, report[key]])
        print(render_table("fleet run", ["field", "value"], rows))
        if not args.no_verify and not report.get("passed"):
            return 1
        return 0

    with Coordinator(addrs, stream_id=args.stream) as coord:
        stats = coord.poll_site_stats()
        print(render_table(
            "sites",
            ["site", "events", "insertions", "deletions", "version",
             "space_bits"],
            [[j, s["events"], s["insertions"], s["deletions"], s["version"],
              s["space_bits"]] for j, s in enumerate(stats)]))
        if args.stats_only:
            return 0
        merged = coord.merged_service()
        try:
            result, _ = merged.query()
            print(json.dumps(result.to_dict(), indent=2))
        finally:
            merged.close()
        net = coord.network
        print(f"communication: up {net.uplink_bits} bits, "
              f"down {net.downlink_bits} bits, {net.messages} messages")
    return 0


def _cmd_client(args) -> int:
    import json

    from repro.service import ServiceClient

    with ServiceClient(args.host, args.port, stream_id=args.stream) as cli:
        if args.op in ("insert", "delete"):
            if not args.points:
                print(f"{args.op} needs --points FILE.npy", file=sys.stderr)
                return 2
            pts = np.load(args.points)
            applied = (cli.insert(pts) if args.op == "insert"
                       else cli.delete(pts))
            print(f"{args.op}: {applied} events applied")
            return 0
        if args.op in ("checkpoint", "restore"):
            if not args.path:
                print(f"{args.op} needs --path CKPT", file=sys.stderr)
                return 2
            print(json.dumps(getattr(cli, args.op)(args.path), indent=2))
            return 0
        if args.op == "query":
            result = cli.query(capacity_slack=args.capacity_slack)
            rows = [[i, np.array2string(np.round(np.asarray(z), 1))]
                    for i, z in enumerate(result["centers"])]
            print(render_table("service clustering snapshot",
                               ["center", "coordinates"], rows))
            print(f"cost {result['cost']:.5g}, coreset {result['coreset_size']} "
                  f"points, o={result['o']:.4g}, version {result['version']}, "
                  f"cache_hit={result['cache_hit']}")
            return 0
        if args.op == "stats":
            print(json.dumps(cli.stats(), indent=2))
            return 0
        if args.op == "site_stats":
            print(json.dumps(cli.site_stats(), indent=2))
            return 0
        if args.op == "pull_state":
            state = cli.pull_state()
            if args.path:
                atomic_write_json(args.path, state)
                print(f"pulled state (version {state['ingest']['version']}) "
                      f"-> {args.path}")
            else:
                print(json.dumps({k: state[k] for k in ("format_version",
                                                        "config", "counters")},
                                 indent=2))
                print(f"ingest: version {state['ingest']['version']} "
                      f"(use --path FILE to save the full state)")
            return 0
        if args.op == "tenants":
            rows = [[t["stream_id"], "yes" if t.get("live") else "no",
                     t.get("events", "?"), t.get("version", "?"),
                     t.get("bytes_ingested", "?")]
                    for t in cli.tenants()]
            print(render_table("streams", ["stream_id", "live", "events",
                                           "version", "bytes"], rows))
            return 0
        if args.op == "ping":
            print("pong" if cli.ping() else "no pong")
            return 0
        cli.shutdown()
        print("server stopping")
        return 0


def _cmd_lint(args) -> int:
    from repro.analysis_lint.cli import run_from_args

    return run_from_args(args)


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return {
        "generate": _cmd_generate,
        "build": _cmd_build,
        "stream": _cmd_stream,
        "evaluate": _cmd_evaluate,
        "solve": _cmd_solve,
        "info": _cmd_info,
        "serve": _cmd_serve,
        "coordinator": _cmd_coordinator,
        "client": _cmd_client,
        "lint": _cmd_lint,
    }[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
