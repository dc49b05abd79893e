"""The benchmark's workloads: seeded inputs, the timed closed loop, and the
correctness gate of each.

All three drive real ``repro serve`` processes with their CLI defaults
(fleet sites with ``bench_fleet``'s site shape) from one client that waits
for every reply before it sends the next frame — a closed loop, which is
how ``ServiceClient`` and ``SiteFeeder`` use the service.  The amount of
work is fixed by ``--seed`` and ``--seconds`` alone, so two runs with the
same arguments do identical work and the deterministic metrics repeat
exactly.

- ``ingest_churn``: 512-event chunks (one insert frame plus one delete
  frame) of a Gaussian-mixture churn stream in which 30 % of the points
  are deleted two chunks after their insertion; one cold query every
  ``QUERY_EVERY`` chunks.
- ``query_cold``: a fixed preloaded live set, then rounds of a 1-event
  insert or delete of a probe point followed by a cold query, so the live
  set alternates between the preload and the preload plus one probe; the
  probes (one per shard) take turns.
- ``fleet_rounds``: two sites fed by ``SiteFeeder`` (default checkpoint
  cadence); after each slice of batches one coordinator round
  (``poll_site_stats`` + ``merged_service``) and a query of the merged
  state.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from serverproc import Server, peak_rss_mb, raw_request
from spans import Recorder

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Calibration: the work of one run at ``--seconds 20``.
BASE_SECONDS = 20.0
CHUNK_EVENTS = 512
DELETE_SHARE = 0.3
DELETE_LAG_CHUNKS = 2
CHURN_CHUNKS = 24
QUERY_EVERY = 3
COLD_LIVE_POINTS = 200
COLD_ROUNDS = 104
FLEET_SITES = 2
FLEET_POINTS = 1024
FLEET_BATCH = 32
FLEET_ROUNDS = 5
#: ``bench_fleet``'s site shape (only fields the serve CLI exposes).
FLEET_SHAPE = dict(k=3, d=2, delta=64, num_shards=2, seed=7, restarts=1)


# ------------------------------------------------------------------ inputs
def serve_defaults():
    """The :class:`ServiceConfig` ``repro serve`` builds from its CLI
    defaults (the mapping of ``repro.cli._cmd_serve``)."""
    from repro.cli import build_parser
    from repro.service import ServiceConfig

    a = build_parser().parse_args(["serve"])
    return ServiceConfig(
        k=a.k, d=a.d, delta=a.delta, r=a.r, eps=a.eps, eta=a.eta,
        num_shards=a.shards, workers=a.workers, seed=a.seed,
        backend=a.backend, capacity_slack=a.capacity_slack,
        restarts=a.restarts)


def mixture(rng: np.random.Generator, n: int, d: int, delta: int,
            clusters: int = 6, distinct: bool = True) -> np.ndarray:
    """``n`` integer points in ``[1, delta - 1]^d`` from a Gaussian mixture.

    The cluster layout is the same for every seed (the seed only draws the
    points), so the work a query does varies little between seeds.  With
    ``distinct`` the points are deduplicated (first occurrence kept, so the
    order stays random); the mixture is wide enough that most draws
    survive.
    """
    layout = np.random.default_rng([delta, d, clusters])
    centers = layout.uniform(0.15 * delta, 0.85 * delta, size=(clusters, d))
    sigma = delta / 10.0
    out = np.empty((0, d), dtype=np.int64)
    while len(out) < n:
        draw = centers[rng.integers(0, clusters, 2 * n)] + rng.normal(
            0.0, sigma, size=(2 * n, d))
        draw = np.clip(np.rint(draw), 1, delta - 1).astype(np.int64)
        out = np.concatenate([out, draw])
        if distinct:
            _, first = np.unique(out, axis=0, return_index=True)
            out = out[np.sort(first)]
    return out[:n]


def scaled(base: int, seconds: float, minimum: int) -> int:
    """``base`` units of work at ``--seconds 20``, in proportion otherwise."""
    return max(minimum, int(round(base * seconds / BASE_SECONDS)))


def churn_plan(seed: int, chunks: int) -> list[list[tuple[str, np.ndarray]]]:
    """Per chunk: one insert frame of fresh points and (from the third
    chunk on) one delete frame of points inserted two chunks earlier."""
    rng = np.random.default_rng([seed, 11])
    per_insert = int(round(CHUNK_EVENTS / (1.0 + DELETE_SHARE)))
    per_delete = CHUNK_EVENTS - per_insert
    pts = mixture(rng, chunks * per_insert, 2, 256)
    plan, doomed = [], []
    for c in range(chunks):
        fresh = pts[c * per_insert:(c + 1) * per_insert]
        doomed.append(fresh[rng.choice(per_insert, per_delete, replace=False)])
        frames = [("insert", fresh)]
        if c >= DELETE_LAG_CHUNKS:
            frames.append(("delete", doomed[c - DELETE_LAG_CHUNKS]))
        plan.append(frames)
    return plan


def live_set(frames) -> np.ndarray:
    """The live multiset of points after applying ``(op, rows)`` frames in
    order."""
    live: dict = {}
    for op, rows in frames:
        for row in map(tuple, rows.tolist()):
            if op == "insert":
                live[row] = live.get(row, 0) + 1
            else:
                live[row] -= 1
    return np.array([r for r, c in live.items() for _ in range(c)],
                    dtype=np.int64)


# --------------------------------------------------------------- measuring
@dataclasses.dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    traced: bool
    work: Path
    rec: Recorder | None = None

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def spans_dir(self) -> Path:
        return self.work / "spans"


@dataclasses.dataclass
class Outcome:
    """What a workload measured, before metrics are derived."""

    setup_s: list[float]
    ingest_s: list[float] = dataclasses.field(default_factory=list)
    ingest_events: int = 0
    query_s: list[float] = dataclasses.field(default_factory=list)
    merge_s: list[float] = dataclasses.field(default_factory=list)
    answer_cost_ratio: float = math.nan
    state_bytes: int = 0
    server_rss_mb: float = math.nan
    uplink_bits: int | None = None
    checks: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wall_ns: int = 0
    generator_threads: int = 0
    ingest_rids: set = dataclasses.field(default_factory=set)
    layer_extra: dict = dataclasses.field(default_factory=dict)


class Meter:
    """Runs the timed operations of one workload and counts them."""

    def __init__(self, ctx: Context, out: Outcome):
        self.rec = ctx.rec
        self.out = out
        self._rid = 0
        self._t0 = 0

    def begin(self) -> None:
        self.out.generator_threads = threading.active_count()
        if self.rec is not None:
            self.rec.enabled = True
        self._t0 = time.perf_counter_ns()

    def end(self) -> None:
        self.out.wall_ns = time.perf_counter_ns() - self._t0
        if self.rec is not None:
            self.rec.enabled = False
        self.out.generator_threads = max(self.out.generator_threads,
                                         threading.active_count())

    def run(self, kind: str, fn, *args):
        """Time one operation; returns ``(seconds or inf, result or None)``.

        A failed operation is counted and enters every latency sample as
        ``inf``, so it misses every percentile.
        """
        self._rid += 1
        self.out.attempted += 1
        if kind == "ingest":
            self.out.ingest_rids.add(self._rid)
        span = token = None
        if self.rec is not None:
            span, token = self.rec.open("bench.self", rid=self._rid)
        t0 = time.perf_counter()
        failed = False
        try:
            result = fn(*args)
        except Exception:  # a failed operation is a measurement, not a crash
            traceback.print_exc(file=sys.stderr)
            failed = True
            self.out.failed += 1
            result = None
        elapsed = math.inf if failed else time.perf_counter() - t0
        if span is not None:
            self.rec.close(span, token, failed)
        return elapsed, result


def timed_setups(make, close) -> tuple[list[float], object]:
    """Set up ``SETUP_REPEATS`` times; keep the last, close the others."""
    times, obj = [], None
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        obj = make()
        times.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            close(obj)
    return times, obj


def answer_cost_ratio(config, live: np.ndarray, centers) -> float:
    """Capacitated cost of the served centers on the full live set over
    the cost of ``CapacitatedKClustering`` (same k, slack, restarts, seed)
    fit on that set."""
    from repro.metrics.costs import capacitated_cost
    from repro.solvers.capacitated_lloyd import CapacitatedKClustering
    from repro.utils.rng import derive_seed

    pts = np.asarray(live, dtype=np.float64)
    cap = len(pts) / config.k * config.capacity_slack
    served = capacitated_cost(pts, np.asarray(centers, dtype=np.float64), cap,
                              r=config.r)
    sol = CapacitatedKClustering(
        k=config.k, capacity=cap, r=config.r, restarts=config.restarts,
        seed=derive_seed(config.seed, "service-solve")).fit(pts)
    return served / capacitated_cost(pts, sol.centers, cap, r=config.r)


ANSWER_FIELDS = ("centers", "cost", "coreset_size", "o", "version")


def same_answer(served: dict, reference: dict) -> bool:
    return all(served[f] == reference[f] for f in ANSWER_FIELDS)


def reference_service(config, frames):
    """An in-process ``ClusteringService`` fed the identical frames."""
    from repro.service.engine import ClusteringService

    ref = ClusteringService(config)
    for op, rows in frames:
        (ref.insert if op == "insert" else ref.delete)(rows)
    return ref


# ---------------------------------------------------------- single server
def _single_server(ctx: Context, preload: np.ndarray | None):
    """Spawn, wait until the server answers, create the default tenant
    (which the server does lazily, on its first use) and, for query_cold,
    preload and run one warm-up query; returns ``(server, client)``."""
    from repro.service.client import ServiceClient

    server = Server(ctx.src, traced=ctx.traced, spans_dir=ctx.spans_dir)
    cli = ServiceClient(*server.address, timeout=120.0)
    cli.site_stats()
    if preload is not None:
        cli.insert(preload, batch_size=len(preload))
        cli.query()
    return server, cli


def _close_single(pair) -> None:
    server, cli = pair
    cli.close()
    server.shutdown()


def _finish_single(out: Outcome, server: Server, cli, config, frames,
                   final: dict) -> None:
    """Shared tail of the single-server workloads: state size, peak RSS,
    shutdown, and the gate against the in-process reference."""
    reply = raw_request(server.address, {"op": "pull_state"})
    out.state_bytes = len(reply)
    # Replies are encoded compactly with "ok" first; parsing a reply of
    # tens of MiB just to read that flag would dominate the run.
    out.checks["pull_state_ok"] = reply.startswith(b'{"ok":true,')
    out.server_rss_mb = peak_rss_mb(server.pid)
    out.layer_extra["client_retries"] = cli.reconnects
    _close_single((server, cli))
    with reference_service(config, frames) as ref:
        out.checks["answer_matches_reference"] = same_answer(
            final, ref.query()[0].to_dict())
    out.answer_cost_ratio = answer_cost_ratio(config, live_set(frames),
                                              final["centers"])


def run_ingest_churn(ctx: Context) -> Outcome:
    config = serve_defaults()
    plan = churn_plan(ctx.seed, scaled(CHURN_CHUNKS, ctx.seconds, 4))
    setup, (server, cli) = timed_setups(
        lambda: _single_server(ctx, None), _close_single)
    out = Outcome(setup_s=setup)
    meter = Meter(ctx, out)
    hits = 0

    def send(chunk):
        # The chunk's frames back to back: one latency sample per chunk,
        # since insert and delete frames differ in size.
        return sum((cli.insert if op == "insert" else cli.delete)(
            rows, batch_size=len(rows)) for op, rows in chunk)

    try:
        meter.begin()
        for c, chunk in enumerate(plan):
            dt, applied = meter.run("ingest", send, chunk)
            out.ingest_s.append(dt)
            out.ingest_events += applied or 0
            if (c + 1) % QUERY_EVERY == 0:
                dt, answer = meter.run("query", cli.query)
                out.query_s.append(dt)
                hits += bool(answer and answer["cache_hit"])
        meter.end()
        out.checks["timed_queries_missed_cache"] = hits == 0
        final = cli.query()
        frames = [f for chunk in plan for f in chunk]
        _finish_single(out, server, cli, config, frames, final)
    finally:
        _close_single((server, cli))
    return out


def cold_inputs(seed: int, shard_of, shards: int):
    """The preloaded live set and one probe point per shard.

    Probes are drawn from the same mixture and kept only if they land in a
    shard no earlier probe took, so every seed dirties each shard equally
    often.  (A shard's sketch logs grow with its churn, and shard 0 is the
    one the merge deep-copies, so probes that all landed in one shard would
    make the query cost depend on the seed.)
    """
    rng = np.random.default_rng([seed, 23])
    pts = mixture(rng, COLD_LIVE_POINTS + 64 * shards, 2, 256)
    preload, probes = pts[:COLD_LIVE_POINTS], {}
    for row in pts[COLD_LIVE_POINTS:]:
        probes.setdefault(shard_of(row), row[None, :])
    if len(probes) < shards:
        raise RuntimeError(f"no probe point for every shard (seed {seed})")
    return preload, [probes[j] for j in range(shards)]


def run_query_cold(ctx: Context) -> Outcome:
    from repro.service.engine import ClusteringService

    config = serve_defaults()
    with ClusteringService(config) as router:
        preload, probes = cold_inputs(ctx.seed, router.ingest.shard_of,
                                      config.num_shards)
    cycle = 2 * len(probes)
    rounds = cycle * scaled(-(-COLD_ROUNDS // cycle), ctx.seconds, 2)
    setup, (server, cli) = timed_setups(
        lambda: _single_server(ctx, preload), _close_single)
    out = Outcome(setup_s=setup)
    meter = Meter(ctx, out)
    frames = [("insert", preload)]
    hits, final = 0, None
    try:
        meter.begin()
        for i in range(rounds):
            # Insert probe j, then delete it: the live set alternates
            # between the preload and the preload plus one probe.
            op = "insert" if i % 2 == 0 else "delete"
            probe = probes[(i // 2) % len(probes)]
            fn = cli.insert if op == "insert" else cli.delete
            dt, applied = meter.run("ingest", fn, probe, 1)
            frames.append((op, probe))
            out.ingest_s.append(dt)
            out.ingest_events += applied or 0
            dt, final = meter.run("query", cli.query)
            out.query_s.append(dt)
            hits += bool(final and final["cache_hit"])
        meter.end()
        out.checks["timed_queries_missed_cache"] = hits == 0
        if final is None:
            final = cli.query()
        _finish_single(out, server, cli, config, frames, final)
    finally:
        _close_single((server, cli))
    return out


# ------------------------------------------------------------------- fleet
def _launcher_serve_argv(original):
    """``fleet._serve_argv`` with the launcher in place of ``-m repro``."""
    from serverproc import serve_argv

    def argv(*args, **kwargs):
        full = original(*args, **kwargs)
        return serve_argv(traced=True)[:2] + full[3:]
    return argv


def _canonical_state(service) -> str:
    return json.dumps(service.ingest.to_state_dict(), sort_keys=True,
                      separators=(",", ":"))


def run_fleet_rounds(ctx: Context) -> Outcome:
    import os

    from repro.distributed import fleet
    from repro.service import ServiceConfig
    from repro.service.protocol import DEFAULT_STREAM_ID
    from repro.service.tenants import TenantRegistry
    from serverproc import SPANS_DIR_ENV

    config = ServiceConfig(**FLEET_SHAPE)
    rng = np.random.default_rng([ctx.seed, 37])
    n = 64 * scaled(FLEET_POINTS // 64, ctx.seconds, 4)
    points = mixture(rng, n, config.d, config.delta, distinct=False)
    site_ops = fleet.plan_site_ops(points, FLEET_SITES, seed=ctx.seed,
                                   batch_size=FLEET_BATCH,
                                   delete_fraction=DELETE_SHARE)
    rounds = scaled(FLEET_ROUNDS, ctx.seconds, 2)
    slices = [[ops[lo:hi] for lo, hi in _bounds(len(ops), rounds)]
              for ops in site_ops]
    if ctx.traced:
        # Sites are spawned by FleetRunner, which builds its command line
        # with _serve_argv and passes this process's environment on.
        os.environ[SPANS_DIR_ENV] = str(ctx.spans_dir)
        fleet._serve_argv = _launcher_serve_argv(fleet._serve_argv)

    count = iter(range(SETUP_REPEATS))

    def make():
        runner = fleet.FleetRunner(config, FLEET_SITES,
                                   workdir=ctx.work / f"fleet-{next(count)}")
        for address in runner.start():
            # Creates the site's default tenant, as _single_server does.
            raw_request(address, {"op": "site_stats"})
        return runner

    setup, runner = timed_setups(make, lambda r: r.close())
    out = Outcome(setup_s=setup)
    meter = Meter(ctx, out)
    feeders = [fleet.SiteFeeder(runner, j) for j in range(FLEET_SITES)]
    coord = fleet.Coordinator(runner.addresses())
    net = coord.network
    #: (merged service, its answer, uplink bits, downlink bits, pull_state
    #: bits) of the latest round.
    last = None

    def coordinator_round():
        t0 = time.perf_counter()
        coord.poll_site_stats()
        service = coord.merged_service()
        merge_s = time.perf_counter() - t0
        return merge_s, service, service.query()[0]

    try:
        meter.begin()
        for g in range(rounds):
            for j, feeder in enumerate(feeders):
                for op, rows in slices[j][g]:
                    dt, applied = meter.run("ingest", feeder.apply, op, rows)
                    out.ingest_s.append(dt)
                    out.ingest_events += applied or 0
            up, down, log_at = net.uplink_bits, net.downlink_bits, len(net.log)
            dt, got = meter.run("query", coordinator_round)
            out.query_s.append(dt)
            if last is not None:
                last[0].close()
                last = None
            if got is None:
                out.merge_s.append(math.inf)
                continue
            out.merge_s.append(got[0])
            last = (got[1], got[2], net.uplink_bits - up,
                    net.downlink_bits - down,
                    sum(e[3] for e in net.log[log_at:] if e[2] == "pull_state"))
        meter.end()
        replies = [raw_request(site.address, {"op": "pull_state"})
                   for site in runner.sites]
        out.state_bytes = sum(len(r) for r in replies)
        out.server_rss_mb = max(peak_rss_mb(site.proc.pid)
                                for site in runner.sites)
        out.layer_extra.update(
            client_retries=sum(f.client.reconnects for f in feeders)
            + sum(c.reconnects for c in coord._clients),
            fleet_recoveries=sum(f.recoveries for f in feeders),
            bytes_per_charged_bit=(8 * out.state_bytes / last[4]
                                   if last is not None else 0.0))
    finally:
        for feeder in feeders:
            feeder.close()
        coord.close()
        runner.close()

    out.checks["final_round_completed"] = last is not None
    if last is None:
        return out
    merged, result, round_up, round_down, _ = last
    effective = TenantRegistry(config).tenant_config(DEFAULT_STREAM_ID)
    out.uplink_bits = round_up
    # Site by site, batch by batch: the order the fleet's version counts.
    frames = [f for ops in site_ops for f in ops]
    with reference_service(effective, frames) as ref:
        out.checks["merged_state_identical"] = (
            _canonical_state(merged) == _canonical_state(ref))
        out.checks["answer_matches_reference"] = (
            result.to_dict() == ref.query()[0].to_dict())
    sim_merged, sim_net = fleet.simulate_fleet(effective, site_ops)
    sim_merged.close()
    out.checks["uplink_matches_simulation"] = (
        round_up == sim_net.uplink_bits and round_down == sim_net.downlink_bits)
    out.answer_cost_ratio = answer_cost_ratio(effective, live_set(frames),
                                              result.centers)
    merged.close()
    return out


def _bounds(n: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous near-equal slices of ``range(n)``."""
    edges = np.linspace(0, n, parts + 1).round().astype(int)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


WORKLOADS = {
    "ingest_churn": run_ingest_churn,
    "query_cold": run_query_cold,
    "fleet_rounds": run_fleet_rounds,
}


def cleanup(work: Path) -> None:
    """Remove a run's scratch directory (and its parent once empty)."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another run's directory is still there

