"""Real multi-process coordinator fleet: Theorem 4.7 over the wire.

:mod:`repro.distributed.protocol` validates the paper's distributed result
in one process.  This module promotes it to a real deployment: each of
``s`` **sites** is a separate ``repro serve`` process ingesting its local
share of the stream, and a :class:`Coordinator` pulls every site's full
serialized sketch state over the JSON-lines wire protocol (the
``pull_state`` op — the checkpoint envelope doubling as the transfer
encoding) and merges the states through sketch linearity
(:func:`repro.streaming.merge.merge_streaming_states`).  Because every
site's one driver is built from the same ``(params, seed)``, the sum of
the site drivers equals the driver of a single process that saw the whole
stream — so the coordinator's merged state, and every query answer derived
from it, is **bit-identical** to a single-process reference.

Bit accounting
--------------
Theorem 4.7 is a statement about communication *bits*, so the fleet keeps
the exact accounting discipline of the in-process simulation: every wire
exchange is charged to a :class:`~repro.distributed.network.Network` via
the policy functions below (:func:`pull_state_bits`,
:data:`SITE_STATS_FIELDS`, :data:`REQUEST_BITS`).  The charge is computed
from the *structure* of the payload — sketch bits via ``space_bits()``,
one :data:`~repro.utils.bits.FLOAT_BITS` word per counter — never from
JSON byte counts, which would measure the encoding, not the algorithm
(exactly how :mod:`repro.distributed.protocol` charges its messages).
Both the real :class:`Coordinator` and :func:`simulate_fleet` charge
through the same functions on sketches with identical contents, so the
real path's measured bits equal the in-process simulation's by
construction — which is what `bench_fleet.py` asserts.

Site-local ingest (the feeder delivering a site its own stream) is *not*
charged: in the coordinator model of Section 4.3 each machine holds its
share for free and only machine ↔ coordinator traffic counts.

Failure and recovery
--------------------
:class:`SiteFeeder` integrates the PR 7 fault plan via the ``site.kill``
fault point: a fired rule SIGKILLs the site process *before* the next
batch is sent.  Recovery is checkpoint + journal replay: the feeder
checkpoints its site every ``checkpoint_every`` acked batches and journals
every batch since the last checkpoint, so on a dead site it restarts the
process from the last checkpoint (``repro serve --restore``) and replays
the journal.  A batch is acked only after it is applied, and checkpoints
happen only after acks, so the restored-state + journal replay applies
every batch exactly once — the recovered site is bit-identical to one that
never died, which the fleet tests assert end to end.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.distributed.network import Machine, Network
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.engine import (
    ClusteringService,
    ServiceConfig,
    check_driver_identity,
    envelope_bytes_ingested,
)
from repro.service.faults import fault_point
from repro.service.protocol import DEFAULT_STREAM_ID, encode_message
from repro.service.state import sharded_state_from_dict
from repro.service.tenants import TenantRegistry
from repro.streaming.merge import merge_streaming_states
from repro.utils.bits import float_bits

# This module speaks the service wire protocol from outside its directory;
# the WIRE lint cross-checks these call sites against protocol.OPS.
# repro-lint: wire-speaker=../service/protocol.py ops=insert,delete,query,checkpoint,pull_state,site_stats,shutdown

__all__ = [
    "REQUEST_BITS",
    "SITE_STATS_FIELDS",
    "Coordinator",
    "FleetRunner",
    "SiteFeeder",
    "SiteProcess",
    "accountant",
    "merge_sharded",
    "plan_site_ops",
    "pull_state_bits",
    "run_fleet",
    "simulate_fleet",
]

#: Bits charged for one coordinator → site request frame: an op code from
#: the protocol's fixed vocabulary (well under 2^16 ops).
REQUEST_BITS = 16

#: The fixed vocabulary of a ``site_stats`` reply — the engine guarantees
#: exactly these scalar counters, so the reply is charged a constant
#: ``float_bits(len(SITE_STATS_FIELDS))``.
SITE_STATS_FIELDS = ("version", "events", "insertions", "deletions",
                     "space_bits")


# --------------------------------------------------------------- bit policy
def pull_state_bits(ingest) -> int:
    """Bits charged for one ``pull_state`` reply.

    The sketch payload at its information-theoretic size (``space_bits()``
    — the same figure E3/E7 charge for sketch storage) plus one word per
    ingest counter: version, insertions, deletions and events.
    """
    return ingest.space_bits() + float_bits(4)


def accountant(num_sites: int) -> Network:
    """A :class:`Network` used purely as a bit meter (no local points) —
    what a coordinator attaching to already-running sites charges into."""
    return Network(machines=[Machine(j, np.empty((0, 1), dtype=np.int64))
                             for j in range(num_sites)])


# ----------------------------------------------------------------- merging
def merge_sharded(ingests: list):
    """Fold pulled site states into one
    :class:`~repro.service.shards.ShardedIngest` (in place, into the
    first; the others are consumed).

    The result's driver is the sketch sum of the site drivers, which equals
    the driver of a single process that ingested the concatenated stream —
    the fan-in is exact, not approximate.  Counters sum likewise; the
    merged ``version`` is the total number of batches applied fleet-wide,
    which is exactly the version a single process fed the same batches
    would report.
    """
    ingests = list(ingests)
    if not ingests:
        raise ValueError("need at least one site state to merge")
    acc, others = ingests[0], ingests[1:]
    merge_streaming_states(acc.driver, *(other.driver for other in others))
    for other in others:  # scalar-ok: per-site counters, not data plane
        acc.version += other.version
        acc.num_insertions += other.num_insertions
        acc.num_deletions += other.num_deletions
    return acc


# ------------------------------------------------------------- coordinator
class Coordinator:
    """Pulls and merges site states over the wire, with exact bit metering.

    Parameters
    ----------
    sites:
        ``(host, port)`` of each running site server.
    network:
        The bit meter; defaults to a fresh :func:`accountant`.
    stream_id:
        Tenant every site request addresses; ``None`` = the ``"default"``
        tenant, whose seed is the base config seed on every site — which
        is what makes the cross-site merge exact.  A named stream works
        too: ``derive_seed`` is deterministic, so all sites agree on its
        randomness (the single-process reference must then be built from
        the same derived config).
    """

    def __init__(self, sites: list[tuple[str, int]], network: Network | None = None,
                 stream_id: str | None = None, timeout: float = 60.0,
                 retries: int = 4):
        self.sites = [(str(h), int(p)) for h, p in sites]
        self.network = network if network is not None else accountant(len(self.sites))
        self.stream_id = stream_id
        #: The raw envelopes of the latest :meth:`merged_service` pull, in
        #: site order (for callers that verify or size the transfer).
        self.last_envelopes: list[dict] = []
        self._clients = [ServiceClient(h, p, timeout=timeout,
                                       stream_id=stream_id, retries=retries)
                         for h, p in self.sites]

    # ---------------------------------------------------------------- polls
    def poll_site_stats(self) -> list[dict]:
        """One ``site_stats`` round: poll every site's fixed counters,
        charging a request frame down and a constant reply up per site."""
        out = []
        for j, cli in enumerate(self._clients):
            self.network.send_down(j, None, bits=REQUEST_BITS,
                                   label="site_stats-req")
            site = cli.site_stats()
            self.network.send_up(j, None,
                                 bits=float_bits(len(SITE_STATS_FIELDS)),
                                 label="site_stats")
            out.append(site)
        return out

    def pull_ingests(self) -> tuple[ServiceConfig, list, list[dict]]:
        """One ``pull_state`` round: every site's full serialized sketch.

        Returns ``(shared config, rebuilt ShardedIngest per site, raw
        envelopes)``.  Verifies all sites were built from one logical
        config (seed/params/backend), and that every rebuilt driver was
        built from that config (:func:`check_driver_identity`) — anything
        else would make the merge silently wrong.
        """
        envelopes = []
        for j, cli in enumerate(self._clients):
            self.network.send_down(j, None, bits=REQUEST_BITS,
                                   label="pull_state-req")
            envelopes.append(cli.pull_state())
        configs = [ServiceConfig.from_dict(env["config"]) for env in envelopes]
        base = configs[0]
        for j, cfg in enumerate(configs[1:], start=1):
            if cfg != base:
                raise ValueError(
                    f"site {j} config {cfg} differs from site 0 config "
                    f"{base}; a fleet must share one (params, seed)")
        ingests = []
        for j, env in enumerate(envelopes):
            ingest = sharded_state_from_dict(env["ingest"])
            check_driver_identity(base, ingest, f"site {j}")
            self.network.send_up(j, None, bits=pull_state_bits(ingest),
                                 label="pull_state")
            ingests.append(ingest)
        return base, ingests, envelopes

    def merged_service(self) -> ClusteringService:
        """Pull every site and return a service over the merged state.

        The returned :class:`ClusteringService` runs the *exact* engine
        query path — same solver seed, restarts, and capacity policy as
        any single-process service with this config — so its answers are
        bit-identical to the reference the fleet tests compare against.
        """
        config, ingests, envelopes = self.pull_ingests()
        self.last_envelopes = envelopes
        merged = merge_sharded(ingests)
        service = ClusteringService(config, ingest=merged)
        service.bytes_ingested = sum(map(envelope_bytes_ingested, envelopes))
        return service

    def close(self) -> None:
        """Close every site connection (idempotent)."""
        for cli in self._clients:
            cli.close()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ------------------------------------------------------------ site process
_BANNER_RE = re.compile(r"listening on ([\d.]+):(\d+)")


def _serve_argv(config: ServiceConfig, port: int = 0,
                restore: str | None = None) -> list[str]:
    """The ``repro serve`` command line reproducing ``config`` exactly;
    ``ValueError`` for an ``o_range``, which ``repro serve`` cannot express
    (its sites would run another guess schedule)."""
    if config.o_range is not None:
        raise ValueError(
            f"fleet sites cannot run o_range={config.o_range!r}: `repro serve` "
            "has no flag for it; leave o_range unset (the ℓ₀ pilot)")
    argv = [sys.executable, "-m", "repro", "serve", "--port", str(port),
            "--k", str(config.k), "--d", str(config.d),
            "--delta", str(config.delta), "--r", str(config.r),
            "--eps", str(config.eps), "--eta", str(config.eta),
            "--backend", config.backend,
            "--capacity-slack", str(config.capacity_slack),
            "--restarts", str(config.restarts),
            "--seed", str(config.seed)]
    if restore is not None:
        argv += ["--restore", str(restore)]
    return argv


class SiteProcess:
    """One spawned ``repro serve`` worker — a real site of the fleet.

    The subprocess runs the stock CLI entry point (the same binary
    operators run), binds an ephemeral port, and reports it through its
    startup banner, which :meth:`spawn` parses.
    """

    def __init__(self, site_id: int, config: ServiceConfig,
                 host: str = "127.0.0.1"):
        self.site_id = int(site_id)
        self.config = config
        self.host = host
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def spawn(self, restore: str | None = None, timeout_s: float = 30.0) -> tuple[str, int]:
        """Start the server process; returns ``(host, port)`` once bound."""
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = (src_dir + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_dir)
        # Sites must not inherit the driver's fault plan: site.kill is the
        # *driver's* fault point (it kills the subprocess), and in-server
        # faults are a separate experiment (bench_service_chaos).
        env.pop("REPRO_FAULT_PLAN", None)
        self.proc = subprocess.Popen(
            _serve_argv(self.config, port=0, restore=restore),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        deadline = time.monotonic() + timeout_s
        line = ""
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            m = _BANNER_RE.search(line)
            if m:
                self.address = (m.group(1), int(m.group(2)))
                return self.address
        raise RuntimeError(
            f"site {self.site_id} did not start (last output: {line!r})")

    def is_alive(self) -> bool:
        """Whether the subprocess is still running."""
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL the site (the ``site.kill`` fault action) and reap it."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)

    def shutdown(self, timeout_s: float = 30.0) -> None:
        """Graceful stop over the wire, falling back to SIGKILL."""
        if self.proc is None or self.proc.poll() is not None:
            return
        try:
            if self.address is not None:
                with ServiceClient(*self.address, retries=0, timeout=5.0) as cli:
                    cli.shutdown()
            self.proc.wait(timeout=timeout_s)
        except Exception:
            self.kill()


class FleetRunner:
    """Spawn and supervise ``num_sites`` real site processes.

    Owns a working directory for per-site recovery checkpoints.  All
    sites share one :class:`ServiceConfig` — the precondition for exact
    merging — and every restart rebuilds the site from the stock CLI, so
    recovery exercises the same path an operator would.
    """

    def __init__(self, config: ServiceConfig, num_sites: int,
                 workdir=None, host: str = "127.0.0.1"):
        if num_sites < 1:
            raise ValueError(f"num_sites must be >= 1, got {num_sites}")
        self.config = config
        self.num_sites = int(num_sites)
        self._owns_workdir = workdir is None
        self.workdir = Path(workdir) if workdir is not None else Path(
            tempfile.mkdtemp(prefix="repro_fleet_"))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self.sites: list[SiteProcess] = []
        self.restarts = 0

    def start(self) -> list[tuple[str, int]]:
        """Spawn every site; returns their addresses."""
        self.sites = [SiteProcess(j, self.config, host=self.host)
                      for j in range(self.num_sites)]
        return [site.spawn() for site in self.sites]

    def addresses(self) -> list[tuple[str, int]]:
        """Current ``(host, port)`` of every site (ports move on restart)."""
        return [site.address for site in self.sites]

    def checkpoint_path(self, site_id: int) -> Path:
        """Where site ``site_id``'s recovery checkpoints live."""
        return self.workdir / f"site-{site_id}.ckpt.json"

    def kill_site(self, site_id: int) -> None:
        """SIGKILL one site (fault injection's hammer)."""
        self.sites[site_id].kill()

    def restart_site(self, site_id: int, restore: str | None = None,
                     ) -> tuple[str, int]:
        """Replace a dead (or killed) site with a fresh process, optionally
        restored from its last recovery checkpoint; returns the new address."""
        old = self.sites[site_id]
        old.kill()
        site = SiteProcess(site_id, self.config, host=self.host)
        site.spawn(restore=restore)
        self.sites[site_id] = site
        self.restarts += 1
        return site.address

    def close(self) -> None:
        """Stop every site and remove an owned workdir (idempotent)."""
        for site in self.sites:
            site.shutdown()
        self.sites = []
        if self._owns_workdir and self.workdir.exists():
            shutil.rmtree(self.workdir, ignore_errors=True)

    def __enter__(self) -> "FleetRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------- feeding
class SiteFeeder:
    """Deliver one site its local stream with exactly-once recovery.

    Every batch is journaled before it is sent; every ``checkpoint_every``
    acked batches the site is checkpointed over the wire (into the
    runner's workdir) and the journal truncated.  When the site dies —
    the ``site.kill`` fault point fires between batches, or a send runs
    out of retries — the feeder restarts it from the last checkpoint and
    replays the journal.  Acks happen only after application and
    checkpoints only after acks, so restore + replay applies each batch
    exactly once and the recovered site is bit-identical to an unkilled
    one.
    """

    def __init__(self, runner: FleetRunner, site_id: int,
                 stream_id: str | None = None, checkpoint_every: int | None = 4,
                 retries: int = 2, timeout: float = 30.0):
        self.runner = runner
        self.site_id = int(site_id)
        self.stream_id = stream_id
        self.checkpoint_every = checkpoint_every
        host, port = runner.sites[site_id].address
        self.client = ServiceClient(host, port, timeout=timeout,
                                    stream_id=stream_id, retries=retries,
                                    backoff_s=0.02, backoff_cap_s=0.2)
        self.journal: list[tuple[str, np.ndarray]] = []
        self.batches_sent = 0
        self.events_sent = 0
        self.recoveries = 0
        self._since_checkpoint = 0
        self._has_checkpoint = False

    # ------------------------------------------------------------ ingestion
    def apply(self, op: str, rows: np.ndarray) -> int:
        """Apply one batch (``"insert"`` or ``"delete"``) with recovery.

        Fires the ``site.kill`` fault point first — a kill always lands
        *between* batches, the deterministic schedule the chaos tests
        replay — then sends, recovering the site if the send fails.
        """
        rows = np.asarray(rows)
        if op not in ("insert", "delete"):
            raise ValueError(f"unknown feeder op {op!r}")
        act = fault_point("site.kill", site=self.site_id,
                          batch=self.batches_sent)
        if act is not None:
            self.runner.kill_site(self.site_id)
        self.journal.append((op, rows))
        try:
            applied = self._send(op, rows)
        except ServiceUnavailable:
            self._recover()
            applied = len(rows)  # replay delivered the whole journal
        self.batches_sent += 1
        self.events_sent += len(rows)
        self._since_checkpoint += 1
        if (self.checkpoint_every is not None
                and self._since_checkpoint >= self.checkpoint_every):
            self.checkpoint()
        return applied

    def insert(self, rows) -> int:
        """Insert one batch of (n, d) rows into the site's stream."""
        return self.apply("insert", rows)

    def delete(self, rows) -> int:
        """Delete one batch of (n, d) rows from the site's stream."""
        return self.apply("delete", rows)

    def _send(self, op: str, rows: np.ndarray) -> int:
        fn = self.client.insert if op == "insert" else self.client.delete
        return fn(rows, batch_size=max(1, len(rows)))

    # ------------------------------------------------------------- recovery
    def checkpoint(self) -> None:
        """Checkpoint the site over the wire and truncate the journal."""
        path = self.runner.checkpoint_path(self.site_id)
        self.client.checkpoint(str(path))
        self.journal.clear()
        self._since_checkpoint = 0
        self._has_checkpoint = True

    def _recover(self) -> None:
        """Restart the dead site from its last checkpoint and replay the
        journal (which includes the batch whose send just failed)."""
        restore = (str(self.runner.checkpoint_path(self.site_id))
                   if self._has_checkpoint else None)
        host, port = self.runner.restart_site(self.site_id, restore=restore)
        self.client.host, self.client.port = host, port
        self.client.close()  # drop the poisoned connection; next send redials
        for op, rows in self.journal:
            self._send(op, rows)
        self.recoveries += 1

    def close(self) -> None:
        """Close the wire connection (the site keeps running)."""
        self.client.close()


# ------------------------------------------------------------ fleet driver
def plan_site_ops(points: np.ndarray, num_sites: int, *, seed: int = 0,
                  mode: str = "random", batch_size: int = 512,
                  delete_fraction: float = 0.0) -> list[list[tuple[str, np.ndarray]]]:
    """Deterministic per-site batch schedule for one fleet run.

    Partitions ``points`` over sites with
    :meth:`Network.partition`'s exact policy (same ``seed``/``mode`` ⇒ same
    shares), chunks each share into insert batches, and optionally appends
    delete batches for the first ``delete_fraction`` of each share — the
    churn that makes linearity visible.  Both :func:`run_fleet` and
    :func:`simulate_fleet` consume this schedule, so the real and
    simulated runs see identical streams.
    """
    net = Network.partition(points, num_sites, seed=seed, mode=mode)
    ops: list[list[tuple[str, np.ndarray]]] = []
    step = max(1, int(batch_size))
    for machine in net.machines:
        local = machine.points
        site_ops = [("insert", local[lo: lo + step])
                    for lo in range(0, len(local), step)]
        doomed = local[: int(len(local) * delete_fraction)]
        site_ops += [("delete", doomed[lo: lo + step])
                     for lo in range(0, len(doomed), step)]
        ops.append([(op, rows) for op, rows in site_ops if len(rows)])
    return ops


def _reference_service(config: ServiceConfig,
                       site_ops: list[list[tuple[str, np.ndarray]]],
                       ) -> ClusteringService:
    """Single-process reference fed the same batches in site order.

    Batch structure is preserved (one version bump per batch), so even
    the version counter matches the fleet's merged state exactly.
    """
    ref = ClusteringService(config)
    for ops in site_ops:
        for op, rows in ops:
            (ref.insert if op == "insert" else ref.delete)(rows)
    return ref


def _ingest_json(ingest) -> str:
    """Canonical JSON of a full ingest state (the bit-identity comparison
    medium; JSON round-trips our arbitrary-precision keys)."""
    return json.dumps(ingest.to_state_dict(), sort_keys=True,
                      separators=(",", ":"))


def simulate_fleet(config: ServiceConfig,
                   site_ops: list[list[tuple[str, np.ndarray]]],
                   ) -> tuple[ClusteringService, Network]:
    """In-process twin of a fleet run, charging the identical bit policy.

    Builds one in-process service per site, applies the planned batches,
    then performs the coordinator's exchange — one ``site_stats`` poll and
    one ``pull_state`` per site — against a fresh bit meter.  Returns the
    merged service and the meter; the real run's ``uplink_bits`` /
    ``downlink_bits`` must equal this meter's exactly (the sketches hold
    identical contents, and both paths charge through the same policy
    functions).
    """
    network = accountant(len(site_ops))
    services = []
    for ops in site_ops:
        svc = ClusteringService(config)
        for op, rows in ops:
            (svc.insert if op == "insert" else svc.delete)(rows)
        services.append(svc)
    for j, svc in enumerate(services):
        network.send_down(j, None, bits=REQUEST_BITS, label="site_stats-req")
        network.send_up(j, None, bits=float_bits(len(SITE_STATS_FIELDS)),
                        label="site_stats")
    ingests = []
    for j, svc in enumerate(services):
        network.send_down(j, None, bits=REQUEST_BITS, label="pull_state-req")
        ingest = sharded_state_from_dict(svc.ingest.to_state_dict())
        network.send_up(j, None, bits=pull_state_bits(ingest),
                        label="pull_state")
        ingests.append(ingest)
        svc.close()
    merged = ClusteringService(config, ingest=merge_sharded(ingests))
    return merged, network


def run_fleet(config: ServiceConfig, points: np.ndarray, num_sites: int, *,
              partition_seed: int = 0, mode: str = "random",
              batch_size: int = 512, delete_fraction: float = 0.0,
              checkpoint_every: int | None = 4, stream_id: str | None = None,
              verify: bool = True, query: bool = True,
              workdir=None) -> dict:
    """One end-to-end fleet run: spawn, feed, pull, merge, account, verify.

    Spawns ``num_sites`` real ``repro serve`` processes, feeds each its
    :func:`plan_site_ops` share (recovering any site the active fault
    plan kills), then pulls and merges all site states through a
    bit-metered :class:`Coordinator`.  With ``verify=True`` the merged
    state is compared byte-for-byte against a single-process reference
    fed the same batches and against the pulled sites folded in reverse
    order, and the measured wire bits against :func:`simulate_fleet`'s
    accounting of the identical schedule.

    Returns a JSON-safe report (sites, events, bits, each site's
    ``pull_state`` envelope bytes, timings, verify verdicts) — the record
    `bench_fleet.py` appends to BENCH_service.json.
    """
    site_ops = plan_site_ops(points, num_sites, seed=partition_seed,
                             mode=mode, batch_size=batch_size,
                             delete_fraction=delete_fraction)
    # The config the sites' tenant actually runs: a named stream gets its
    # per-tenant derived seed (identically on every site), so the reference
    # and the simulation must derive it the same way.
    effective = TenantRegistry(config).tenant_config(
        stream_id if stream_id is not None else DEFAULT_STREAM_ID)
    report: dict = {
        "sites": num_sites,
        "events": int(sum(len(r) for ops in site_ops for _, r in ops)),
        "batches": int(sum(len(ops) for ops in site_ops)),
        "partition_mode": mode,
        "config": config.to_dict(),
    }
    network = accountant(num_sites)
    merged = reference = None
    with FleetRunner(config, num_sites, workdir=workdir) as runner:
        runner.start()
        feeders = [SiteFeeder(runner, j, stream_id=stream_id,
                              checkpoint_every=checkpoint_every)
                   for j in range(num_sites)]
        try:
            t0 = time.perf_counter()
            for j, ops in enumerate(site_ops):
                for op, rows in ops:
                    feeders[j].apply(op, rows)
            ingest_s = time.perf_counter() - t0
            report["recoveries"] = sum(f.recoveries for f in feeders)
            report["restarts"] = runner.restarts
            with Coordinator(runner.addresses(), network=network,
                             stream_id=stream_id) as coord:
                t0 = time.perf_counter()
                report["site_stats"] = coord.poll_site_stats()
                merged = coord.merged_service()
                report["merge_s"] = round(time.perf_counter() - t0, 3)
                envelopes = coord.last_envelopes
        finally:
            for f in feeders:
                f.close()
    report.update({
        "ingest_s": round(ingest_s, 3),
        "events_per_s": int(report["events"] / max(ingest_s, 1e-9)),
        "uplink_bits": network.uplink_bits,
        "downlink_bits": network.downlink_bits,
        "messages": network.messages,
        "pull_state_bytes": [len(encode_message(env)) for env in envelopes],
    })
    try:
        if query:
            result, _ = merged.query()
            report["result"] = result.to_dict()
        if verify:
            reference = _reference_service(effective, site_ops)
            merged_json = _ingest_json(merged.ingest)
            report["state_identical"] = merged_json == _ingest_json(reference.ingest)
            # Sketch addition commutes, and the state bytes are canonical:
            # folding the pulled sites in reverse gives the same bytes.
            report["reverse_fold_identical"] = merged_json == _ingest_json(merge_sharded(
                [sharded_state_from_dict(env["ingest"]) for env in reversed(envelopes)]))
            if query:
                ref_result, _ = reference.query()
                report["answer_identical"] = (
                    result.to_dict() == ref_result.to_dict())
            sim_merged, sim_net = simulate_fleet(effective, site_ops)
            report["sim_uplink_bits"] = sim_net.uplink_bits
            report["sim_downlink_bits"] = sim_net.downlink_bits
            report["bits_match_simulation"] = (
                network.uplink_bits == sim_net.uplink_bits
                and network.downlink_bits == sim_net.downlink_bits)
            sim_merged.close()
            report["passed"] = bool(
                report["state_identical"]
                and report["reverse_fold_identical"]
                and report.get("answer_identical", True)
                and report["bits_match_simulation"])
    finally:
        if merged is not None:
            merged.close()
        if reference is not None:
            reference.close()
    return report
