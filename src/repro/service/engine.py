"""The query engine: a service over one streaming driver, its answers
solved on demand and memoized by version.

A service keeps its stream in one driver
(:class:`~repro.service.shards.ShardedIngest`); checkpoints written with N
in-process shards restore with their shards folded into it.  A query is
expensive — a copy of the driver, sketch decode, coreset assembly,
capacitated solve — while ingest is cheap.  The engine
therefore keys its single-entry result cache on the ingest layer's state
*version* (bumped once per applied batch): repeated queries against an
unchanged stream return the memoized :class:`QueryResult` in O(1), and any
intervening ingest invalidates it implicitly, with no bookkeeping beyond an
integer comparison.  ``stats()`` exposes hit/miss counters so cache behavior
is observable over the wire.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.io import params_to_dict, read_json
from repro.core.params import CoresetParams
from repro.service.shards import ShardedIngest
from repro.service.state import (
    READABLE_FORMAT_VERSIONS,
    STATE_FORMAT_VERSION,
    check_count,
    sharded_state_from_dict,
    write_checkpoint,
)
from repro.solvers.capacitated_lloyd import CapacitatedKClustering
from repro.streaming.stream import events_to_arrays
from repro.utils.rng import derive_seed
from repro.utils.validation import check_o_range, coerce_integral_rows

__all__ = [
    "ServiceConfig",
    "QueryResult",
    "ClusteringService",
    "check_capacity_slack",
    "check_driver_identity",
    "envelope_bytes_ingested",
]


def check_capacity_slack(value) -> float:
    """``value`` as a float; ``ValueError`` unless it is finite and >= 1.

    Below 1 every solve is infeasible: the total capacity k·t = slack·W is
    less than the total weight W that has to be placed.
    """
    slack = float(value)
    if not (math.isfinite(slack) and slack >= 1.0):
        raise ValueError(
            f"capacity_slack must be finite and >= 1, got {value!r}")
    return slack


def check_driver_identity(config: ServiceConfig, ingest: ShardedIngest,
                          what: str) -> None:
    """``ValueError`` unless a restored driver was built from its config:
    the same parameters, seed, backend and guess window (a ``k = 3`` or
    seed-6 driver must not run under a ``k = 2``, seed-5 config)."""
    driver = ingest.driver
    if (driver.params, driver.seed, driver.backend, driver.o_range) != (
            config.make_params(), config.seed, config.backend,
            check_o_range(config.o_range)):
        raise ValueError(f"{what} sketch parameters, seed, backend or o_range "
                         "do not match its config")


def envelope_bytes_ingested(payload: dict) -> int:
    """A checkpoint envelope's ``counters.bytes_ingested``, a non-negative
    JSON integer (a negative one would grant that much extra byte quota)."""
    return check_count(payload.get("counters", {}).get("bytes_ingested", 0),
                       "bytes_ingested")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to (re)create a service instance."""

    k: int
    d: int
    delta: int
    r: float = 2.0
    eps: float = 0.25
    eta: float = 0.25
    #: Always 1: a service holds one driver per tenant.  Any value >= 1 is
    #: accepted and read as 1, because checkpoints written when a service
    #: split its stream over N in-process shards carry ``num_shards: N``
    #: (their shards fold into the one driver on restore).  Process
    #: parallelism is the fleet's: separate ``repro serve`` sites whose
    #: sketches a coordinator sums (:mod:`repro.distributed.fleet`).
    num_shards: int = 1
    #: Always 0, for the same reason: v1 checkpoints carry ``"workers":0``.
    workers: int = 0
    seed: int = 0
    backend: str = "exact"
    #: Uniform capacity as a multiple of total_weight/k at query time.
    capacity_slack: float = 1.2
    #: k-means++ restarts of the capacitated solver per query.
    restarts: int = 2
    #: Optional guess window (lo, hi), finite with 0 <= lo <= hi; None runs
    #: the ℓ₀ pilot over the full guess range.
    o_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.workers != 0:
            raise ValueError(
                f"workers must be 0, got {self.workers}: a service runs one "
                "driver in-process; for process parallelism run a fleet of "
                "`repro serve` sites (`repro coordinator --sites spawn:N`)")
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        object.__setattr__(self, "num_shards", 1)
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        check_capacity_slack(self.capacity_slack)
        check_o_range(self.o_range)

    def make_params(self) -> CoresetParams:
        """The :class:`CoresetParams` of the service's driver."""
        return CoresetParams.practical(k=self.k, d=self.d, delta=self.delta,
                                       r=self.r, eps=self.eps, eta=self.eta)

    def to_dict(self) -> dict:
        """JSON-safe form (inverse: :meth:`from_dict`)."""
        data = dataclasses.asdict(self)
        data["o_range"] = list(self.o_range) if self.o_range is not None else None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceConfig":
        data = dict(data)
        # Envelopes of the removed worker pool: ``workers = N > 0`` ran one
        # shard per process and wrote the same ingest block as N in-process
        # shards (older ones also carry its ``supervise`` flag).
        data.pop("supervise", None)
        if data.get("workers", 0) > 0:
            data["workers"] = 0
        if data.get("o_range") is not None:
            data["o_range"] = tuple(data["o_range"])
        return cls(**data)


@dataclass(frozen=True)
class QueryResult:
    """One solved clustering snapshot of the live stream."""

    #: (k, d) solved centers in grid coordinates.
    centers: np.ndarray
    #: Capacitated cost of the solution *on the coreset*.
    cost: float
    #: Uniform capacity used by the solve.
    capacity: float
    #: Coreset size the solve ran on.
    coreset_size: int
    #: Accepted guess o of the winning instance.
    o: float
    #: Ingest-state version this result reflects.
    version: int

    def to_dict(self) -> dict:
        """JSON-safe form for the wire protocol."""
        return {
            "centers": self.centers.tolist(),
            "cost": self.cost,
            "capacity": self.capacity,
            "coreset_size": self.coreset_size,
            "o": self.o,
            "version": self.version,
        }


class ClusteringService:
    """Long-lived balanced-clustering service over one dynamic stream.

    Thread-safe: one lock serializes state mutation and queries (the wire
    server calls in from ``asyncio.to_thread`` workers).  All randomness is
    seeded through the config, so two services fed the same events answer
    identically.
    """

    def __init__(self, config: ServiceConfig, ingest=None):
        self.config = config
        self.params = config.make_params()
        if ingest is None:
            ingest = ShardedIngest(self.params, seed=config.seed,
                                   backend=config.backend,
                                   o_range=config.o_range)
        self.ingest = ingest
        self._lock = threading.RLock()
        self._cached: QueryResult | None = None
        self.queries = 0
        self.cache_hits = 0
        #: Nominal ingested volume (8 bytes per coordinate per event) —
        #: the figure tenant byte-quotas are enforced against.  Persisted
        #: in checkpoints so eviction/restore cannot reset a quota.
        self.bytes_ingested = 0

    def close(self) -> None:
        """Nothing to release: the driver lives in this process's memory.
        Kept so owners (the tenant registry, ``with`` blocks) can end a
        service's lifetime explicitly."""

    def __enter__(self) -> "ClusteringService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- ingest
    def insert(self, points) -> int:
        """Insert rows of an (n, d) int array; returns events applied."""
        return self._apply_rows(points, 1)

    def delete(self, points) -> int:
        """Delete rows of an (n, d) int array; returns events applied."""
        return self._apply_rows(points, -1)

    def _apply_rows(self, points, sign: int) -> int:
        rows = coerce_integral_rows(points)
        with self._lock:
            n = self.ingest.apply_arrays(rows, np.full(len(rows), sign, dtype=np.int64))
            self.bytes_ingested += n * 8 * self.params.d
            return n

    def apply_events(self, events) -> int:
        """Apply a mixed batch of (point, ±1) events."""
        rows, signs = events_to_arrays(events, d=self.params.d)
        with self._lock:
            n = self.ingest.apply_arrays(rows, signs)
            self.bytes_ingested += n * 8 * self.params.d
            return n

    # -------------------------------------------------------------- queries
    def query(self, capacity_slack: float | None = None) -> tuple[QueryResult, bool]:
        """Solve capacitated k-clustering on the current live set.

        Returns ``(result, cache_hit)``.  A non-default ``capacity_slack``
        bypasses the cache (the memoized solve used the configured slack);
        it must be finite and >= 1 (:func:`check_capacity_slack`).
        """
        if capacity_slack is not None:
            capacity_slack = check_capacity_slack(capacity_slack)
        with self._lock:
            version = self.ingest.version
            self.queries += 1
            if (capacity_slack is None and self._cached is not None
                    and self._cached.version == version):
                self.cache_hits += 1
                return self._cached, True
            slack = self.config.capacity_slack if capacity_slack is None else capacity_slack
            merged = self.ingest.merged_state()
        # Finalize + solve outside the lock: they only touch the merged
        # copy, which later ingest never writes into (it shares only
        # columns that ingest rebinds, never mutates), so ingest can
        # proceed concurrently.
        coreset, instance = merged.finalize_with_instance()
        capacity = max(coreset.total_weight / self.params.k * slack, 1e-12)
        if len(coreset):
            solver = CapacitatedKClustering(
                k=self.params.k, capacity=capacity, r=self.params.r,
                restarts=self.config.restarts,
                seed=derive_seed(self.config.seed, "service-solve"),
            )
            sol = solver.fit(coreset.points.astype(float), weights=coreset.weights)
            centers, cost = np.asarray(sol.centers, dtype=float), float(sol.cost)
        else:
            # An empty live set (or only guesses with empty coresets): no
            # centers to place, nothing to pay.
            centers, cost = np.empty((0, self.params.d)), 0.0
        result = QueryResult(
            centers=centers,
            cost=cost,
            capacity=float(capacity),
            coreset_size=len(coreset),
            o=float(coreset.o),
            version=version,
        )
        with self._lock:
            if capacity_slack is None:
                self._cached = result
        return result, False

    # ----------------------------------------------------------- persistence
    def state_payload(self, extra: dict | None = None) -> dict:
        """The full checkpoint envelope as a JSON-safe dict (no disk I/O).

        This is the one serialization of a live service: ``checkpoint``
        writes it to disk, and the ``pull_state`` wire op ships it to a
        fleet coordinator — the checkpoint format doubling as the transfer
        encoding, so anything that can restore a checkpoint can merge a
        pulled site state.  ``extra`` keys are merged into the envelope (the
        tenant registry stamps its stream id this way); they must not
        collide with the envelope's own fields.
        """
        with self._lock:
            payload = {
                "format_version": STATE_FORMAT_VERSION,
                "config": self.config.to_dict(),
                "counters": {"bytes_ingested": self.bytes_ingested},
                "ingest": self.ingest.to_state_dict(),
            }
            if extra:
                overlap = payload.keys() & extra.keys()
                if overlap:
                    raise ValueError(
                        f"checkpoint extra keys collide with envelope: {sorted(overlap)}")
                payload.update(extra)
            return payload

    def site_stats(self) -> dict:
        """Lightweight counters a fleet coordinator polls between pulls.

        Deliberately a fixed, small vocabulary (unlike :meth:`stats`): the
        fleet charges each ``site_stats`` reply a constant number of bits,
        so the payload must stay a handful of scalar counters.
        """
        with self._lock:
            ingest = self.ingest
            return {
                "version": ingest.version,
                "events": ingest.num_events,
                "insertions": ingest.num_insertions,
                "deletions": ingest.num_deletions,
                "space_bits": ingest.space_bits(),
            }

    def checkpoint(self, path, extra: dict | None = None) -> dict:
        """Atomically persist config + full sketch state + version to disk
        (the :meth:`state_payload` envelope via
        :func:`~repro.service.state.write_checkpoint`)."""
        with self._lock:
            write_checkpoint(path, self.state_payload(extra=extra))
            return {"path": str(path), "version": self.ingest.version,
                    "events": self.ingest.num_events}

    @classmethod
    def restore(cls, path) -> "ClusteringService":
        """Rebuild a service from :meth:`checkpoint` output.

        The restored instance is bit-identical: same hash randomness (it is
        derived from the config seed), same sketch contents, same version —
        so its next ``query`` answers exactly as the checkpointed process
        would have.
        """
        return cls.from_payload(read_json(path))

    @classmethod
    def from_payload(cls, payload: dict) -> "ClusteringService":
        """Rebuild a service from an already-parsed checkpoint envelope.

        Split out of :meth:`restore` so callers that need the envelope's
        other fields (the tenant registry reads its stamped ``tenant``
        block) can parse the JSON once.
        """
        if payload.get("format_version") not in READABLE_FORMAT_VERSIONS:
            raise ValueError(
                f"unsupported service checkpoint format {payload.get('format_version')!r}"
            )
        config = ServiceConfig.from_dict(payload["config"])
        ingest = sharded_state_from_dict(payload["ingest"])
        check_driver_identity(config, ingest, "checkpoint")
        service = cls(config, ingest=ingest)
        service.bytes_ingested = envelope_bytes_ingested(payload)
        return service

    def restore_in_place(self, path) -> None:
        """Replace this service's state with a checkpoint (keeps the object,
        and hence the wire server holding it, alive)."""
        fresh = ClusteringService.restore(path)
        with self._lock:
            self.config = fresh.config
            self.params = fresh.params
            self.ingest = fresh.ingest
            self.bytes_ingested = fresh.bytes_ingested
            self._cached = None

    # ---------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Operational counters (also served over the wire)."""
        with self._lock:
            return {
                "version": self.ingest.version,
                "events": self.ingest.num_events,
                "insertions": self.ingest.num_insertions,
                "deletions": self.ingest.num_deletions,
                "live_points": self.ingest.num_insertions - self.ingest.num_deletions,
                "bytes_ingested": self.bytes_ingested,
                "queries": self.queries,
                "cache_hits": self.cache_hits,
                "cached_version": (self._cached.version
                                   if self._cached is not None else None),
                "space_bits": self.ingest.space_bits(),
                "params": params_to_dict(self.params),
            }

