"""Multi-tenant registry: one named stream per sketch, evictable to disk.

The paper's summary is a small linear sketch, which is what lets one server
host *many* independent logical streams: each tenant is a full
:class:`~repro.service.engine.ClusteringService` (one streaming driver +
version-keyed query cache), created lazily the first time its ``stream_id``
is touched.  Because a tenant's entire state checkpoints to a small JSON
file and restores bit-identically (PR 1's atomic checkpoint format), cold
tenants do not have to stay resident: the registry keeps at most
``max_live_tenants`` sketches in memory and transparently evicts the
least-recently-used ones to ``tenants_dir``, restoring them on their next
touch.  A tenant that was evicted and restored answers queries exactly as
one that never left memory — the eviction tests assert bit-identity.

Concurrency model (all blocking; the asyncio front end calls in via worker
threads):

- A **lease** pins a tenant for the duration of one operation.  Pinned
  tenants are never evicted, so an in-flight ingest or query can never
  observe its service being closed under it.
- Within a tenant, the service's own lock serializes mutation — per-tenant
  serialization, no global ingest lock.  Queries snapshot the merged state
  under that lock and solve outside it, so reads do not block ingest.
- The registry's global lock protects only the record map and the
  recency clock; it is never held across sketch work, so tenants do not
  contend with each other.

Per-tenant randomness is derived from the base config's seed and the
stream id (``derive_seed(seed, "tenant:<id>")``), so distinct tenants get
independent hash functions while every tenant remains exactly reproducible
— :meth:`TenantRegistry.tenant_config` exposes the derived config, and the
isolation tests rebuild reference single-tenant services from it.  The
:data:`~repro.service.protocol.DEFAULT_STREAM_ID` tenant keeps the base
seed unchanged, so a multi-tenant server addressed by a pre-tenant client
behaves bit-identically to one :class:`ClusteringService` built from the
base config.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.io import read_json
from repro.service.engine import (
    ClusteringService,
    ServiceConfig,
    check_capacity_slack,
)
from repro.service.eviction import LRUEvictionPolicy
from repro.service.protocol import DEFAULT_STREAM_ID, ProtocolError
from repro.service.state import tenant_checkpoint_filename, tenant_id_from_filename
from repro.utils.rng import derive_seed

__all__ = [
    "CircuitBreaker",
    "QuotaExceeded",
    "TenantDegraded",
    "TenantQuota",
    "TenantRegistry",
]


class QuotaExceeded(RuntimeError):
    """A tenant operation would exceed its configured quota.

    Mapped to an ``{"ok": false, "error": "quota exceeded: ..."}`` envelope
    at the wire layer; the offending batch is rejected atomically (zero
    events applied, no version bump).
    """

    def __init__(self, stream_id: str, message: str):
        super().__init__(message)
        self.stream_id = stream_id


class TenantDegraded(RuntimeError):
    """A tenant's circuit breaker is open: its recent operations kept
    failing, so further requests are rejected fast (without touching the
    sketch) until the cooldown passes.  Mapped to the structured
    ``degraded`` error envelope at the wire layer, which carries
    ``retry_after_s`` so clients back off instead of hammering.
    """

    def __init__(self, stream_id: str, retry_after_s: float):
        super().__init__(
            f"stream {stream_id!r} is degraded (circuit open); "
            f"retry in {retry_after_s:.2f}s")
        self.stream_id = stream_id
        self.retry_after_s = float(retry_after_s)


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant ingest limits; ``None`` disables a limit.

    ``max_bytes`` is checked against the nominal encoded volume (8 bytes
    per coordinate per event) that :class:`ClusteringService` accumulates
    in ``bytes_ingested`` — persisted across eviction, so a quota cannot be
    reset by bouncing a tenant through disk.
    """

    max_events: int | None = None
    max_bytes: int | None = None


class CircuitBreaker:
    """Per-tenant fail-fast switch for the async front end.

    Closed (normal) → records consecutive failures; at
    ``failure_threshold`` it **opens**: operations are refused immediately
    (the server answers a structured ``degraded`` envelope instead of
    queueing callers behind a broken or recovering backend).  After
    ``cooldown_s`` one probe operation is let through (**half-open**);
    success closes the breaker, failure re-opens it for another cooldown.

    ``clock`` is injectable for deterministic tests.  Thread-safe: wire
    handler threads for one tenant may race.
    """

    def __init__(self, failure_threshold: int = 3, cooldown_s: float = 5.0,
                 clock=None):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.times_opened = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"``."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether an operation may proceed right now."""
        with self._lock:
            if self._state == "closed":
                return True
            now = self._clock()
            if self._state == "open":
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._state = "half-open"
                self._probing = True
                return True  # the single probe
            # half-open: one probe at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probing = False
            if (self._state == "half-open"
                    or self._consecutive_failures >= self.failure_threshold):
                if self._state != "open":
                    self.times_opened += 1
                self._state = "open"
                self._opened_at = self._clock()

    def retry_after_s(self) -> float:
        """Seconds until the next probe is allowed (0 when not open)."""
        with self._lock:
            if self._state != "open":
                return 0.0
            return max(0.0, self.cooldown_s - (self._clock() - self._opened_at))

    def snapshot(self) -> dict:
        """JSON-safe state for ``stats``/``tenants`` rows."""
        with self._lock:
            remaining = 0.0
            if self._state == "open":
                remaining = max(0.0, self.cooldown_s
                                - (self._clock() - self._opened_at))
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "times_opened": self.times_opened,
                "retry_after_s": round(remaining, 3),
            }


class _TenantRecord:
    """Registry-internal bookkeeping for one stream id."""

    __slots__ = ("stream_id", "service", "lock", "pins", "evictions",
                 "restores", "last_known")

    def __init__(self, stream_id: str):
        self.stream_id = stream_id
        self.service: ClusteringService | None = None
        self.lock = threading.Lock()  # guards service presence transitions
        self.pins = 0                 # in-flight leases; >0 blocks eviction
        self.evictions = 0
        self.restores = 0
        self.last_known: dict = {}    # counters snapshot from the last evict


class TenantRegistry:
    """Lazily-created, LRU-evictable :class:`ClusteringService` per stream.

    Parameters
    ----------
    config:
        Base :class:`ServiceConfig`; every tenant shares its problem shape
        and gets a seed derived from ``(config.seed, stream_id)``.
    tenants_dir:
        Directory for eviction checkpoints (and for close-time persistence).
        ``None`` disables eviction — tenants then live until ``close()``.
    max_live_tenants:
        In-memory sketch budget; requires ``tenants_dir``.  ``None`` means
        unbounded.
    quota:
        Optional :class:`TenantQuota` applied to every tenant.
    breaker_threshold / breaker_cooldown_s:
        Per-tenant circuit breaker: after ``breaker_threshold`` consecutive
        failed operations a tenant is *degraded* — its requests are
        rejected fast with :class:`TenantDegraded` for ``breaker_cooldown_s``
        seconds, then a single probe request is let through (half-open).
        Failures are counted per tenant, so one tenant's broken workload
        (bad disk for its checkpoints, say) cannot brown-out the rest.
    """

    def __init__(self, config: ServiceConfig, tenants_dir=None,
                 max_live_tenants: int | None = None,
                 quota: TenantQuota | None = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown_s: float = 5.0):
        if max_live_tenants is not None:
            if max_live_tenants < 1:
                raise ValueError(
                    f"max_live_tenants must be >= 1, got {max_live_tenants}")
            if tenants_dir is None:
                raise ValueError("max_live_tenants requires a tenants_dir "
                                 "to evict checkpoints into")
        self.config = config
        self.tenants_dir = Path(tenants_dir) if tenants_dir is not None else None
        if self.tenants_dir is not None:
            self.tenants_dir.mkdir(parents=True, exist_ok=True)
        self.max_live_tenants = max_live_tenants
        self.quota = quota
        self._policy = LRUEvictionPolicy()
        self._records: dict[str, _TenantRecord] = {}
        #: Live-tenant index: exactly the records whose ``service`` is
        #: resident.  Kept in lockstep with every load/evict/close
        #: transition so the eviction victim scan and ``live_count`` are
        #: O(live tenants), not O(known tenants) — with thousands of cold
        #: tenants on disk, scanning ``_records`` per lease would dominate.
        self._live: dict[str, _TenantRecord] = {}
        self._lock = threading.RLock()
        self._closed = False
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_cooldown_s = float(breaker_cooldown_s)
        self._breakers: dict[str, CircuitBreaker] = {}
        #: Bounded log of eviction checkpoints that failed to write (the
        #: victim stays live; surfaced via ``tenants``/``stats``).
        self.eviction_failures: list[dict] = []

    # ------------------------------------------------------------- configs
    def tenant_config(self, stream_id: str) -> ServiceConfig:
        """The exact config a tenant's service is built from — seed derived
        per stream (default tenant keeps the base seed for pre-tenant
        compatibility).  A single-tenant :class:`ClusteringService` built
        from this config and fed the same events answers bit-identically to
        the tenant, which is what the isolation tests assert."""
        if stream_id == DEFAULT_STREAM_ID:
            return self.config
        return dataclasses.replace(
            self.config, seed=derive_seed(self.config.seed, f"tenant:{stream_id}"))

    def _tenant_path(self, stream_id: str) -> Path:
        return self.tenants_dir / tenant_checkpoint_filename(stream_id)

    def _breaker(self, stream_id: str) -> CircuitBreaker:
        """The tenant's circuit breaker (created on first touch).
        Caller holds the registry lock."""
        br = self._breakers.get(stream_id)
        if br is None:
            br = self._breakers[stream_id] = CircuitBreaker(
                failure_threshold=self._breaker_threshold,
                cooldown_s=self._breaker_cooldown_s)
        return br

    # -------------------------------------------------------------- leases
    @contextmanager
    def _lease(self, stream_id: str):
        """Pin a tenant for one operation, loading (create or restore) it
        if cold.  Eviction happens on the way in, so the live count never
        exceeds the budget by more than the concurrently pinned tenants.

        The tenant's circuit breaker brackets the lease: an open circuit
        rejects the operation before any sketch work, and the operation's
        outcome (exception vs. clean return) feeds the breaker.  Quota
        rejections, malformed requests and the degraded rejection itself
        are *not* failures — they are the service working as intended."""
        with self._lock:
            if self._closed:
                raise RuntimeError("tenant registry is closed")
            rec = self._records.get(stream_id)
            if rec is None:
                rec = self._records[stream_id] = _TenantRecord(stream_id)
            rec.pins += 1
            self._policy.touch(stream_id)
            breaker = self._breaker(stream_id)
        try:
            if not breaker.allow():
                raise TenantDegraded(stream_id, breaker.retry_after_s())
            try:
                if rec.service is None:
                    self._make_room(exclude=stream_id)
                with rec.lock:
                    if rec.service is None:
                        self._load_locked(rec)
                yield rec
            except (QuotaExceeded, TenantDegraded, ProtocolError):
                raise
            except Exception:
                breaker.record_failure()
                raise
            else:
                breaker.record_success()
        finally:
            with self._lock:
                rec.pins -= 1

    def _load_locked(self, rec: _TenantRecord) -> None:
        """Create a fresh tenant, or restore its eviction checkpoint.
        Caller holds ``rec.lock``."""
        path = (self._tenant_path(rec.stream_id)
                if self.tenants_dir is not None else None)
        if path is not None and path.exists():
            payload = read_json(path)
            meta = payload.get("tenant") or {}
            stamped = meta.get("stream_id")
            if stamped is not None and stamped != rec.stream_id:
                raise ValueError(
                    f"tenant checkpoint {path} is stamped for stream "
                    f"{stamped!r}, not {rec.stream_id!r}")
            rec.service = ClusteringService.from_payload(payload)
            rec.evictions = max(rec.evictions, int(meta.get("evictions", 0)))
            rec.restores += 1
        else:
            rec.service = ClusteringService(self.tenant_config(rec.stream_id))
        with self._lock:
            self._live[rec.stream_id] = rec

    # ------------------------------------------------------------- eviction
    def _make_room(self, exclude: str) -> None:
        """Evict cold tenants until one more can be loaded within budget.
        Pinned tenants are skipped; if everything is pinned the budget is
        allowed to overshoot and heals on the next lease."""
        if self.max_live_tenants is None:
            return
        failed: set[str] = set()  # victims whose checkpoint write failed this pass
        while True:
            with self._lock:
                # O(live): only the live index is scanned, never the full
                # record map — with 1000 known tenants and a budget of 4,
                # this loop touches 4 records, not 1000.
                excess = len(self._live) - self.max_live_tenants + 1
                evictable = [sid for sid, r in self._live.items()
                             if r.pins == 0 and sid != exclude
                             and sid not in failed]
                victims = self._policy.victims(evictable, excess)
                if not victims:
                    return
                vrec = self._records[victims[0]]
                vrec.pins += 1  # reserve: no competing evictor, no surprise close
            try:
                with vrec.lock:
                    with self._lock:
                        busy = vrec.pins > 1
                    if not busy and vrec.service is not None:
                        try:
                            self._evict_locked(vrec)
                        except OSError as exc:
                            # Disk said no (full volume, injected fault).
                            # The victim keeps its in-memory state — losing
                            # it would lose events — and the budget is
                            # allowed to overshoot; the next lease retries.
                            failed.add(vrec.stream_id)
                            with self._lock:
                                if len(self.eviction_failures) < 100:
                                    self.eviction_failures.append({
                                        "stream_id": vrec.stream_id,
                                        "error": str(exc),
                                    })
            finally:
                with self._lock:
                    vrec.pins -= 1

    def _evict_locked(self, rec: _TenantRecord) -> None:
        """Checkpoint one live tenant to disk and release its memory.
        Caller holds ``rec.lock``; the tenant is not pinned by anyone else."""
        service = rec.service
        info = service.checkpoint(
            self._tenant_path(rec.stream_id),
            extra={"tenant": {"stream_id": rec.stream_id,
                              "evictions": rec.evictions + 1}},
        )
        rec.last_known = {
            "events": info["events"],
            "version": info["version"],
            "bytes_ingested": service.bytes_ingested,
        }
        service.close()
        rec.service = None
        rec.evictions += 1
        with self._lock:
            # Recency bookkeeping for a cold tenant is dead weight; its
            # next touch re-registers it.
            self._live.pop(rec.stream_id, None)
            self._policy.forget(rec.stream_id)

    def evict(self, stream_id: str) -> bool:
        """Explicitly checkpoint one tenant to disk and drop it from memory
        (tests and operators; the LRU path calls the same internals).
        Returns False if the tenant is cold, unknown, or pinned."""
        if self.tenants_dir is None:
            raise RuntimeError("eviction requires a tenants_dir")
        with self._lock:
            rec = self._records.get(stream_id)
            if rec is None or rec.service is None or rec.pins > 0:
                return False
            rec.pins += 1
        try:
            with rec.lock:
                with self._lock:
                    busy = rec.pins > 1
                if busy or rec.service is None:
                    return False
                self._evict_locked(rec)
                return True
        finally:
            with self._lock:
                rec.pins -= 1

    # ---------------------------------------------------------------- quota
    def _check_quota(self, rec: _TenantRecord, n_events: int) -> None:
        if self.quota is None:
            return
        service = rec.service
        q = self.quota
        if (q.max_events is not None
                and service.ingest.num_events + n_events > q.max_events):
            raise QuotaExceeded(
                rec.stream_id,
                f"stream {rec.stream_id!r}: {n_events} events would exceed "
                f"the {q.max_events}-event quota "
                f"({service.ingest.num_events} already ingested)")
        n_bytes = n_events * 8 * service.params.d
        if (q.max_bytes is not None
                and service.bytes_ingested + n_bytes > q.max_bytes):
            raise QuotaExceeded(
                rec.stream_id,
                f"stream {rec.stream_id!r}: {n_bytes} bytes would exceed "
                f"the {q.max_bytes}-byte quota "
                f"({service.bytes_ingested} already ingested)")

    # ------------------------------------------------------------- operations
    def insert(self, stream_id: str, points) -> dict:
        """Insert rows of an (n, d) int array into one tenant's stream.

        ``points`` may instead be a callable ``params -> array`` run inside
        the lease with the tenant's own :class:`CoresetParams`: the wire
        server validates raw request rows this way, because a restored
        tenant's ``d`` and ``delta`` need not match the base config."""
        return self._mutate(stream_id, points, ClusteringService.insert)

    def delete(self, stream_id: str, points) -> dict:
        """Delete rows from one tenant's stream (``points`` as for
        :meth:`insert`)."""
        return self._mutate(stream_id, points, ClusteringService.delete)

    def _mutate(self, stream_id: str, points, apply) -> dict:
        with self._lease(stream_id) as rec:
            service = rec.service
            arr = (points(service.params) if callable(points)
                   else np.asarray(points))
            self._check_quota(rec, len(arr))
            applied = apply(service, arr)
            return {"applied": applied, "version": service.ingest.version}

    def apply_events(self, stream_id: str, events) -> dict:
        """Apply a mixed (point, ±1) batch to one tenant's stream."""
        events = list(events)
        with self._lease(stream_id) as rec:
            self._check_quota(rec, len(events))
            applied = rec.service.apply_events(events)
            return {"applied": applied, "version": rec.service.ingest.version}

    def query(self, stream_id: str, capacity_slack: float | None = None):
        """Solve (or fetch the memoized) clustering of one tenant's stream;
        returns ``(QueryResult, cache_hit)``.  The solve runs outside the
        tenant's ingest lock, so concurrent ingest proceeds.  A bad
        ``capacity_slack`` raises ``ValueError`` before the lease, so it
        does not count against the tenant's circuit breaker."""
        if capacity_slack is not None:
            capacity_slack = check_capacity_slack(capacity_slack)
        with self._lease(stream_id) as rec:
            return rec.service.query(capacity_slack=capacity_slack)

    def stats(self, stream_id: str) -> dict:
        """One tenant's service counters plus registry-level metadata
        (including its circuit-breaker snapshot and any eviction-checkpoint
        failures, so a degraded tenant is diagnosable over the wire)."""
        with self._lease(stream_id) as rec:
            stats = rec.service.stats()
            with self._lock:
                breaker = self._breaker(rec.stream_id).snapshot()
                failures = [f for f in self.eviction_failures
                            if f["stream_id"] == rec.stream_id]
            stats.update({
                "stream_id": rec.stream_id,
                "seed": rec.service.config.seed,
                "evictions": rec.evictions,
                "restores": rec.restores,
                "breaker": breaker,
                "eviction_failures": failures,
            })
            return stats

    def pull_state(self, stream_id: str) -> dict:
        """One tenant's full serialized sketch state (wire ``pull_state``).

        Returns the checkpoint envelope as a dict — exactly what
        :meth:`checkpoint` would write to disk, stamped with the same tenant
        metadata — so a coordinator that pulls it can feed it straight to
        the restore path or merge it by linearity
        (:mod:`repro.distributed.fleet`)."""
        with self._lease(stream_id) as rec:
            return rec.service.state_payload(
                extra={"tenant": {"stream_id": rec.stream_id,
                                  "evictions": rec.evictions}})

    def site_stats(self, stream_id: str) -> dict:
        """One tenant's fixed-vocabulary site counters (wire ``site_stats``).

        Unlike :meth:`stats`, the reply is a small constant set of numeric
        fields, so the fleet's bit accounting can charge a known constant
        per poll (see ``repro.distributed.fleet.SITE_STATS_FIELDS``)."""
        with self._lease(stream_id) as rec:
            return dict(rec.service.site_stats(), stream_id=rec.stream_id)

    def checkpoint(self, stream_id: str, path) -> dict:
        """Checkpoint one tenant to an explicit path (wire ``checkpoint``)."""
        with self._lease(stream_id) as rec:
            return rec.service.checkpoint(
                path, extra={"tenant": {"stream_id": rec.stream_id,
                                        "evictions": rec.evictions}})

    def restore(self, stream_id: str, path) -> dict:
        """Replace one tenant's state from an explicit path (wire
        ``restore``)."""
        with self._lease(stream_id) as rec:
            rec.service.restore_in_place(path)
            return {"version": rec.service.ingest.version,
                    "events": rec.service.ingest.num_events}

    # ------------------------------------------------------------- overview
    def live_count(self) -> int:
        """Number of tenants currently resident in memory (O(1): the live
        index is maintained on every load/evict transition)."""
        with self._lock:
            return len(self._live)

    def overview(self, live_only: bool = False) -> list[dict]:
        """One summary row per known tenant — live ones from their in-memory
        counters, evicted ones from the registry's last-known snapshot, and
        on-disk tenants this process has never touched as bare stubs.  Never
        loads a cold tenant.

        ``live_only=True`` reads just the live index — O(live tenants),
        regardless of how many cold tenants are known or on disk — which is
        what dashboards polling a server with thousands of cold tenants
        should ask for (wire: ``{"op": "tenants", "live_only": true}``).
        """
        rows: dict[str, dict] = {}
        with self._lock:
            source = self._live if live_only else self._records
            for sid, rec in sorted(source.items()):
                service = rec.service
                if service is not None:
                    row = {
                        "stream_id": sid,
                        "live": True,
                        "events": service.ingest.num_events,
                        "version": service.ingest.version,
                        "bytes_ingested": service.bytes_ingested,
                    }
                else:
                    row = {"stream_id": sid, "live": False, **rec.last_known}
                row["evictions"] = rec.evictions
                row["restores"] = rec.restores
                breaker = self._breakers.get(sid)
                if breaker is not None:
                    snap = breaker.snapshot()
                    row["degraded"] = snap["state"] != "closed"
                    row["breaker"] = snap
                rows[sid] = row
        if self.tenants_dir is not None and not live_only:
            for path in sorted(self.tenants_dir.iterdir()):
                sid = tenant_id_from_filename(path.name)
                if sid is not None and sid not in rows:
                    rows[sid] = {"stream_id": sid, "live": False}
        return [rows[sid] for sid in sorted(rows)]

    # -------------------------------------------------------------- teardown
    def close(self, persist: bool | None = None) -> None:
        """Shut every live tenant down (idempotent).  With ``persist`` (the
        default whenever a ``tenants_dir`` is configured) each live tenant
        is checkpointed first, so a restarted registry restores the full
        tenant population on touch."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            records = list(self._records.values())
        if persist is None:
            persist = self.tenants_dir is not None
        for rec in records:
            with rec.lock:
                if rec.service is None:
                    continue
                if persist:
                    self._evict_locked(rec)
                else:
                    rec.service.close()
                    rec.service = None
                    with self._lock:
                        self._live.pop(rec.stream_id, None)

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
