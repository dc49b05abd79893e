"""Supervised recovery for the process-parallel ingest backend.

The whole service design leans on the paper's linearity argument: a shard
is a linear sketch whose state is a deterministic function of ``(params,
seed)`` and the multiset of events routed to it.  So a shard worker that
dies — SIGKILL, OOM, a poisoned batch — is not a disaster but a *replay
problem*: rebuild the shard from its last known-good serialized state and
re-feed the events sent since, and the recovered shard is **bit-identical**
to one that never crashed (the tests assert this at the serialized-state
level, same oracle style as ``test_vectorized_identity.py``).

:class:`SupervisedWorkerPool` implements exactly that on top of
:class:`~repro.service.workers.WorkerPoolIngest`:

- every batch command sent to shard ``i`` is appended to a **bounded
  in-flight journal** for ``i``;
- every ``checkpoint_every_batches`` batches (and on every state drain —
  queries, checkpoints) the shard's serialized state is pulled back and
  becomes the shard's **recovery checkpoint**, truncating the journal;
- a dead worker — detected by ``exitcode``/queue sentinels surfacing as
  :class:`~repro.service.workers.WorkerDied` — is respawned from the
  recovery checkpoint, and the journal is replayed into it in original
  order before the interrupted operation is retried.

Because the parent's counters (``events_per_shard``, ``version``, ...)
are only advanced once per *logical* send, recovery neither loses nor
double-counts events, no matter how far into its queue the dead worker
got.

:class:`CircuitBreaker` is the graceful-degradation half: the async
front end uses one per tenant so that a tenant whose pool is repeatedly
failing (or mid-recovery) answers with a structured ``degraded`` error
envelope instead of queueing callers behind a broken backend.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time

from repro.service.workers import (
    DEFAULT_QUEUE_BATCHES,
    WorkerDied,
    WorkerPoolIngest,
)

__all__ = [
    "CircuitBreaker",
    "SupervisedWorkerPool",
    "DEFAULT_CHECKPOINT_EVERY_BATCHES",
    "DEFAULT_MAX_RESTARTS",
]

#: Per-shard batches between automatic recovery checkpoints — the bound on
#: both journal memory and replay work after a crash.
DEFAULT_CHECKPOINT_EVERY_BATCHES = 32

#: Respawn budget per worker slot: a shard that keeps dying (e.g. a
#: poisoned batch that crashes deterministically on every replay) must
#: surface as an error, not an infinite respawn loop.
DEFAULT_MAX_RESTARTS = 8


class SupervisedWorkerPool(WorkerPoolIngest):
    """A :class:`WorkerPoolIngest` whose workers are allowed to die.

    Drop-in replacement — same public surface, same bit-identical results
    (supervision only adds parent-side journaling; the bytes sent to live
    workers are unchanged).  Additional parameters:

    checkpoint_every_batches:
        Pull a shard's serialized state (and truncate its journal) every
        this many batches.  Clamped to ``queue_batches`` so a full journal
        always fits back into a fresh worker's command queue during
        replay.
    max_restarts:
        Per-worker respawn budget; exceeding it raises
        :class:`~repro.service.workers.WorkerDied` to the caller.

    Not thread-safe by itself (same contract as the base pool): callers
    serialize access — :class:`~repro.service.engine.ClusteringService`
    holds its lock across every pool call.
    """

    def __init__(self, *args,
                 checkpoint_every_batches: int = DEFAULT_CHECKPOINT_EVERY_BATCHES,
                 max_restarts: int = DEFAULT_MAX_RESTARTS,
                 **kwargs):
        queue_batches = kwargs.get("queue_batches", DEFAULT_QUEUE_BATCHES)
        self._checkpoint_every = max(1, min(int(checkpoint_every_batches),
                                            int(queue_batches)))
        self._max_restarts = int(max_restarts)
        shard_states = kwargs.get("shard_states")
        self._journals: list[list[tuple]] = []
        self._shard_ckpts: list[dict | None] = []
        #: One record per recovery: shard, exit code of the dead worker,
        #: batches replayed, reason.  Surfaced through ``stats``.
        self.recovery_events: list[dict] = []
        super().__init__(*args, **kwargs)
        n = self.num_shards
        self._journals = [[] for _ in range(n)]
        self._shard_ckpts = (list(shard_states) if shard_states is not None
                             else [None] * n)

    # -------------------------------------------------------------- sending
    def _send(self, idx: int, msg: tuple) -> None:
        """Journal batch commands, then deliver with crash recovery."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if not self._journals:  # construction-time handshake, pre-journal
            super()._send(idx, msg)
            return
        is_batch = msg[0] == "abatch"
        if is_batch:
            self._journals[idx].append(msg)
            self._maybe_inject_kill(idx)
        if not self._procs[idx].is_alive():
            self._recover(idx, "worker found dead before send",
                          exitcode=self._procs[idx].exitcode)
            if is_batch:
                # The journal replay above already delivered this batch.
                self._maybe_checkpoint(idx)
                return
        self._put_robust(idx, msg, already_journaled=is_batch)
        if is_batch:
            self._maybe_checkpoint(idx)

    def _put_robust(self, idx: int, msg: tuple,
                    already_journaled: bool) -> None:
        """Enqueue with backpressure, recovering if the worker dies while
        we wait on a full queue (a dead consumer never drains it)."""
        while True:
            try:
                self._cmd_queues[idx].put(msg, timeout=0.5)
                return
            except queue_mod.Full:
                if self._procs[idx].is_alive():
                    continue
                self._recover(idx, "worker died under backpressure",
                              exitcode=self._procs[idx].exitcode)
                if already_journaled:
                    return  # replay delivered it
                # Non-batch request: retry on the fresh queue.

    # ------------------------------------------------------------- recovery
    def _recover(self, idx: int, reason: str,
                 exitcode: int | None = None) -> None:
        """Respawn worker ``idx`` from its checkpoint and replay its journal.

        The respawned shard is bit-identical to an uncrashed one: the
        checkpoint is a full serialized shard state (known good — it was
        produced by a drained worker), and the journal holds exactly the
        batches sent after it, in order.
        """
        if self.restart_counts[idx] >= self._max_restarts:
            raise WorkerDied(
                idx,
                f"shard worker {idx} exceeded {self._max_restarts} restarts "
                f"(last reason: {reason}); giving up",
                exitcode=exitcode,
            )
        self.restart_counts[idx] += 1
        old = self._procs[idx]
        if old.is_alive():
            old.kill()
        old.join(5.0)
        for q in (self._cmd_queues[idx], self._out_queues[idx]):
            # Fresh pipes for the fresh worker: a SIGKILL mid-write can
            # leave a truncated pickle in the old ones.
            q.close()
            q.cancel_join_thread()
        self._spawn(idx, self._shard_ckpts[idx])
        WorkerPoolIngest._collect(self, idx, "ready")
        journal = self._journals[idx]
        for msg in journal:
            self._cmd_queues[idx].put(msg)
        self.recovery_events.append({
            "shard": idx,
            "exitcode": exitcode if exitcode is not None else old.exitcode,
            "replayed_batches": len(journal),
            "restart": self.restart_counts[idx],
            "reason": reason,
        })

    def _request(self, idx: int, msg: tuple, want: str):
        """One request/reply round trip that survives worker death."""
        while True:
            try:
                self._send(idx, msg)
                return WorkerPoolIngest._collect(self, idx, want)
            except WorkerDied as exc:
                self._recover(idx, str(exc), exitcode=exc.exitcode)

    # ---------------------------------------------------------- checkpoints
    def _maybe_checkpoint(self, idx: int) -> None:
        if len(self._journals[idx]) >= self._checkpoint_every:
            self._pull_state(idx)

    def _pull_state(self, idx: int) -> dict:
        """Drain one shard's serialized state; it becomes the shard's
        recovery checkpoint and truncates the journal prefix it covers."""
        while True:
            mark = len(self._journals[idx])
            try:
                self._send(idx, ("state",))
                state = WorkerPoolIngest._collect(self, idx, "state")
            except WorkerDied as exc:
                self._recover(idx, str(exc), exitcode=exc.exitcode)
                continue
            self._shard_ckpts[idx] = state
            del self._journals[idx][:mark]
            return state

    # ------------------------------------------------------------ round trips
    def _shard_state_dicts(self) -> list[dict]:
        """Parallel drain (like the base pool), but every reply doubles as
        that shard's recovery checkpoint, and a death mid-drain recovers."""
        n = self.num_shards
        marks = []
        for idx in range(n):
            marks.append(len(self._journals[idx]))
            self._send(idx, ("state",))
        out = []
        for idx in range(n):
            try:
                state = WorkerPoolIngest._collect(self, idx, "state")
            except WorkerDied as exc:
                self._recover(idx, str(exc), exitcode=exc.exitcode)
                out.append(self._pull_state(idx))
                continue
            self._shard_ckpts[idx] = state
            del self._journals[idx][:marks[idx]]
            out.append(state)
        return out

    def worker_stats(self) -> list[dict]:
        """Per-worker counters, recovering dead workers along the way.

        After a recovery the *worker-local* ``events``/``batches`` count
        restarts from the checkpoint; the parent's ``events_per_shard``
        stays authoritative for totals.
        """
        n = self.num_shards
        for idx in range(n):
            self._send(idx, ("stats",))
        out = []
        for idx in range(n):
            try:
                out.append(WorkerPoolIngest._collect(self, idx, "stats"))
            except WorkerDied as exc:
                self._recover(idx, str(exc), exitcode=exc.exitcode)
                out.append(self._request(idx, ("stats",), "stats"))
        return out

    # ---------------------------------------------------------------- stats
    def stats_extra(self) -> dict:
        extra = super().stats_extra()
        extra["supervised"] = True
        extra["checkpoint_every_batches"] = self._checkpoint_every
        extra["journal_batches"] = [len(j) for j in self._journals]
        extra["recovery_events"] = list(self.recovery_events[-20:])
        return extra


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
