"""Resilient blocking JSON-lines client for the clustering service.

A wrapper over one TCP connection that survives the connection failing.
Transport faults — refused connects, resets mid-request, truncated reply
frames, per-op timeouts — are retried with exponential backoff and jitter
against a fresh connection, and surface as a typed
:class:`ServiceUnavailable` (never a raw ``BrokenPipeError`` or
``JSONDecodeError``) once the budget is exhausted.

Retrying a *mutating* op is only safe if the server can tell a replay from
a new request: the client therefore stamps every insert/delete frame with a
stable ``client_id`` and a monotonically increasing ``seq``.  A request
whose reply was lost to a reset is re-sent with the *same* seq; the server
answers from its replay cache instead of applying the batch twice, so a
mid-batch reconnect cannot double-count events.

Application-level failures keep their own types: ``ok: false`` responses
raise :class:`ServiceError`, and the structured ``degraded`` envelope (a
tenant's circuit breaker is open) raises :class:`ServiceDegraded` carrying
``retry_after_s`` so callers can back off deliberately.
"""

from __future__ import annotations

import json
import random
import socket
import time
import uuid

from repro.service.protocol import encode_message
from repro.utils.validation import coerce_integral_rows

__all__ = ["ServiceClient", "ServiceError", "ServiceUnavailable", "ServiceDegraded"]

#: Ops never retried after a transport fault: shutdown is deliberately
#: one-shot (a retry could kill a freshly restarted server).
_NO_RETRY_OPS = frozenset({"shutdown"})

#: Ops stamped with (client_id, seq) so the server can dedupe replays.
_MUTATING_OPS = frozenset({"insert", "delete"})


class ServiceError(RuntimeError):
    """The server reported a failure for a request."""


class ServiceUnavailable(ServiceError):
    """The service could not be reached (or kept dropping the connection)
    within the retry budget.  ``op`` names the request that failed."""

    def __init__(self, message: str, op: str | None = None):
        super().__init__(message)
        self.op = op


class ServiceDegraded(ServiceError):
    """A tenant's circuit breaker is open; retry after ``retry_after_s``."""

    def __init__(self, message: str, stream_id: str | None = None,
                 retry_after_s: float = 0.0):
        super().__init__(message)
        self.stream_id = stream_id
        self.retry_after_s = float(retry_after_s)


class ServiceClient:
    """Client for one clustering server (:mod:`repro.service.aserver`).

    Usable as a context manager::

        with ServiceClient("127.0.0.1", 7071) as cli:
            cli.insert(points)
            answer = cli.query()

    The context manager always closes the socket, whatever the body raised.

    ``stream_id`` names the tenant every request addresses; ``None``
    leaves the field off the wire, which the server treats as the
    ``"default"`` tenant — so a client without a stream id speaks the
    exact pre-tenant protocol.  The attribute is plain state:
    reassign ``cli.stream_id`` to switch tenants over one connection, or
    pass an explicit ``stream_id=...`` to :meth:`request` per call.

    ``retries`` bounds reconnect attempts per request (0 disables recovery
    entirely — one transport fault raises immediately).  ``timeout`` is the
    per-operation socket deadline; a request that exceeds it is treated as
    a transport fault and retried on a fresh connection, which is safe for
    every op: reads are side-effect-free and mutations are deduped by seq.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7071,
                 timeout: float | None = 60.0, stream_id: str | None = None,
                 retries: int = 4, backoff_s: float = 0.05,
                 backoff_cap_s: float = 2.0, client_id: str | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.stream_id = stream_id
        self.retries = max(0, int(retries))
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        #: Stable identity for server-side replay dedupe.  Fresh per client
        #: object by default: seqs restart at 0 with a new identity, so a
        #: recycled id can never collide with a previous incarnation's.
        self.client_id = client_id or f"cli-{uuid.uuid4().hex[:20]}"
        self._seq = 0
        #: Jitter source — de-synchronizes retry storms across clients, so
        #: it must NOT be seeded identically across processes.
        self._jitter = random.Random()
        self.reconnects = 0
        # Lazy connect: the first request dials, so even a refused connect
        # flows through the retry/backoff loop and surfaces as the typed
        # ServiceUnavailable, never a raw OSError from the constructor.
        self._sock: socket.socket | None = None
        self._file = None

    # ------------------------------------------------------------ transport
    def _connect(self) -> None:
        """(Re)establish the TCP connection; raises ``OSError`` on failure."""
        self._drop()
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        self._file = self._sock.makefile("rwb")

    def _drop(self) -> None:
        """Tear down the current connection, swallowing close-time errors."""
        for closer in (self._file, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._file = None
        self._sock = None

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with full jitter, capped."""
        span = min(self.backoff_cap_s, self.backoff_s * (2.0 ** attempt))
        return self._jitter.uniform(0.0, span)

    def _roundtrip(self, frame: bytes, op: str) -> dict:
        """One send/receive on the live connection; OSError on any fault."""
        if self._file is None:
            self._connect()
        self._file.write(frame)
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionResetError(f"connection closed during {op!r}")
        try:
            resp = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            # A truncated frame means the server died mid-write; the reply
            # is unusable and the connection is poisoned.
            raise ConnectionResetError(
                f"truncated reply during {op!r}: {exc}") from exc
        if not isinstance(resp, dict):
            raise ConnectionResetError(f"non-object reply during {op!r}")
        return resp

    # ------------------------------------------------------------ plumbing
    def request(self, op: str, **fields) -> dict:
        """Send one op and return its payload; raises on error responses.

        Transport faults are retried on a fresh connection with backoff;
        mutating ops carry a seq assigned once per *logical* request, so
        every retry of this call replays the same identity.
        """
        if self.stream_id is not None:
            fields.setdefault("stream_id", self.stream_id)
        if op in _MUTATING_OPS and "client_id" not in fields:
            fields["client_id"] = self.client_id
            fields["seq"] = self._seq
            self._seq += 1
        frame = encode_message({"op": op, **fields})
        attempts = 1 if op in _NO_RETRY_OPS else self.retries + 1
        last_exc: Exception | None = None
        for attempt in range(attempts):  # scalar-ok: bounded retry loop, not data plane
            if attempt:
                time.sleep(self._backoff(attempt - 1))
                self.reconnects += 1
            try:
                if attempt:
                    self._connect()
                resp = self._roundtrip(frame, op)
            except OSError as exc:
                self._drop()
                last_exc = exc
                continue
            if resp.get("ok"):
                return resp
            message = resp.get("error", f"unknown failure in {op!r}")
            if resp.get("degraded"):
                raise ServiceDegraded(message,
                                      stream_id=resp.get("stream_id"),
                                      retry_after_s=resp.get("retry_after_s", 0.0))
            raise ServiceError(message)
        raise ServiceUnavailable(
            f"service unreachable after {attempts} attempt(s) for {op!r}: "
            f"{last_exc}", op=op)

    def close(self) -> None:
        """Close the connection (idempotent, never raises)."""
        self._drop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------- operations
    def ping(self) -> bool:
        """Liveness check."""
        return bool(self.request("ping").get("pong"))

    def insert(self, points, batch_size: int = 4096) -> int:
        """Insert rows of an (n, d) int array; returns events applied."""
        return self._send_points("insert", points, batch_size)

    def delete(self, points, batch_size: int = 4096) -> int:
        """Delete rows of an (n, d) int array; returns events applied."""
        return self._send_points("delete", points, batch_size)

    def query(self, capacity_slack: float | None = None) -> dict:
        """Solve (or fetch the memoized) clustering of the live stream.

        Returns the result dict with centers/cost/... plus ``cache_hit``.
        """
        fields = {}
        if capacity_slack is not None:
            fields["capacity_slack"] = float(capacity_slack)
        resp = self.request("query", **fields)
        result = dict(resp["result"])
        result["cache_hit"] = bool(resp["cache_hit"])
        return result

    def checkpoint(self, path) -> dict:
        """Ask the server to checkpoint its state to ``path`` (server-side)."""
        return self.request("checkpoint", path=str(path))

    def restore(self, path) -> dict:
        """Ask the server to replace its state from ``path`` (server-side)."""
        return self.request("restore", path=str(path))

    def stats(self) -> dict:
        """Operational counters (version, events, cache hits, space)."""
        return self.request("stats")["stats"]

    def pull_state(self) -> dict:
        """The tenant's full serialized sketch state (checkpoint envelope).

        The coordinator-fleet read: read-only and retry-safe, so a pull
        interrupted by a reset just re-pulls on a fresh connection.
        """
        return self.request("pull_state")["state"]

    def site_stats(self) -> dict:
        """The tenant's fixed-vocabulary site counters (fleet polling op)."""
        return self.request("site_stats")["site"]

    def tenants(self, live_only: bool = False) -> list[dict]:
        """Summaries of every known stream (live and evicted-to-disk);
        ``live_only=True`` asks only for resident tenants — O(live) on the
        server however many cold tenants its disk knows."""
        fields = {"live_only": True} if live_only else {}
        return self.request("tenants", **fields)["tenants"]

    def shutdown(self) -> None:
        """Stop the server (the connection closes afterwards)."""
        self.request("shutdown")

    # ------------------------------------------------------------- helpers
    def _send_points(self, op: str, points, batch_size: int) -> int:
        # Coerced, not cast: an int64 cast would send 2.7 as the point 2.
        rows = coerce_integral_rows(points)
        step = max(1, int(batch_size))
        total = 0
        for lo in range(0, len(rows), step):  # scalar-ok: wire chunking, not data plane
            chunk = rows[lo: lo + step].tolist()
            total += int(self.request(op, points=chunk)["applied"])
        return total
