"""JSON-lines wire protocol shared by the server and the client.

One request per line, one response per line, UTF-8 JSON — trivially
debuggable with ``nc`` and language-agnostic.  Requests are objects with an
``op`` field; responses always carry ``ok`` (bool) plus either the op's
payload or an ``error`` string.  Malformed input yields an error response,
never a dropped connection, so a misbehaving client cannot wedge a worker
thread mid-frame.

Multi-tenancy rides on one optional field: every tenant-scoped request may
carry a ``stream_id`` string naming the logical stream it addresses.  The
field is *optional* — a request without it addresses the
:data:`DEFAULT_STREAM_ID` tenant, so every pre-tenant client (and the whole
pre-tenant wire protocol) keeps working unchanged against a multi-tenant
server.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict

import numpy as np

from repro.utils.validation import check_stream_points

__all__ = [
    "DEFAULT_MAX_REQUEST_BYTES",
    "DEFAULT_STREAM_ID",
    "IDEMPOTENCY_CACHE_CLIENTS",
    "IdempotencyCache",
    "MAX_CLIENT_ID_CHARS",
    "MAX_LINE_BYTES",
    "MAX_STREAM_ID_CHARS",
    "OPS",
    "ProtocolError",
    "decode_line",
    "degraded_response",
    "encode_message",
    "error_response",
    "ok_response",
    "parse_idempotency",
    "parse_points",
    "parse_stream_id",
]

#: Backstop against unbounded request frames (ingest batches should be
#: chunked client-side well below this).
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Per-connection request-line cap enforced while *reading* — a client that
#: never sends a newline must not grow server memory without bound.  The
#: default comfortably holds the stock client's 4096-row batches; servers
#: accepting bigger frames can raise it (``--max-request-mb``) up to the
#: :data:`MAX_LINE_BYTES` backstop.
DEFAULT_MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: The operations the service exposes.  ``pull_state`` and ``site_stats``
#: are the coordinator-fleet ops (:mod:`repro.distributed.fleet`): a
#: coordinator polls ``site_stats`` for a site's lightweight counters and
#: pulls the site's full serialized sketch state — the checkpoint envelope,
#: reused as the transfer encoding — with ``pull_state``, then merges the
#: states by sketch linearity.
OPS = ("ping", "insert", "delete", "query", "checkpoint", "restore",
       "pull_state", "site_stats", "stats", "tenants", "shutdown")

#: Tenant addressed by requests that carry no ``stream_id`` field.
DEFAULT_STREAM_ID = "default"

#: Upper bound on ``stream_id`` length — ids become checkpoint file names
#: (percent-encoded), and most filesystems cap names at 255 bytes.
MAX_STREAM_ID_CHARS = 128

#: Upper bound on ``client_id`` length (it keys the server's replay cache).
MAX_CLIENT_ID_CHARS = 64

#: Distinct client ids the server-side replay cache retains (LRU).  Each
#: entry is one (seq, response) pair, so memory is bounded regardless of
#: how many short-lived clients connect.
IDEMPOTENCY_CACHE_CLIENTS = 1024


class ProtocolError(ValueError):
    """A request line that cannot be parsed into a valid operation."""


def parse_stream_id(req: dict) -> str:
    """Validate a request's optional ``stream_id`` into a tenant name.

    Absent (or ``null``) means the :data:`DEFAULT_STREAM_ID` tenant — the
    pre-tenant protocol unchanged.  Present, it must be a non-empty string
    of at most :data:`MAX_STREAM_ID_CHARS` printable characters.
    """
    sid = req.get("stream_id")
    if sid is None:
        return DEFAULT_STREAM_ID
    if not isinstance(sid, str) or not sid:
        raise ProtocolError("'stream_id' must be a non-empty string")
    if len(sid) > MAX_STREAM_ID_CHARS:
        raise ProtocolError(
            f"'stream_id' exceeds {MAX_STREAM_ID_CHARS} characters")
    if any(ord(c) < 0x20 or ord(c) == 0x7F for c in sid):
        raise ProtocolError("'stream_id' must not contain control characters")
    return sid


def parse_points(req: dict, d: int, delta: int) -> np.ndarray:
    """Validate a request's ``points`` field into an (n, d) int array.

    The wire check is a non-empty list of rows; the rows themselves go
    through the driver's stream-row rule
    (:func:`~repro.utils.validation.check_stream_points`), whose
    ``ValueError`` becomes a :class:`ProtocolError`.  So a coordinate
    outside the codec's injective window [0, Δ], a non-integral one (2.7;
    2.0 is accepted) or a row that is not ``d`` wide is rejected at the
    wire boundary, before any sketch is touched.
    """
    pts = req.get("points")
    if not isinstance(pts, list) or not pts:
        raise ProtocolError("'points' must be a non-empty list of rows")
    try:
        return check_stream_points(pts, delta, d)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def encode_message(obj: dict) -> bytes:
    """Serialize one message to a newline-terminated JSON frame."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> dict:
    """Parse one request frame; raises :class:`ProtocolError` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request exceeds {MAX_LINE_BYTES} bytes")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON request: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    return obj


def parse_idempotency(req: dict) -> tuple[str, int] | None:
    """Validate a request's optional idempotency pair (``client_id``, ``seq``).

    A client that retries mutating ops after a connection loss cannot know
    whether the lost request was applied before the cut or never arrived.
    Tagging each *logical* mutation with a stable ``client_id`` and a
    monotonically increasing ``seq`` lets the server answer a replayed
    request from its cache instead of applying it twice.  Both fields must
    appear together; requests without them are applied unconditionally
    (the pre-retry protocol unchanged).
    """
    cid, seq = req.get("client_id"), req.get("seq")
    if cid is None and seq is None:
        return None
    if cid is None or seq is None:
        raise ProtocolError("'client_id' and 'seq' must be sent together")
    if not isinstance(cid, str) or not cid:
        raise ProtocolError("'client_id' must be a non-empty string")
    if len(cid) > MAX_CLIENT_ID_CHARS:
        raise ProtocolError(
            f"'client_id' exceeds {MAX_CLIENT_ID_CHARS} characters")
    if any(ord(c) < 0x20 or ord(c) == 0x7F for c in cid):
        raise ProtocolError("'client_id' must not contain control characters")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ProtocolError("'seq' must be a non-negative integer")
    return cid, seq


class IdempotencyCache:
    """Per-client replay cache for sequence-numbered mutating requests.

    Stores the most recent ``(seq, response)`` per client id: a retried
    request with the *same* seq gets the cached response back (stamped
    ``replayed: true``) without touching the sketch, so a mid-batch
    connection reset followed by a client retry cannot double-count
    events.  One entry per client suffices because the client assigns seqs
    monotonically and never pipelines mutations — a replay is always of
    the latest logical request.  Client ids are evicted LRU beyond
    :data:`IDEMPOTENCY_CACHE_CLIENTS`.  Thread-safe.
    """

    def __init__(self, max_clients: int = IDEMPOTENCY_CACHE_CLIENTS):
        self._max = int(max_clients)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[int, dict]] = OrderedDict()

    def check(self, cid: str, seq: int) -> dict | None:
        """The cached response if (cid, seq) was already answered, else None.

        A seq *lower* than the cached one is a protocol violation (the
        single-entry cache can no longer vouch for it) and is rejected
        rather than silently re-applied.
        """
        with self._lock:
            entry = self._entries.get(cid)
            if entry is None:
                return None
            self._entries.move_to_end(cid)
            last_seq, response = entry
            if seq == last_seq:
                return dict(response, replayed=True)
            if seq < last_seq:
                raise ProtocolError(
                    f"stale seq {seq} for client {cid!r} (last was {last_seq})")
            return None

    def record(self, cid: str, seq: int, response: dict) -> None:
        """Remember the response for (cid, seq), evicting LRU clients."""
        with self._lock:
            self._entries[cid] = (seq, dict(response))
            self._entries.move_to_end(cid)
            while len(self._entries) > self._max:
                self._entries.popitem(last=False)


def ok_response(**payload) -> dict:
    """A success response carrying ``payload``."""
    return {"ok": True, **payload}


def error_response(message: str) -> dict:
    """A failure response with a human-readable reason."""
    return {"ok": False, "error": str(message)}


def degraded_response(stream_id: str, retry_after_s: float, message: str) -> dict:
    """A structured failure telling the client a tenant's circuit is open.

    Distinguished from :func:`error_response` by ``degraded: true`` plus a
    machine-readable ``retry_after_s`` so clients can back off instead of
    hammering a tenant that is repeatedly failing.
    """
    return {
        "ok": False,
        "error": str(message),
        "degraded": True,
        "stream_id": stream_id,
        "retry_after_s": float(retry_after_s),
    }
