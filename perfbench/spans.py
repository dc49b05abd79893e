"""In-memory span recorder, function wrapping, and self-time arithmetic.

A span is ``(sid, name, start_ns, end_ns, parent_sid, rid, leaves, failed)``
on the host's monotonic clock (``time.perf_counter_ns`` is
``CLOCK_MONOTONIC`` on Linux, so client and server spans share a time
base).  The parent comes from a :class:`contextvars.ContextVar`, which
``asyncio.to_thread`` copies into its worker thread, so a registry call run
off the event loop still nests under the request that caused it.

Hot inner calls (thousands per request) are recorded as *leaves*: instead
of a span each, their time and call count accumulate on the enclosing span,
keyed by name.  A leaf has no children, so its self time is its duration.

Spans stay in memory; the owner dumps them when the process ends.  A
layer's self time is its span's duration minus the part of that interval
its child spans cover, minus its leaves (:func:`self_times`).
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import itertools
import time

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Span:
    """One open or closed span."""

    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "leaves",
                 "failed")

    def __init__(self, sid: int, name: str, parent: "Span | None", rid):
        self.sid = sid
        self.name = name
        self.parent = parent.sid if parent is not None else None
        self.rid = rid if rid is not None else (
            parent.rid if parent is not None else None)
        self.leaves: dict | None = None
        self.failed = False
        self.end = 0
        self.start = time.perf_counter_ns()

    def as_row(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.rid, self.leaves, self.failed]


class Recorder:
    """Collects spans for one process; ``enabled`` gates new spans."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------ recording
    def open(self, name: str, rid=None) -> tuple[Span, contextvars.Token]:
        span = Span(next(self._ids), name, _current.get(), rid)
        return span, _current.set(span)

    def close(self, span: Span, token: contextvars.Token,
              failed: bool = False) -> None:
        span.end = time.perf_counter_ns()
        span.failed = failed
        _current.reset(token)
        self.spans.append(span)

    @staticmethod
    def add_leaf(name: str, ns: int, units: int = 0) -> None:
        """Charge ``ns`` of leaf ``name`` to the enclosing span."""
        parent = _current.get()
        if parent is None:
            return
        if parent.leaves is None:
            parent.leaves = {}
        acc = parent.leaves.get(name)
        if acc is None:
            parent.leaves[name] = [ns, 1, units]
        else:
            acc[0] += ns
            acc[1] += 1
            acc[2] += units

    def rows(self) -> list[list]:
        return [s.as_row() for s in self.spans]

    # ------------------------------------------------------------- wrapping
    def wrap(self, owner, attr: str, name: str, leaf: bool = False,
             units=None) -> None:
        """Replace ``owner.attr`` (a module global or a class's function)
        with a timed wrapper.  ``units(result)`` adds a per-call amount
        (bytes, say) to a leaf."""
        fn = getattr(owner, attr)
        rec = self
        if leaf:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not rec.enabled or _current.get() is None:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter_ns()
                out = fn(*args, **kwargs)
                rec.add_leaf(name, time.perf_counter_ns() - t0,
                             units(out) if units is not None else 0)
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not rec.enabled:
                    return fn(*args, **kwargs)
                span, token = rec.open(name)
                failed = True
                try:
                    out = fn(*args, **kwargs)
                    failed = False
                    return out
                finally:
                    rec.close(span, token, failed)
        setattr(owner, attr, wrapper)

    def wrap_async(self, owner, attr: str, name: str) -> None:
        """:meth:`wrap` for a coroutine function (a span, never a leaf)."""
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not rec.enabled:
                return await fn(*args, **kwargs)
            span, token = rec.open(name)
            failed = True
            try:
                out = await fn(*args, **kwargs)
                failed = False
                return out
            finally:
                rec.close(span, token, failed)
        setattr(owner, attr, wrapper)


# ------------------------------------------------------------------ analysis
def rows_to_dicts(rows, tag: str) -> list[dict]:
    """Span rows of one process as dicts with process-unique ids."""
    return [{"sid": (tag, r[0]), "name": r[1], "start": r[2], "end": r[3],
             "parent": (tag, r[4]) if r[4] is not None else None,
             "rid": r[5], "leaves": r[6] or {}, "failed": bool(r[7])}
            for r in rows]


def attach_remote(local: list[dict], remote: list[dict],
                  host_name: str) -> tuple[list[dict], int]:
    """Parent each remote root span to the local ``host_name`` span whose
    interval contains it (a server handler inside the client's round
    trip); remote roots contained in none are dropped with their subtree.

    Returns ``(spans, dropped)`` where ``spans`` is local plus attached
    remote spans.
    """
    hosts = sorted((s for s in local if s["name"] == host_name),
                   key=lambda s: s["start"])
    starts = [h["start"] for h in hosts]
    by_parent: dict = {}
    for s in remote:
        by_parent.setdefault(s["parent"], []).append(s)
    kept, dropped = [], 0
    for root in by_parent.get(None, []):
        i = bisect.bisect_right(starts, root["start"]) - 1
        host = hosts[i] if i >= 0 else None
        if host is None or root["end"] > host["end"]:
            dropped += 1
            continue
        stack = [dict(root, parent=host["sid"], rid=host["rid"])]
        while stack:
            s = stack.pop()
            kept.append(s)
            stack.extend(dict(c, rid=host["rid"])
                         for c in by_parent.get(s["sid"], []))
    return local + kept, dropped


def _covered(interval: tuple[int, int], children: list[tuple[int, int]]) -> int:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(children):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per name: ``self_ns``, ``count``, ``failed`` and leaf ``units``.

    A span's self time is its duration minus the union of its child spans'
    intervals (clipped to it) minus its leaves' time; a leaf's self time is
    its whole duration.
    """
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    table: dict[str, dict] = {}

    def acc(name: str) -> dict:
        row = table.get(name)
        if row is None:
            row = table[name] = {"self_ns": 0, "count": 0, "failed": 0,
                                 "units": 0}
        return row

    for s in spans:
        leaves = s["leaves"]
        leaf_ns = sum(v[0] for v in leaves.values())
        own = (s["end"] - s["start"]
               - _covered((s["start"], s["end"]), children.get(s["sid"], []))
               - leaf_ns)
        row = acc(s["name"])
        row["self_ns"] += max(own, 0)
        row["count"] += 1
        row["failed"] += int(s["failed"])
        for name, (ns, count, units) in leaves.items():
            leaf = acc(name)
            leaf["self_ns"] += ns
            leaf["count"] += count
            leaf["units"] += units
    return table


def coverage(table: dict[str, dict], wall_ns: int) -> float:
    """Sum of every layer's self time as a share of the traced wall time."""
    return sum(r["self_ns"] for r in table.values()) / wall_ns if wall_ns else 0.0


def within_tolerance(ratio: float, tolerance: float = 0.10) -> bool:
    """The layer-sum check: self times add up to the wall time ± tolerance."""
    return abs(ratio - 1.0) <= tolerance
