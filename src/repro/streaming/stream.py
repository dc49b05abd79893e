"""The dynamic stream model (Section 4.2).

A stream is a sequence of ``(point, ±1)`` events: ``(p, +1)`` inserts p into
Q and ``(p, −1)`` deletes it.  The model guarantees a deletion only targets a
currently-present point; :func:`materialize` (the reference semantics used by
tests) enforces this.

The paper's footnote 4 assumes no two *distinct* points share coordinates;
equivalently Q is a set.  We follow that convention: inserting a point that
is already present is a model violation that :func:`materialize` rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.utils.validation import coerce_integral_rows

__all__ = ["INSERT", "DELETE", "StreamEvent", "Stream", "materialize",
           "events_to_arrays"]

INSERT = 1
DELETE = -1


@dataclass(frozen=True)
class StreamEvent:
    """One stream update: a point and a sign (+1 insert / −1 delete)."""

    point: tuple
    sign: int

    def __post_init__(self):
        if self.sign not in (INSERT, DELETE):
            raise ValueError(f"sign must be ±1, got {self.sign}")


class Stream:
    """A replayable sequence of stream events with convenience constructors."""

    def __init__(self, events: Iterable[StreamEvent]):
        self.events: list[StreamEvent] = list(events)

    def __iter__(self) -> Iterator[StreamEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def from_points(cls, points: np.ndarray, sign: int = INSERT) -> "Stream":
        """All-insert (or all-delete) stream of the rows of ``points``."""
        pts = np.asarray(points)
        return cls(StreamEvent(tuple(int(c) for c in row), sign) for row in pts)

    def __add__(self, other: "Stream") -> "Stream":
        return Stream(self.events + list(other.events))

    def num_insertions(self) -> int:
        """Number of +1 events in the stream."""
        return sum(1 for e in self.events if e.sign == INSERT)

    def num_deletions(self) -> int:
        """Number of −1 events in the stream."""
        return sum(1 for e in self.events if e.sign == DELETE)


def events_to_arrays(events, d: int | None = None):
    """Normalize a batch of events to ``(rows, signs)`` numpy arrays.

    Accepts any iterable of :class:`StreamEvent` or ``(point, sign)`` pairs
    and returns an (n, d) int64 coordinate array plus the (n,) sign vector
    as given — the columnar form every batched ingest path consumes.
    Non-integral coordinates raise ``ValueError`` (via
    :func:`~repro.utils.validation.coerce_integral_rows`) before any
    consumer state can be touched; signs are left uncast for
    :func:`~repro.utils.validation.check_signs` to reject anything but ±1.
    """
    points: list = []
    signs: list = []
    for ev in events:
        if isinstance(ev, StreamEvent):
            points.append(ev.point)
            signs.append(ev.sign)
        else:
            points.append(ev[0])
            signs.append(ev[1])
    if not points:
        return (np.empty((0, d or 0), dtype=np.int64),
                np.empty(0, dtype=np.int64))
    return coerce_integral_rows(points), np.asarray(signs)


def materialize(stream: Iterable[StreamEvent], d: int | None = None) -> np.ndarray:
    """Reference semantics: the surviving point set after replaying the stream.

    Raises on model violations (deleting an absent point, double insertion).
    """
    live: dict[tuple, bool] = {}
    for ev in stream:
        if ev.sign == INSERT:
            if ev.point in live:
                raise ValueError(f"double insertion of {ev.point}")
            live[ev.point] = True
        else:
            if ev.point not in live:
                raise ValueError(f"deletion of absent point {ev.point}")
            del live[ev.point]
    if not live:
        return np.empty((0, d or 0), dtype=np.int64)
    return np.array(sorted(live.keys()), dtype=np.int64)
