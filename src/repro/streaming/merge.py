"""Merging streaming states (drivers fed parts of one logical stream).

Everything Algorithm 4 maintains is a *linear sketch*, so two instances
built with the same randomness over disjoint sub-streams can be **added**:
the merged state equals the state of one instance that saw the concatenated
stream.  This is the streaming↔distributed bridge the paper exploits in
Section 4.3 — here exposed directly so a fleet coordinator can sum its
sites' drivers, and a restore can fold the shards of an old checkpoint.

Requirements (checked): identical parameters, identical seeds (same grids,
hash polynomials, and sketch layouts), same backend, same guess schedule,
and a pilot sampler on both sides or on neither.

:func:`merge_streaming_states` folds any number of drivers in one walk over
store positions: each exact store takes every other side's columns in a
single deferred :meth:`~repro.streaming.storing.ExactStoring.merge_from`,
so a k-way fold costs O(stores) cheap steps and one group-by per store,
paid by the first reader.
"""

from __future__ import annotations

from repro.streaming.storing import ExactStoring, SketchStoring
from repro.streaming.streaming_coreset import StreamingCoreset

__all__ = ["merge_streaming_states", "merge_storing"]


def merge_storing(a, *others):
    """Merge Storing structures of the same shape *in place* into ``a``."""
    shape = (type(a), a.alpha, a.beta, a.recover_points)
    for b in others:
        if (type(b), b.alpha, b.beta, b.recover_points) != shape:
            if type(a) is not type(b):
                raise ValueError("cannot merge different Storing backends")
            raise ValueError("cannot merge Storing structures with different budgets")
    if isinstance(a, ExactStoring):
        a.merge_from(*others)
        return a
    if isinstance(a, SketchStoring):
        for b in others:
            a._cells.merge_from(b._cells)
            if a._points is not None:
                a._points.merge_from(b._points)
        return a
    raise TypeError(f"unknown Storing type {type(a)!r}")


def _check_mergeable(a: StreamingCoreset, b: StreamingCoreset) -> None:
    if a.params != b.params:
        raise ValueError("cannot merge: different parameters")
    oa = [inst.o for inst in a.instances]
    ob = [inst.o for inst in b.instances]
    if oa != ob:
        raise ValueError("cannot merge: different guess schedules")
    if any(x.backend != y.backend for x, y in zip(a.instances, b.instances)):
        raise ValueError("cannot merge: different backends")
    if (a._pilot_sampler is None) != (b._pilot_sampler is None):
        raise ValueError("cannot merge: one driver has a pilot sampler and "
                         "the other does not (o_range differs)")
    if a.seed != b.seed:
        raise ValueError(f"cannot merge: different seeds ({a.seed} vs {b.seed})")


def merge_streaming_states(a: StreamingCoreset, *others: StreamingCoreset) -> StreamingCoreset:
    """Merge every driver of ``others`` into ``a`` (in place; returns ``a``).

    All drivers must have been constructed with identical ``params``,
    ``seed`` and ``backend``, and give the same guess schedule with a pilot
    on every side or on none — i.e. they are parts of one logical
    computation, differing only in
    which updates they saw.  The driver-level checks run for every side
    before ``a`` changes; the ``others`` are only read.
    """
    for b in others:
        _check_mergeable(a, b)
    if not others:
        return a
    for ia, *ibs in zip(a.instances, *(b.instances for b in others)):
        # The smallest kill reason, so the text does not follow fold order.
        reasons = [x.dead_reason for x in (ia, *ibs) if x.dead_reason is not None]
        ia.dead_reason = min(reasons, default=None)
        for group in ("store_h", "store_hp", "store_hhat"):
            for sa, *sbs in zip(getattr(ia, group), *(getattr(ib, group) for ib in ibs)):
                merge_storing(sa, *sbs)
    if a._pilot_sampler is not None:
        for b in others:
            for sa, sb in zip(a._pilot_sampler._sketches, b._pilot_sampler._sketches):
                sa.merge_from(sb)
    a.num_updates += sum(b.num_updates for b in others)
    return a

