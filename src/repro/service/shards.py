"""A service's ingest: one streaming driver for one logical dynamic stream.

Each tenant of a ``repro serve`` process holds exactly one
:class:`~repro.streaming.streaming_coreset.StreamingCoreset`, which runs
every guess ``o`` of Theorem 4.5 over the whole stream.  Parallelism comes
from outside the process: the sites of a fleet
(:mod:`repro.distributed.fleet`) each keep one driver built from the same
``(params, seed)``, and a coordinator sums their linear sketches with
:func:`~repro.streaming.merge.merge_streaming_states` (Lemma 4.6,
Theorem 4.7).

Checkpoints written when a service split its stream over N in-process
shards (state formats v1 and v2, and the worker-pool envelopes) restore
through :meth:`ShardedIngest.from_drivers`: their shards are folded into
one driver by the same linear fold, so a restored file answers as it did
when it was written.  The fold is exact under negative counts too — a
deletion that reached a different shard than its insertion cancels there.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import CoresetParams
from repro.streaming.merge import merge_streaming_states
from repro.streaming.streaming_coreset import StreamingCoreset

__all__ = ["ShardedIngest"]


class ShardedIngest:
    """One logical dynamic stream in one :class:`StreamingCoreset`.

    Parameters
    ----------
    params:
        The driver's :class:`CoresetParams`.
    seed:
        All sketch randomness derives from it; services (or fleet sites)
        with equal ``(params, seed)`` hold summable sketches.
    backend, o_range:
        Forwarded to the :class:`StreamingCoreset`.

    Notes
    -----
    Every applied batch bumps :attr:`version`; the query engine keys its
    memoization on it, so "has anything changed since the last query?" is a
    single integer comparison.
    """

    def __init__(
        self,
        params: CoresetParams,
        seed: int = 0,
        backend: str = "exact",
        o_range: tuple[float, float] | None = None,
    ):
        self.driver = StreamingCoreset(params, seed=seed, backend=backend,
                                       o_range=o_range)
        self._init_counters()

    def _init_counters(self) -> None:
        self.version = 0
        self.num_insertions = 0
        self.num_deletions = 0

    @classmethod
    def from_drivers(cls, drivers: list[StreamingCoreset]) -> "ShardedIngest":
        """Adopt restored drivers (checkpoint restore), folding a file's N
        shards into the first with :func:`merge_streaming_states`."""
        if not drivers:
            raise ValueError("need at least one driver")
        ingest = cls.__new__(cls)
        ingest.driver = drivers[0]
        if len(drivers) > 1:
            merge_streaming_states(drivers[0], *drivers[1:])
        ingest._init_counters()
        return ingest

    # ---------------------------------------------------------------- meta
    @property
    def params(self) -> CoresetParams:
        """The driver's problem parameters."""
        return self.driver.params

    @property
    def num_events(self) -> int:
        """Total events applied."""
        return self.num_insertions + self.num_deletions

    def shard_of(self, point) -> int:
        """Always 0: every point goes to the one driver."""
        return 0

    # -------------------------------------------------------------- ingest
    def apply_arrays(self, rows, signs) -> int:
        """Vectorized ingest: (n, d) coordinate rows + sign vector.

        The driver checks the whole batch (coordinates, and signs that are
        integral ±1, one per row) before it changes anything, so a
        malformed event rejects the batch instead of leaving a partially
        applied, version-less state.
        """
        n = self.driver.update_arrays(rows, signs)
        if n:
            ins = int((np.asarray(signs) > 0).sum())
            self.num_insertions += ins
            self.num_deletions += n - ins
            self.version += 1
        return n

    # --------------------------------------------------------------- queries
    def merged_state(self) -> StreamingCoreset:
        """A copy of the driver for a query to finalize.

        :meth:`StreamingCoreset.copy` is cheap (exact stores share their
        compacted columns copy-on-write, sketch stores copy their buckets),
        and ingest that continues afterwards never changes the copy.
        """
        return self.driver.copy()

    def space_bits(self) -> int:
        """Charged sketch bits of the driver."""
        return self.driver.space_bits()

    # ---------------------------------------------------------- persistence
    def to_state_dict(self) -> dict:
        """Checkpoint payload (:func:`~repro.service.state.sharded_state_to_dict`)."""
        from repro.service.state import sharded_state_to_dict

        return sharded_state_to_dict(self)
