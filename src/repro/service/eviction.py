"""Cold-tenant eviction for the multi-tenant registry.

The registry keeps at most ``max_live_tenants`` sketches in memory; when a
lease would push it past that, :class:`LRUEvictionPolicy` picks which live
tenants to checkpoint to disk.  It sees only *recency metadata* — it never
touches sketch state — so victim choice stays apart from the registry's
locking.

The policy is never handed a *pinned* tenant (one with an operation in
flight): the registry closes a victim's service right after checkpointing
it, and an in-flight operation holding that service would observe a closed
backend.  Pinned tenants are simply skipped; the registry retries eviction
on the next lease, so an over-budget moment under load heals as soon as
operations drain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["LRUEvictionPolicy"]


@dataclass
class LRUEvictionPolicy:
    """Least-recently-used: victims are the tenants whose last touch is
    oldest.  Ties (never observed in practice — the clock is a monotonic
    counter) break toward lexicographically smaller ids for determinism.
    *When* to evict (live count > budget) is the registry's call.
    """

    _clock: int = 0
    _last_touch: dict[str, int] = field(default_factory=dict)

    def touch(self, stream_id: str) -> None:
        """Record that ``stream_id`` was just used."""
        self._clock += 1
        self._last_touch[stream_id] = self._clock

    def forget(self, stream_id: str) -> None:
        """Drop all bookkeeping for a tenant (it was evicted or deleted)."""
        self._last_touch.pop(stream_id, None)

    def victims(self, live: list[str], excess: int) -> list[str]:
        """Choose up to ``excess`` victims from ``live`` (already filtered
        to evictable tenants), coldest first."""
        if excess <= 0:
            return []
        ranked = sorted(live, key=lambda sid: (self._last_touch.get(sid, 0), sid))
        return ranked[:excess]
