"""ℓ₀ (distinct-element) sampling over dynamic streams.

To pick the guess ``o`` the paper runs a streaming 2-approximation of OPT in
parallel ([HSYZ18]).  The core primitive such estimators need — and the one
we implement here — is a *uniform sample of the live set* that survives
deletions: a classic ℓ₀-sampler.

Construction (standard): for levels j = 0, 1, …, U, keep an IBLT of capacity
O(m) holding exactly the keys with h(key) < 2^{−j} (one shared λ-wise hash
``h``; a key's level set is a prefix, so updates touch ~2 levels in
expectation).  At the end of the stream, the *deepest* level that still
decodes yields up to O(m) uniformly-sampled live keys plus an unbiased
estimate ``|decoded| · 2^j`` of the number of live items.  Everything is
linear, so insertions and deletions in any order are handled.

:class:`DistinctSampler` is used by
:class:`~repro.streaming.streaming_coreset.StreamingCoreset` (``pilot="auto"``)
to estimate OPT at finalize time and select the guess — making the whole
pipeline genuinely single-pass on dynamic streams.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.hashing.kwise import KWiseHash, as_keys
from repro.streaming.sketch import DecodeFailure, IBLTSketch
from repro.utils.rng import derive_seed

__all__ = ["DistinctSampler"]


class DistinctSampler:
    """Uniform sampling from the live set of a dynamic stream.

    Parameters
    ----------
    sample_size:
        Target m — the decoder returns between ~m/2 and ~2m keys when the
        live set is larger than m (all of it when smaller).
    universe_bits:
        Keys are integers below 2^universe_bits.
    seed:
        Seeds the level hash and the per-level sketches.
    """

    def __init__(self, sample_size: int, universe_bits: int, seed=0):
        self.m = int(sample_size)
        self.universe_bits = int(universe_bits)
        # Enough levels to thin any stream below m: live sets are at most
        # 2^universe_bits, but practically bounded by stream length; 64
        # levels cover everything representable.
        self.num_levels = min(48, self.universe_bits + 2)
        self._level_hash = KWiseHash(independence=8, universe_bits=universe_bits,
                                     seed=derive_seed(seed, "l0-level"))
        self._sketches = [
            IBLTSketch(max(8, 2 * self.m), universe_bits,
                       seed=derive_seed(seed, f"l0-{j}"))
            for j in range(self.num_levels)
        ]

    def copy(self) -> "DistinctSampler":
        """An independent sampler with the same level sketches; shares the
        level hash and the sketches' hash families."""
        new = copy.copy(self)
        new._sketches = [s.copy() for s in self._sketches]
        return new

    def update_many(self, keys, signs) -> None:
        """Insert (+1) or delete (−1) a batch of keys.

        One Horner sweep decides every key's deepest level, then each level
        sketch takes one batched scatter.  A key's level set is a prefix
        (level j holds exactly the keys with hash below p/2^j), so sketch j
        receives the in-order subsequence of events whose deepest level is
        ≥ j.
        """
        keys = as_keys(keys)
        if keys.size == 0:
            return
        signs = np.asarray(signs, dtype=np.int64)
        vals = self._level_hash.values_np(keys)
        # deepest(key) = number of successive halvings p//2, p//4, … that
        # the hash value stays below (p//2^t == iterated floor-halving).
        p = self._level_hash.prime
        deepest = np.zeros(len(vals), dtype=np.int64)
        for t in range(1, self.num_levels):  # scalar-ok: per level, vectorized over events
            below = np.asarray(vals < (p >> t), dtype=bool)
            if not below.any():
                break
            deepest += below
        for j in range(self.num_levels):  # scalar-ok: per level, batched scatter inside
            mask = deepest >= j
            if j > 0 and not mask.any():
                break
            self._sketches[j].update_many(keys[mask] if j else keys,
                                          signs[mask] if j else signs)

    def sample(self):
        """Return (keys, live_count_estimate).

        ``keys`` is a list of live keys — the whole live set when it fits,
        else a (λ-wise independent) uniform subsample of ≈ m keys.  Returns
        ``([], 0.0)`` for an empty stream.  Raises ``DecodeFailure`` only if
        even the deepest level is too dense (astronomically unlikely for
        streams shorter than 2^num_levels·m).
        """
        last_error = None
        for j in range(self.num_levels):  # scalar-ok: decode, per level
            try:
                decoded = self._sketches[j].decode()
            except DecodeFailure as exc:
                last_error = exc
                continue
            if j == 0 or decoded:
                # Sorted: the decode (peeling) order depends on the order
                # updates touched the buckets, and downstream consumers seed
                # RNGs over the sample by row index.  Canonicalizing makes
                # the sample a function of the live *set* alone — required
                # for a fleet merge and checkpoint-restore to answer
                # exactly like one never-restarted driver.
                return sorted(decoded.keys()), float(len(decoded)) * (2.0**j)
        if last_error is not None:
            raise last_error
        return [], 0.0

    def space_bits(self) -> int:
        """Charged bits across all level sketches."""
        return (sum(s.space_bits() for s in self._sketches)
                + self._level_hash.randomness_bits)
