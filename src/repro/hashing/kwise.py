"""λ-wise independent hash families via random polynomials over a prime field.

A uniformly random polynomial of degree λ−1 over GF(p), evaluated at distinct
keys, yields λ-wise independent, uniformly distributed field values.  From
that single primitive we derive the three shapes the algorithms need:

- :class:`KWiseHash` — raw field values / uniform reals in [0, 1);
- :class:`BernoulliHash` — the λ-wise independent indicator
  ``Pr[h(p) = 1] = φ`` used by Algorithms 2, 3, and 4 for subsampling;
- :class:`UniformBucketHash` — bucket assignment for the IBLT sketches.

Evaluation is Horner's rule, batched: :meth:`KWiseHash.values_np` runs the
whole sweep in numpy int64 whenever every intermediate provably fits —
directly for primes below 2^31, and via a multi-limb modular product (the
key is split into ``s``-bit limbs so every partial product stays below 2^63;
no float128, no Barrett approximation) for primes up to ~2^55.  Only truly
huge universes fall back to chunked Python-int arithmetic on object arrays.
The coefficient vector is the *entire* stored randomness: λ field elements,
i.e. λ·log2(p) bits, which is what the space accounting charges.

For an integer seed the coefficients are a pure function of (λ, p, seed),
so they are drawn once per process and memoised (a bounded LRU cache of
immutable tuples): rebuilding a driver from a checkpoint, or building shard
2..n of a sharded service, reuses the draws instead of re-running the
rejection sampler.  ``seed=None`` and ``Generator`` seeds bypass the cache
and consume the generator exactly as an uncached draw would.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from repro.hashing.primes import next_prime
from repro.utils.rng import as_rng

__all__ = ["KWiseHash", "BernoulliHash", "UniformBucketHash", "StackedHashes",
           "exact_field_threshold"]

#: Largest prime bit-length handled by the int64 multi-limb Horner path.
#: Beyond this the limb count (⌈B/(62−B)⌉) grows past ~8 and the object
#: fallback wins; it also keeps every intermediate strictly below 2^63.
_MULTI_LIMB_MAX_BITS = 55

#: Chunk size of the Python-int (object dtype) fallback — bounds the peak
#: number of live bigint temporaries per Horner sweep.
_OBJECT_CHUNK = 32768

#: Entries of the per-process cache of seeded coefficient draws.  One
#: service configuration draws a few hundred distinct (λ, p, seed) triples
#: (~190 for a d=2, Δ=64 shard), so this holds the draws of ~20 distinct
#: seeds/shapes; evicted entries are simply re-drawn.
_COEFF_CACHE_SIZE = 4096


def exact_field_threshold(phi: float, prime: int) -> int:
    """``⌊φ·p⌋`` in exact integer arithmetic.

    ``int(phi * prime)`` computes the product in float64, which has only 53
    bits of mantissa — for primes above 2^53 the realized threshold (and so
    the realized sampling probability of every ``value < threshold`` test)
    can deviate from φ by far more than the documented 1/p.  Going through
    the float's exact rational value keeps the error strictly below one
    field element for any prime size.
    """
    if phi >= 1.0:
        return int(prime)
    if phi <= 0.0:
        return 0
    frac = Fraction(phi)  # exact binary expansion of the float
    return (frac.numerator * int(prime)) // frac.denominator


def _random_field_elements(rng: np.random.Generator, count: int, p: int) -> list[int]:
    """Draw ``count`` independent uniform elements of GF(p) (p may exceed 64 bits)."""
    nbits = p.bit_length()
    nbytes = (nbits + 7) // 8
    out: list[int] = []
    while len(out) < count:  # scalar-ok: λ draws at construction time
        # Rejection sampling from [0, 2^(8·nbytes)) to [0, p).
        raw = rng.bytes(nbytes * (count - len(out) + 4))
        for i in range(0, len(raw) - nbytes + 1, nbytes):  # scalar-ok
            v = int.from_bytes(raw[i : i + nbytes], "big")
            if v < p:
                out.append(v)
                if len(out) == count:
                    break
    return out


@functools.lru_cache(maxsize=_COEFF_CACHE_SIZE)
def _seeded_coeffs(independence: int, prime: int, seed: int) -> tuple[int, ...]:
    """The coefficients an int-seeded :class:`KWiseHash` draws (memoised)."""
    return tuple(_random_field_elements(np.random.default_rng(seed), independence, prime))


class KWiseHash:
    """A single function drawn from a λ-wise independent family GF(p) → GF(p).

    Parameters
    ----------
    independence:
        λ — the order of independence (polynomial degree is λ−1).  λ ≥ 2.
    universe_bits:
        Keys must satisfy ``0 <= key < 2**universe_bits``; the modulus is the
        next prime above the universe so the key → field map is injective.
    seed:
        Integer seed (coefficients memoised per process), ``numpy``
        Generator (consumed), or ``None`` (fresh OS entropy).
    """

    def __init__(self, independence: int, universe_bits: int, seed=0):
        if independence < 1:
            raise ValueError(f"independence must be >= 1, got {independence}")
        if independence > 1_000_000:
            # The paper's theory-mode λ can reach 10⁸⁺; materializing that
            # many coefficients (and paying O(λ) per evaluation) is never
            # intended — theory mode only reaches a sampler when φ < 1,
            # which needs inputs far beyond a single machine.
            raise ValueError(
                f"independence {independence} is impractically large; "
                "use CoresetParams.practical() or cap params.lam"
            )
        self.independence = int(independence)
        self.universe_bits = int(universe_bits)
        self.prime = next_prime(max(1 << self.universe_bits, 1 << 16))
        if seed is None or isinstance(seed, np.random.Generator):
            self._coeffs = tuple(_random_field_elements(
                as_rng(seed), self.independence, self.prime))
        else:
            self._coeffs = _seeded_coeffs(self.independence, self.prime, int(seed))

    # -- core evaluation ---------------------------------------------------
    def value(self, key: int) -> int:
        """Field value of a single key (scalar reference path; O(λ) mults)."""
        p = self.prime
        acc = 0
        for c in self._coeffs:  # scalar-ok: reference oracle for values_np
            acc = (acc * key + c) % p
        return acc

    def values_np(self, keys) -> np.ndarray:
        """Field values for a batch of keys, as a numpy array.

        Three paths, all bit-identical to :meth:`value`:

        - ``p < 2^31``: plain int64 Horner (every product < 2^62);
        - ``p < 2^55``: int64 Horner with a multi-limb modular product —
          each key is split once into ``s = 62 − bits(p)`` bit limbs and
          ``acc·key mod p`` runs as a short Horner over the limbs, keeping
          every intermediate below 2^63 with no float128 and no Barrett
          approximation;
        - larger primes (or keys beyond int64): chunked Python-int Horner
          on object arrays — kept only for huge universes.

        Returns int64 for the fast paths, object dtype for the fallback.
        """
        p = self.prime
        coeffs = self._coeffs
        if isinstance(keys, np.ndarray) and keys.dtype == np.int64:
            arr = keys
        else:
            seq = keys if isinstance(keys, (list, np.ndarray)) else list(keys)
            if len(seq) == 0:
                return np.empty(0, dtype=np.int64)
            try:
                arr = np.asarray(seq, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                return self._values_object(seq)
        if arr.size == 0:
            return np.empty(0, dtype=np.int64)
        bits = p.bit_length()
        if bits <= 31:
            arr = arr % p
            acc = np.full(arr.shape, coeffs[0], dtype=np.int64)
            for c in coeffs[1:]:  # scalar-ok: per-coefficient, not per-key
                acc = (acc * arr + c) % p
            return acc
        if bits <= _MULTI_LIMB_MAX_BITS:
            return self._values_multi_limb(arr % p, bits)
        return self._values_object(arr.tolist())  # scalar-ok: object-int fallback for >55-bit primes

    def _values_multi_limb(self, arr: np.ndarray, bits: int) -> np.ndarray:
        """int64 Horner for 2^31 ≤ p < 2^55 via limbed modular products.

        With ``s = 62 − bits(p)`` the key splits into ``k = ⌈bits/s⌉`` limbs
        below 2^s.  Each Horner step ``acc·key + c mod p`` runs as
        ``r ← (r·2^s + acc·limb) mod p`` over the limbs (high to low):
        ``r < p < 2^bits`` and ``limb < 2^s`` bound every product and shift
        by 2^(bits+s) = 2^62, so the sum stays below 2^63 — exact int64
        arithmetic, no float128, no Barrett approximation.
        """
        p = self.prime
        s = 62 - bits
        nlimbs = -(-bits // s)
        mask = (1 << s) - 1
        limbs = [(arr >> (s * j)) & mask for j in range(nlimbs - 1, -1, -1)]
        acc = np.full(arr.shape, self._coeffs[0], dtype=np.int64)
        for c in self._coeffs[1:]:  # scalar-ok: per-coefficient sweep
            r = np.zeros(arr.shape, dtype=np.int64)
            for limb in limbs:  # scalar-ok: ≤8 limbs, vectorized over keys
                r = ((r << s) + acc * limb) % p
            acc = (r + c) % p
        return acc

    def _values_object(self, seq) -> np.ndarray:
        """Chunked Python-int Horner for huge universes (object dtype)."""
        p = self.prime
        coeffs = self._coeffs
        out = np.empty(len(seq), dtype=object)
        for lo in range(0, len(seq), _OBJECT_CHUNK):  # scalar-ok: per-chunk
            chunk = np.array([int(k) % p for k in seq[lo: lo + _OBJECT_CHUNK]],
                             dtype=object)
            acc = np.full(chunk.shape, coeffs[0], dtype=object)
            for c in coeffs[1:]:  # scalar-ok: per-coefficient sweep
                acc = (acc * chunk + c) % p
            out[lo: lo + len(chunk)] = acc
        return out

    def values(self, keys: Iterable[int]) -> list[int]:
        """Field values for a batch of keys, as a list of Python ints."""
        keys = keys if isinstance(keys, (list, np.ndarray)) else list(keys)
        return [int(v) for v in self.values_np(keys)]

    def uniform(self, keys: Sequence[int]) -> np.ndarray:
        """Map keys to λ-wise independent uniforms in [0, 1) (float64).

        Division runs per element in Python so huge field values round
        once (int/int is correctly rounded) instead of twice through an
        intermediate float64 conversion.
        """
        p = self.prime
        return np.array([int(v) / p for v in self.values_np(keys)],
                        dtype=np.float64)

    # -- accounting ---------------------------------------------------------
    @property
    def randomness_bits(self) -> int:
        """Bits of stored randomness: λ coefficients of log2(p) bits each."""
        return self.independence * self.prime.bit_length()


class StackedHashes:
    """Batched evaluation of several :class:`KWiseHash` functions at once.

    All functions must share one prime (same ``universe_bits``).  Their
    coefficient vectors are stacked into one ``(H, λ_max)`` matrix — shorter
    polynomials are *left*-padded with zeros, which is a no-op under Horner
    (``0·k + 0 = 0`` until the first real coefficient) — so one sweep of
    λ_max broadcast steps evaluates every function on every key.  This
    amortizes numpy's per-op dispatch over H rows: the streaming driver
    evaluates 11 levels × 3 sub-streams per batch, and stacking turns ~600
    small array ops into ~50 medium ones.

    Bit-identical to calling each function's :meth:`KWiseHash.values_np`.
    """

    def __init__(self, hashes: Sequence[KWiseHash]):
        if not hashes:
            raise ValueError("need at least one hash")
        self.hashes = list(hashes)
        self.prime = hashes[0].prime
        if any(h.prime != self.prime for h in self.hashes):
            raise ValueError("stacked hashes must share one prime")
        lam_max = max(h.independence for h in self.hashes)
        bits = self.prime.bit_length()
        self._bits = bits
        if bits <= _MULTI_LIMB_MAX_BITS:
            coeffs = np.zeros((len(self.hashes), lam_max), dtype=np.int64)
            for row, h in enumerate(self.hashes):  # scalar-ok: construction
                coeffs[row, lam_max - h.independence:] = h._coeffs
            self._coeffs = coeffs
        else:
            self._coeffs = None  # huge prime: per-row object fallback

    def values_np(self, keys) -> np.ndarray:
        """Field values, shape ``(len(hashes), len(keys))``."""
        if not isinstance(keys, np.ndarray):
            keys = np.asarray(keys)
        if self._coeffs is None or keys.dtype == object:
            return np.stack([h.values_np(keys) for h in self.hashes])
        p = self.prime
        bits = self._bits
        arr = keys % p
        C = self._coeffs
        acc = np.zeros((C.shape[0], arr.shape[0]), dtype=np.int64)
        if bits <= 31:
            for step in range(C.shape[1]):  # scalar-ok: per-coefficient sweep
                acc = (acc * arr + C[:, step, None]) % p
            return acc
        s = 62 - bits
        nlimbs = -(-bits // s)
        mask = (1 << s) - 1
        limbs = [(arr >> (s * j)) & mask for j in range(nlimbs - 1, -1, -1)]
        for step in range(C.shape[1]):  # scalar-ok: per-coefficient sweep
            r = np.zeros_like(acc)
            for limb in limbs:  # scalar-ok: ≤8 limbs, vectorized over keys
                r = ((r << s) + acc * limb) % p
            acc = (r + C[:, step, None]) % p
        return acc


class BernoulliHash:
    """λ-wise independent indicator with ``Pr[h(key) = 1] = phi``.

    Implemented as ``value(key) < ⌊phi · p⌋`` with the threshold computed in
    exact integer arithmetic (:func:`exact_field_threshold`); the realized
    probability differs from φ by < 1/p for *any* prime size — float
    multiplication would blow that to ~p/2^53 for primes above 2^53.
    """

    def __init__(self, phi: float, independence: int, universe_bits: int, seed=0):
        if not (0.0 <= phi <= 1.0):
            raise ValueError(f"phi must be in [0, 1], got {phi}")
        self.phi = float(phi)
        self._h = KWiseHash(independence, universe_bits, seed=seed)
        self._threshold = exact_field_threshold(self.phi, self._h.prime)

    def indicator(self, key: int) -> bool:
        """Whether ``key`` is sampled."""
        if self.phi >= 1.0:
            return True
        return self._h.value(key) < self._threshold

    def select(self, keys: Sequence[int]) -> np.ndarray:
        """Boolean mask of sampled keys (one vectorized Horner sweep)."""
        if self.phi >= 1.0:
            return np.ones(len(keys), dtype=bool)
        return np.asarray(self._h.values_np(keys) < self._threshold, dtype=bool)

    @property
    def independence(self) -> int:
        """The λ of the underlying λ-wise independent family."""
        return self._h.independence

    @property
    def randomness_bits(self) -> int:
        """Bits of stored randomness (delegates to the field polynomial)."""
        return self._h.randomness_bits


class UniformBucketHash:
    """λ-wise independent map from keys to ``num_buckets`` buckets.

    Used by the IBLT-style sketches in :mod:`repro.streaming.sketch`.  The
    field value is reduced mod the bucket count; the induced non-uniformity
    is < num_buckets / p, negligible for universe-sized primes.
    """

    def __init__(self, num_buckets: int, independence: int, universe_bits: int, seed=0):
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_buckets = int(num_buckets)
        self._h = KWiseHash(independence, universe_bits, seed=seed)

    def bucket(self, key: int) -> int:
        """Bucket index of a single key (scalar reference path)."""
        return self._h.value(key) % self.num_buckets

    def buckets(self, keys: Sequence[int]) -> np.ndarray:
        """Bucket indices for a batch of keys (int64, one Horner sweep)."""
        vals = self._h.values_np(keys)
        return (vals % self.num_buckets).astype(np.int64, copy=False)

    @property
    def randomness_bits(self) -> int:
        """Bits of stored randomness (delegates to the field polynomial)."""
        return self._h.randomness_bits
