"""λ-wise independent hash families via random polynomials over a prime field.

A uniformly random polynomial of degree λ−1 over GF(p), evaluated at distinct
keys, yields λ-wise independent, uniformly distributed field values.  From
that single primitive we derive the shapes the algorithms need:

- :class:`KWiseHash` — raw field values / uniform reals in [0, 1);
- :class:`StackedHashes` — several functions over one prime, evaluated
  together (the streaming sub-stream hashes, the IBLT row hashes and
  fingerprint);
- :class:`BernoulliHash` — the λ-wise independent indicator
  ``Pr[h(p) = 1] = φ`` used by Algorithms 2, 3, and 4 for subsampling.

Every batched evaluation is one Horner kernel, :func:`horner`, over a
coefficient matrix (one row per function).  It runs in numpy int64 whenever
every intermediate provably fits — directly for primes below 2^31, and via
a multi-limb modular product (the key is split into ``s``-bit limbs so every
partial product stays below 2^63; no float128, no Barrett approximation)
for primes up to ~2^55.  Only truly huge universes fall back to chunked
Python-int arithmetic on object arrays.  The scalar :meth:`KWiseHash.value`
is the reference it is tested against.  The coefficient vector is the
*entire* stored randomness: λ field elements, i.e. λ·log2(p) bits, which is
what the space accounting charges.

For an integer seed the coefficients are a pure function of (λ, p, seed),
so they are drawn once per process and memoised (a bounded LRU cache of
immutable tuples): rebuilding a driver from a checkpoint, or building shard
2..n of a sharded service, reuses the draws instead of re-running the
rejection sampler.  ``seed=None`` and ``Generator`` seeds bypass the cache
and consume the generator exactly as an uncached draw would.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from repro.hashing.primes import next_prime
from repro.utils.rng import as_rng

__all__ = ["KWiseHash", "BernoulliHash", "StackedHashes", "horner",
           "as_keys", "exact_field_threshold"]

#: Largest prime bit-length handled by the int64 multi-limb Horner path.
#: Beyond this the limb count (⌈B/(62−B)⌉) grows past ~8 and the object
#: fallback wins; it also keeps every intermediate strictly below 2^63.
_MULTI_LIMB_MAX_BITS = 55

#: Chunk size of the Python-int (object dtype) fallback — bounds the peak
#: number of live bigint temporaries per Horner sweep.
_OBJECT_CHUNK = 32768

_INT64 = np.dtype(np.int64)

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


def _coeff_matrix(rows: Sequence[Sequence[int]], prime: int) -> np.ndarray:
    """Coefficient vectors as one ``(H, λ_max)`` matrix for :func:`horner`.

    Shorter polynomials are *left*-padded with zeros, a no-op under Horner
    (``0·k + 0 = 0`` until the first real coefficient).  int64 when the
    prime takes an int64 path, else object dtype (Python ints).
    """
    lam_max = max(len(row) for row in rows)
    dtype = np.int64 if prime.bit_length() <= _MULTI_LIMB_MAX_BITS else object
    coeffs = np.zeros((len(rows), lam_max), dtype=dtype)
    for i, row in enumerate(rows):  # scalar-ok: construction, per polynomial
        coeffs[i, lam_max - len(row):] = row
    return coeffs


def as_keys(keys) -> np.ndarray:
    """The one key normaliser: keys as a 1-D int64 array, or an object
    array of Python ints when some key does not fit int64.

    An int64 ndarray passes through unchanged (no copy).  Any other input
    is typed by value: a list or iterable of ints, or an ndarray of another
    integer dtype, comes back int64 when every key fits and as an object
    array of Python ints otherwise; an object ndarray comes back int64
    when every key fits and unchanged (no copy) otherwise.  Hashing, the
    Storing structures, the IBLTs and the checkpoint decoder all type
    their keys through here.
    """
    if type(keys) is np.ndarray and keys.dtype is _INT64:  # the ingest fast path
        return keys
    if isinstance(keys, np.ndarray):
        if keys.dtype.kind == "u" and keys.size and int(keys.max()) >> 63:
            return np.array(keys.tolist(), dtype=object)  # scalar-ok: keys beyond int64
        seq = keys
    else:
        seq = keys if isinstance(keys, list) else list(keys)
    try:
        return np.asarray(seq, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        if isinstance(seq, np.ndarray) and seq.dtype == object:
            return seq
        return np.array([int(k) for k in seq], dtype=object)  # scalar-ok: keys beyond int64


def horner(coeffs: np.ndarray, keys: np.ndarray, prime: int) -> np.ndarray:
    """Every row polynomial of ``coeffs`` at every key, mod ``prime``.

    ``coeffs`` is a :func:`_coeff_matrix` (highest degree first) and
    ``keys`` a 1-D int64 or object array of non-negative keys.  Returns the
    ``(H, n)`` field values, bit-identical to :meth:`KWiseHash.value` row
    by row, through one of three regimes:

    - ``p < 2^31``: plain int64 Horner (every product < 2^62);
    - ``p < 2^55``: int64 Horner with a multi-limb modular product — each
      key is split once into ``s = 62 − bits(p)`` bit limbs below 2^s and
      ``acc·key mod p`` runs as ``r ← (r·2^s + acc·limb) mod p`` over the
      limbs (high to low); ``r, acc < p < 2^bits`` bound every product and
      shift by 2^62, so each sum stays below 2^63;
    - larger primes, or keys beyond int64: chunked Python-int Horner on
      object arrays (object dtype out) — kept only for huge universes.

    The int64 regimes update the accumulator in place, so a sweep allocates
    its buffers once however many rows and coefficients it has.
    """
    p = int(prime)
    bits = p.bit_length()
    if keys.dtype == object or bits > _MULTI_LIMB_MAX_BITS:
        return _horner_object(coeffs.astype(object, copy=False), keys, p)
    rows = coeffs.shape[0]
    arr = (keys % p)[None, :]
    # One row takes Python-int coefficients: numpy adds a scalar faster
    # than it broadcasts a (1, 1) column.
    cols = coeffs[0].tolist() if rows == 1 else list(coeffs.T[:, :, None])  # scalar-ok: λ coefficients
    acc = np.empty((rows, arr.shape[1]), dtype=np.int64)
    acc[:] = cols[0]
    if bits <= 31:
        for c in cols[1:]:  # scalar-ok: per-coefficient sweep
            acc *= arr
            acc += c
            acc %= p
        return acc
    s = 62 - bits
    mask = (1 << s) - 1
    limbs = [(arr >> (s * j)) & mask for j in range(-(-bits // s) - 1, -1, -1)]
    r = np.empty_like(acc)
    part = np.empty_like(acc)
    for c in cols[1:]:  # scalar-ok: per-coefficient sweep
        np.multiply(acc, limbs[0], out=r)
        r %= p
        for limb in limbs[1:]:  # scalar-ok: ≤8 limbs, vectorized over keys
            r <<= s
            r += np.multiply(acc, limb, out=part)
            r %= p
        np.add(r, c, out=acc)
        acc %= p
    return acc


def _horner_object(coeffs: np.ndarray, keys: np.ndarray, p: int) -> np.ndarray:
    """The Python-int regime of :func:`horner`, in key chunks."""
    out = np.empty((coeffs.shape[0], len(keys)), dtype=object)
    for lo in range(0, len(keys), _OBJECT_CHUNK):  # scalar-ok: per-chunk
        chunk = keys[lo: lo + _OBJECT_CHUNK].astype(object) % p
        acc = np.repeat(coeffs[:, :1], len(chunk), axis=1)
        for j in range(1, coeffs.shape[1]):  # scalar-ok: per-coefficient sweep
            acc = (acc * chunk + coeffs[:, j, None]) % p
        out[:, lo: lo + len(chunk)] = acc
    return out


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
        self._row = _coeff_matrix([self._coeffs], self.prime)

    # -- core evaluation ---------------------------------------------------
    def value(self, key: int) -> int:
        """Field value of a single key (scalar reference path; O(λ) mults)."""
        p = self.prime
        acc = 0
        for c in self._coeffs:  # scalar-ok: reference oracle for values_np
            acc = (acc * key + c) % p
        return acc

    def values_np(self, keys) -> np.ndarray:
        """Field values for a batch of keys: one row of :func:`horner`
        (int64 on the fast paths, object dtype for huge primes)."""
        return horner(self._row, as_keys(keys), self.prime)[0]

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
    coefficient vectors stack into one :func:`horner` matrix, so one sweep
    of λ_max broadcast steps evaluates every function on every key.  This
    amortizes numpy's per-op dispatch over H rows: the streaming driver
    evaluates 11 levels per sub-stream per batch, and an IBLT family its
    three row hashes and its fingerprint.
    """

    def __init__(self, hashes: Sequence[KWiseHash]):
        if not hashes:
            raise ValueError("need at least one hash")
        self.hashes = list(hashes)
        self.prime = hashes[0].prime
        if any(h.prime != self.prime for h in self.hashes):
            raise ValueError("stacked hashes must share one prime")
        self._coeffs = _coeff_matrix([h._coeffs for h in self.hashes], self.prime)

    def values_np(self, keys) -> np.ndarray:
        """Field values, shape ``(len(hashes), len(keys))``."""
        return horner(self._coeffs, as_keys(keys), self.prime)


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
