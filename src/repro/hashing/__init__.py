"""λ-wise independent hashing over large key universes.

Algorithm 2 (line 10), Algorithm 3, and Algorithm 4 of the paper all sample
points with *limited-independence* hash functions so that the space used for
randomness is ``poly(ε⁻¹η⁻¹ k d log Δ)`` bits rather than one random bit per
point of the universe.  Lemma 3.13 ([BR94]) is the concentration bound that
makes λ-wise independence sufficient.

We implement the textbook construction: a uniformly random polynomial of
degree λ−1 over a prime field whose size exceeds the key universe, evaluated
with Horner's rule — one batched kernel, :func:`~repro.hashing.kwise.horner`,
for every polynomial hash in the package.  Keys are arbitrary non-negative Python integers (grid
cells and points are encoded in mixed radix, which can exceed 64 bits).
"""

from repro.hashing.primes import is_prime, next_prime
from repro.hashing.kwise import KWiseHash, BernoulliHash, StackedHashes, horner

__all__ = [
    "is_prime",
    "next_prime",
    "KWiseHash",
    "BernoulliHash",
    "StackedHashes",
    "horner",
]
