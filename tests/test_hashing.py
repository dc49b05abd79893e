"""Unit and property tests for the λ-wise independent hash families."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import BernoulliHash, KWiseHash, is_prime, next_prime
from repro.hashing.kwise import as_keys
from repro.streaming.sketch import SketchHashFamily


class TestPrimes:
    @pytest.mark.parametrize("n,expected", [
        (0, False), (1, False), (2, True), (3, True), (4, False),
        (97, True), (561, False),  # Carmichael number
        ((1 << 61) - 1, True),     # Mersenne prime
        ((1 << 61) + 1, False),
    ])
    def test_is_prime_known_values(self, n, expected):
        assert is_prime(n) is expected

    def test_next_prime_is_prime_and_larger(self):
        for n in (1, 10, 100, 1 << 31, 1 << 64, 1 << 90):
            p = next_prime(n)
            assert p > n
            assert is_prime(p)

    @given(st.integers(min_value=2, max_value=100_000))
    @settings(max_examples=50)
    def test_is_prime_matches_trial_division(self, n):
        ref = n >= 2 and all(n % i for i in range(2, int(n**0.5) + 1))
        assert is_prime(n) is ref


class TestKWiseHash:
    def test_deterministic_given_seed(self):
        h1 = KWiseHash(8, 64, seed=5)
        h2 = KWiseHash(8, 64, seed=5)
        keys = list(range(100))
        assert h1.values(keys) == h2.values(keys)

    def test_different_seeds_differ(self):
        h1 = KWiseHash(8, 64, seed=5)
        h2 = KWiseHash(8, 64, seed=6)
        keys = list(range(100))
        assert h1.values(keys) != h2.values(keys)

    def test_values_in_field(self):
        h = KWiseHash(4, 32, seed=1)
        for v in h.values(range(1000)):
            assert 0 <= v < h.prime

    def test_large_universe_keys(self):
        h = KWiseHash(4, 200, seed=2)
        big = (1 << 199) + 12345
        v = h.value(big)
        assert 0 <= v < h.prime
        assert h.prime > (1 << 200)

    def test_uniform_mean_is_half(self):
        h = KWiseHash(8, 48, seed=3)
        u = h.uniform(list(range(4000)))
        assert abs(u.mean() - 0.5) < 0.03

    def test_pairwise_independence_correlation(self):
        # For a 2-wise independent family the empirical correlation between
        # h(x) and h(y) over random functions is near zero; we check over
        # keys for one function that consecutive values look uncorrelated.
        h = KWiseHash(4, 40, seed=9)
        u = h.uniform(list(range(5000)))
        corr = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(corr) < 0.06

    def test_randomness_bits_formula(self):
        h = KWiseHash(8, 64, seed=0)
        assert h.randomness_bits == 8 * h.prime.bit_length()

    def test_rejects_zero_independence(self):
        with pytest.raises(ValueError):
            KWiseHash(0, 32)


def _reference_field_elements(rng, count, p):
    """The byte-wide rejection sampler every seeded hash has always used
    (the seed → coefficient contract checkpoints rely on)."""
    nbytes = (p.bit_length() + 7) // 8
    out = []
    while len(out) < count:
        raw = rng.bytes(nbytes * (count - len(out) + 4))
        for i in range(0, len(raw) - nbytes + 1, nbytes):
            v = int.from_bytes(raw[i: i + nbytes], "big")
            if v < p:
                out.append(v)
                if len(out) == count:
                    break
    return out


class TestKWiseRandomness:
    """Pins the seed → coefficient derivation: checkpoints store only the
    seed, so a drift here silently changes every restored sketch."""

    @pytest.mark.parametrize("lam,bits,seed,prime,coeffs", [
        (4, 8, 0, 65537, (23277, 12417, 26962, 48293)),
        (6, 16, 12345, 65537, (8495, 60409, 59309, 6001, 14568, 13762)),
        (4, 16, 7633338632128305107, 65537, (42060, 24128, 32196, 49169)),
        (3, 40, 7, 1099511627791, (727809669987, 206531643384, 880691628196)),
        (3, 70, 7, 1180591620717411303449,
         (195158799970182768490, 934001369132143552017, 1060408217557609695452)),
    ])
    def test_pinned_coefficients(self, lam, bits, seed, prime, coeffs):
        for _ in range(2):  # a fresh draw, then the memoised one
            h = KWiseHash(lam, bits, seed=seed)
            assert h.prime == prime
            assert h._coeffs == coeffs

    @pytest.mark.parametrize("lam,bits", [(5, 16), (3, 40), (2, 70)])
    def test_generator_seed_consumes_like_reference(self, lam, bits):
        rng = np.random.default_rng(99)
        ref_rng = np.random.default_rng(99)
        h = KWiseHash(lam, bits, seed=rng)
        want = _reference_field_elements(ref_rng, lam, h.prime)
        assert list(h._coeffs) == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # A second draw from the same generator continues the stream.
        h2 = KWiseHash(lam, bits, seed=rng)
        assert list(h2._coeffs) == _reference_field_elements(ref_rng, lam, h.prime)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_int_seed_matches_generator_seed(self):
        assert (KWiseHash(7, 16, seed=31)._coeffs
                == KWiseHash(7, 16, seed=np.random.default_rng(31))._coeffs)

    def test_same_seed_shares_no_mutable_coefficients(self):
        a = KWiseHash(6, 16, seed=4)
        b = KWiseHash(6, 16, seed=4)
        assert a._coeffs == b._coeffs
        assert isinstance(a._coeffs, tuple)
        assert all(type(c) is int for c in a._coeffs)
        with pytest.raises(TypeError):
            a._coeffs[0] = 0
        assert a.values(range(50)) == b.values(range(50))

    def test_unseeded_hashes_draw_fresh(self):
        assert KWiseHash(8, 16, seed=None)._coeffs != KWiseHash(8, 16, seed=None)._coeffs


class TestBernoulliHash:
    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9])
    def test_empirical_rate(self, phi):
        h = BernoulliHash(phi, independence=8, universe_bits=48, seed=7)
        mask = h.select(list(range(8000)))
        assert abs(mask.mean() - phi) < 0.03

    def test_phi_one_selects_everything(self):
        h = BernoulliHash(1.0, independence=4, universe_bits=32, seed=0)
        assert h.select(list(range(50))).all()

    def test_phi_zero_selects_nothing(self):
        h = BernoulliHash(0.0, independence=4, universe_bits=32, seed=0)
        assert not h.select(list(range(50))).any()

    def test_indicator_matches_select(self):
        h = BernoulliHash(0.3, independence=6, universe_bits=40, seed=4)
        keys = list(range(200))
        mask = h.select(keys)
        assert all(h.indicator(k) == bool(m) for k, m in zip(keys, mask))

    def test_invalid_phi_rejected(self):
        with pytest.raises(ValueError):
            BernoulliHash(1.5, independence=4, universe_bits=32)

    def test_consistent_across_instances_same_seed(self):
        a = BernoulliHash(0.4, 8, 48, seed=12)
        b = BernoulliHash(0.4, 8, 48, seed=12)
        keys = [3, 1 << 40, 17, 999999]
        assert list(a.select(keys)) == list(b.select(keys))


class TestUniformBucketHash:
    """Bucket positions of the IBLT hash family: λ = 6 row polynomials
    reduced mod the bucket count."""

    def test_buckets_in_range(self):
        pos, _ = SketchHashFamily(17, 48, seed=3).hash_np(list(range(1000)))
        assert pos.min() >= 0 and pos.max() < 17

    def test_roughly_uniform_load(self):
        m = 16
        pos, _ = SketchHashFamily(m, 48, seed=5).hash_np(list(range(16000)))
        for row in pos:
            counts = np.bincount(row, minlength=m)
            assert counts.min() > 16000 / m * 0.8
            assert counts.max() < 16000 / m * 1.2

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    @settings(max_examples=50)
    def test_bucket_deterministic(self, key):
        a = SketchHashFamily(13, 48, seed=8)
        b = SketchHashFamily(13, 48, seed=8)
        assert a.positions(key) == b.positions(key)
        assert a.hash_np([key])[0][:, 0].tolist() == list(a.positions(key))


class TestAsKeys:
    """The one key normaliser every hashing, Storing, IBLT and checkpoint
    path types its keys through."""

    W = 1 << 70

    @staticmethod
    def _typed(a: np.ndarray):
        kinds = sorted({type(v).__name__ for v in a}) if a.dtype == object else None
        return a.dtype.str, a.tolist(), kinds

    def test_int64_ndarray_passes_through(self):
        keys = np.array([5, 1, 1 << 62], dtype=np.int64)
        assert as_keys(keys) is keys

    @pytest.mark.parametrize("keys", [
        [W, 1], [1, 1 << 63], [(1 << 64) + 3], iter([7, W]),
    ])
    def test_wide_keys_become_python_ints(self, keys):
        keys = list(keys)
        assert self._typed(as_keys(keys)) == ("|O", keys, ["int"])

    def test_narrow_list_becomes_int64(self):
        assert self._typed(as_keys([3, 1, 2])) == ("<i8", [3, 1, 2], None)
        assert self._typed(as_keys([])) == ("<i8", [], None)

    @pytest.mark.parametrize("keys", [
        np.array([4, 2], dtype=np.int32),
        np.array([4, 2], dtype=np.uint64),
        np.array([4, 2], dtype=object),
    ])
    def test_other_ndarray_fitting_int64_becomes_int64(self, keys):
        assert self._typed(as_keys(keys)) == ("<i8", [4, 2], None)

    def test_uint64_past_int64_stays_exact(self):
        keys = np.array([1, 1 << 63], dtype=np.uint64)
        assert self._typed(as_keys(keys)) == ("|O", [1, 1 << 63], ["int"])

    def test_wide_object_ndarray_passes_through(self):
        keys = np.array([self.W, 1], dtype=object)
        assert as_keys(keys) is keys
