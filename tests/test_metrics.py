"""Tests for cost functions and distance kernels (Section 2 definitions)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.costs import capacitated_cost, min_capacity, uncapacitated_cost
from repro.metrics.distances import (
    nearest_center,
    pairwise_distances,
    pairwise_power_distances,
)
from repro.metrics.evaluation import coreset_cost_ratio


class TestDistances:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 5, size=(40, 3))
        z = rng.uniform(-5, 5, size=(7, 3))
        ref = np.linalg.norm(x[:, None, :] - z[None, :, :], axis=2)
        assert np.allclose(pairwise_distances(x, z), ref, atol=1e-9)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_power_distances(self, r):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 10, size=(20, 2))
        z = rng.uniform(0, 10, size=(3, 2))
        ref = np.linalg.norm(x[:, None, :] - z[None, :, :], axis=2) ** r
        assert np.allclose(pairwise_power_distances(x, z, r), ref, atol=1e-8)

    def test_identical_points_zero(self):
        x = np.array([[1.0, 2.0]])
        assert pairwise_distances(x, x)[0, 0] == 0.0

    def test_nearest_center(self):
        x = np.array([[0.0, 0.0], [10.0, 0.0]])
        z = np.array([[1.0, 0.0], [9.0, 0.0]])
        labels, dr = nearest_center(x, z, 2.0)
        assert labels.tolist() == [0, 1]
        assert dr == pytest.approx([1.0, 1.0])

    def test_chunked_path_matches(self):
        import repro.metrics.distances as dmod

        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(500, 2))
        z = rng.uniform(0, 1, size=(4, 2))
        full = pairwise_power_distances(x, z, 2.0)
        old = dmod._CHUNK_TARGET_ELEMS
        try:
            dmod._CHUNK_TARGET_ELEMS = 64
            chunked = pairwise_power_distances(x, z, 2.0)
        finally:
            dmod._CHUNK_TARGET_ELEMS = old
        assert np.allclose(full, chunked)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_triangle_like_bound_fact21(self, seed):
        """Fact 2.1: dist^r(x,z) ≤ 2^{r-1}(dist^r(x,y) + dist^r(y,z))."""
        rng = np.random.default_rng(seed)
        x, y, z = rng.uniform(-10, 10, size=(3, 4))
        for r in (1.0, 2.0, 3.0):
            dxz = np.linalg.norm(x - z) ** r
            dxy = np.linalg.norm(x - y) ** r
            dyz = np.linalg.norm(y - z) ** r
            assert dxz <= 2 ** (r - 1) * (dxy + dyz) + 1e-9


class TestCosts:
    def test_uncapacitated_equals_capacitated_with_inf(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 50, size=(30, 2))
        Z = rng.uniform(0, 50, size=(3, 2))
        assert capacitated_cost(pts, Z, math.inf) == pytest.approx(
            uncapacitated_cost(pts, Z)
        )

    def test_capacitated_monotone_in_t(self):
        """cost_t is non-increasing in t (more capacity can't hurt)."""
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 50, size=(24, 2))
        Z = rng.uniform(0, 50, size=(3, 2))
        ts = [8, 10, 16, 24]
        costs = [capacitated_cost(pts, Z, t) for t in ts]
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_loose_capacity_equals_uncapacitated(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 50, size=(20, 2))
        Z = rng.uniform(0, 50, size=(2, 2))
        assert capacitated_cost(pts, Z, 20) == pytest.approx(
            uncapacitated_cost(pts, Z), rel=1e-9
        )

    def test_infeasible_is_inf(self):
        pts = np.zeros((10, 2))
        Z = np.ones((2, 2))
        assert math.isinf(capacitated_cost(pts, Z, 4))

    def test_nan_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacities"):
            capacitated_cost(np.zeros((4, 2)), np.ones((2, 2)), float("nan"))

    def test_weighted_cost_scales(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 50, size=(15, 2))
        Z = rng.uniform(0, 50, size=(2, 2))
        w = np.full(15, 2.0)
        c1 = capacitated_cost(pts, Z, 10, weights=None)
        c2 = capacitated_cost(pts, Z, 20, weights=w)
        assert c2 == pytest.approx(2 * c1, rel=1e-9)

    def test_min_capacity(self):
        assert min_capacity(100, 4) == 25.0

    def test_zero_cost_when_points_on_centers(self):
        Z = np.array([[1.0, 1.0], [5.0, 5.0]])
        pts = np.repeat(Z, 3, axis=0)
        assert capacitated_cost(pts, Z, 3) == pytest.approx(0.0, abs=1e-9)


class TestQualityEntry:
    def test_ratios_on_identity_coreset(self):
        """A 'coreset' equal to the full set with unit weights has perfect
        sandwich ratios at eta=0 capacities."""
        from repro.core.weighted import Coreset

        rng = np.random.default_rng(7)
        pts = rng.integers(1, 65, size=(40, 2))
        cs = Coreset(points=pts, weights=np.ones(40), o=1.0, delta=64,
                     input_size=40)
        Z = rng.integers(1, 65, size=(2, 2)).astype(float)
        entry = coreset_cost_ratio(pts, cs, Z, t=25, r=2.0, eta=0.0)
        assert entry.upper_ratio == pytest.approx(1.0, rel=1e-9)
        assert entry.lower_ratio == pytest.approx(1.0, rel=1e-9)
