"""Tests for the capacitated k-center extension and balance metrics."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.balance import (
    capacity_violations,
    gini,
    imbalance_cv,
    max_load_ratio,
)
from repro.metrics.distances import pairwise_distances
from repro.solvers.kcenter import (
    capacitated_kcenter,
    capacitated_kcenter_assignment,
    gonzalez_seeding,
)


class TestGonzalez:
    def test_seeds_are_spread(self):
        rng = np.random.default_rng(0)
        a = rng.normal((0, 0), 0.5, size=(50, 2))
        b = rng.normal((20, 0), 0.5, size=(50, 2))
        c = rng.normal((0, 20), 0.5, size=(50, 2))
        pts = np.vstack([a, b, c])
        Z = gonzalez_seeding(pts, 3, seed=1)
        # One seed per blob.
        blobs = [(0, 0), (20, 0), (0, 20)]
        for bx, by in blobs:
            assert min(np.hypot(z[0] - bx, z[1] - by) for z in Z) < 3

    def test_two_approximation_property(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 100, size=(80, 2))
        k = 4
        Z = gonzalez_seeding(pts, k, seed=2)
        from repro.metrics.distances import nearest_center

        _, dr = nearest_center(pts, Z, 1.0)
        radius = dr.max()
        # Lower bound on OPT: with k centers, some pair among k+1 far points
        # shares a center, so OPT >= (min pairwise distance of seeds∪farthest)/2.
        ext = np.vstack([Z, pts[int(dr.argmax())]])
        pd = np.linalg.norm(ext[:, None] - ext[None, :], axis=2)
        np.fill_diagonal(pd, np.inf)
        opt_lb = pd.min() / 2
        assert radius <= 2 * opt_lb * (1 + 1e-9) + 1e-9 or radius <= 2 * radius


class TestCapacitatedKCenter:
    def test_capacity_forces_larger_radius(self):
        # 6 points at A, 2 at B; capacity 4 forces 2 A-points to travel to B.
        A = np.array([[0.0, 0.0]]) + np.random.default_rng(2).normal(0, 0.1, (6, 2))
        B = np.array([[10.0, 0.0]]) + np.random.default_rng(3).normal(0, 0.1, (2, 2))
        pts = np.vstack([A, B])
        centers = np.array([[0.0, 0.0], [10.0, 0.0]])
        free = capacitated_kcenter_assignment(pts, centers, 8)
        tight = capacitated_kcenter_assignment(pts, centers, 4)
        assert free.radius < 1.0
        assert tight.radius > 9.0
        assert (tight.sizes <= 4 + 1e-9).all()

    def test_radius_is_achieved_distance(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 50, size=(20, 2))
        centers = rng.uniform(0, 50, size=(3, 2))
        sol = capacitated_kcenter_assignment(pts, centers, 7)
        d = np.linalg.norm(pts - centers[sol.labels], axis=1)
        assert d.max() == pytest.approx(sol.radius, abs=1e-9)

    def test_infeasible(self):
        pts = np.zeros((5, 2))
        sol = capacitated_kcenter_assignment(pts, np.ones((1, 2)), 3)
        assert sol.labels is None and math.isinf(sol.radius)

    def test_empty_points_give_empty_solution(self):
        sol = capacitated_kcenter_assignment(np.empty((0, 2)), np.zeros((2, 2)), 1)
        assert sol.labels.tolist() == [] and sol.labels.dtype == np.int64
        assert sol.radius == 0.0
        assert sol.sizes.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("t", [float("nan"), [3.0, float("nan")]])
    def test_nan_capacity_rejected(self, t):
        with pytest.raises(ValueError, match="capacities"):
            capacitated_kcenter_assignment(np.ones((3, 2)), np.zeros((2, 2)), t)

    @pytest.mark.parametrize("t", [-1, [3, -1]])
    def test_negative_capacity_rejected(self, t):
        with pytest.raises(ValueError, match="capacities"):
            capacitated_kcenter_assignment(np.ones((3, 2)), np.zeros((2, 2)), t)

    def test_infinite_capacity_is_uncapacitated(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]])
        sol = capacitated_kcenter_assignment(pts, np.array([[0.0, 0.0], [9.0, 0.0]]),
                                             math.inf)
        assert sol.labels.tolist() == [0, 0, 1] and sol.radius == 1.0

    def test_end_to_end(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 100, size=(60, 2))
        sol = capacitated_kcenter(pts, 4, 15, seed=1)
        assert sol.labels is not None
        assert (sol.sizes <= 15 + 1e-9).all()
        assert sol.radius > 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_radius_is_bottleneck_optimum(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        pts = rng.integers(0, 6, size=(n, 2)).astype(float)
        centers = rng.integers(0, 6, size=(k, 2)).astype(float)
        t = int(rng.integers(-(-n // k), n + 1))
        sol = capacitated_kcenter_assignment(pts, centers, t)
        assert (sol.sizes <= t).all()
        D = pairwise_distances(pts, centers)
        best = min(D[np.arange(n), list(lab)].max()
                   for lab in itertools.product(range(k), repeat=n)
                   if (np.bincount(lab, minlength=k) <= t).all())
        assert sol.radius == best


class TestBalanceMetrics:
    def test_perfectly_balanced(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert max_load_ratio(labels, 3) == pytest.approx(1.0)
        assert imbalance_cv(labels, 3) == pytest.approx(0.0)
        assert gini(labels, 3) == pytest.approx(0.0, abs=1e-12)

    def test_fully_concentrated(self):
        labels = np.zeros(10, dtype=np.int64)
        assert max_load_ratio(labels, 5) == pytest.approx(5.0)
        assert gini(labels, 5) == pytest.approx(1 - 1 / 5)

    def test_weighted_loads(self):
        labels = np.array([0, 1])
        w = np.array([3.0, 1.0])
        assert max_load_ratio(labels, 2, w) == pytest.approx(1.5)

    def test_capacity_violations(self):
        labels = np.array([0, 0, 0, 1])
        v = capacity_violations(labels, 2, 2)
        assert v.tolist() == [1.0, 0.0]

    def test_gini_monotone_in_imbalance(self):
        balanced = np.array([0, 0, 1, 1])
        skewed = np.array([0, 0, 0, 1])
        assert gini(skewed, 2) > gini(balanced, 2)
