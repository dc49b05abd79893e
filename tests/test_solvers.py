"""Tests for the clustering solvers (the (α, β) black boxes)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import gaussian_mixture, unbalanced_mixture
from repro.metrics.costs import uncapacitated_cost
from repro.solvers import (
    CapacitatedKClustering,
    estimate_opt_cost,
    exact_capacitated_kclustering,
    kmeans_plusplus,
    lloyd,
)
from repro.solvers.lloyd import weighted_center


class TestKMeansPP:
    def test_returns_k_rows_from_input(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 100, size=(200, 3))
        Z = kmeans_plusplus(pts, 5, seed=1)
        assert Z.shape == (5, 3)
        pt_set = set(map(tuple, pts.tolist()))
        assert all(tuple(z) in pt_set for z in Z.tolist())

    def test_separated_clusters_get_one_seed_each(self):
        pts, means, _ = gaussian_mixture(900, 2, 1024, k=3, spread=0.01,
                                         seed=3, return_truth=True)
        Z = kmeans_plusplus(pts.astype(float), 3, seed=5)
        # Every planted mean has a seed within 5 sigma.
        d = np.linalg.norm(means[:, None, :].astype(float) - Z[None, :, :], axis=2)
        assert (d.min(axis=1) < 5 * 0.01 * 1024).all()

    def test_weighted_seeding_prefers_heavy_points(self):
        pts = np.array([[0.0, 0.0], [100.0, 100.0]])
        w = np.array([1e-9, 1.0])
        Z = kmeans_plusplus(pts, 1, weights=w, seed=2)
        assert tuple(Z[0]) == (100.0, 100.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            kmeans_plusplus(np.empty((0, 2)), 2)

    def test_k_larger_than_distinct_points(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0]])
        Z = kmeans_plusplus(pts, 4, seed=0)
        assert Z.shape == (4, 2)


class TestWeightedCenter:
    def test_r2_is_weighted_mean(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0]])
        w = np.array([1.0, 3.0])
        c = weighted_center(pts, w, 2.0)
        assert c == pytest.approx([3.0, 0.0])

    def test_r1_is_geometric_median(self):
        # Geometric median of 3 collinear unit-weight points = middle point.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        c = weighted_center(pts, np.ones(3), 1.0)
        assert c[0] == pytest.approx(1.0, abs=1e-6)

    def test_r1_weiszfeld_beats_mean(self):
        rng = np.random.default_rng(1)
        pts = np.vstack([rng.normal(0, 1, (50, 2)), [[100.0, 100.0]]])
        med = weighted_center(pts, np.ones(51), 1.0)
        mean = pts.mean(axis=0)
        cost = lambda c: np.linalg.norm(pts - c, axis=1).sum()
        assert cost(med) < cost(mean)


class TestLloyd:
    def test_recovers_planted_clusters(self):
        pts, means, _ = gaussian_mixture(1200, 2, 1024, k=3, spread=0.01,
                                         seed=7, return_truth=True)
        res = lloyd(pts, 3, seed=4)
        d = np.linalg.norm(means[:, None, :].astype(float) - res.centers[None], axis=2)
        assert (d.min(axis=1) < 3 * 0.01 * 1024).all()

    def test_cost_monotone_vs_seeding(self):
        pts = gaussian_mixture(600, 2, 256, k=3, seed=8).astype(float)
        seeds = kmeans_plusplus(pts, 3, seed=9)  # lloyd's own seeding
        seed_cost = uncapacitated_cost(pts, seeds, 2.0)
        res = lloyd(pts, 3, seed=9)
        assert res.cost <= seed_cost + 1e-9

    def test_weighted_equivalent_to_duplication(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 20, size=(40, 2))
        w = rng.integers(1, 4, size=40).astype(float)
        dup = np.repeat(pts, w.astype(int), axis=0)
        a = lloyd(pts, 2, weights=w, seed=6)
        b = lloyd(dup, 2, seed=6)
        assert a.cost == pytest.approx(b.cost, rel=0.25)


class TestCapacitatedSolver:
    def test_respects_capacity(self):
        pts = unbalanced_mixture(500, 2, 256, k=3, imbalance=6.0, seed=2).astype(float)
        t = len(pts) / 3 * 1.05
        solver = CapacitatedKClustering(k=3, capacity=t, seed=1, restarts=2)
        sol = solver.fit(pts)
        assert sol.max_violation() <= 1.0 + 1e-6

    def test_unbalanced_capacitated_costs_more_than_free(self):
        pts = unbalanced_mixture(500, 2, 256, k=3, imbalance=8.0, seed=4).astype(float)
        tight = CapacitatedKClustering(k=3, capacity=len(pts) / 3 * 1.02, seed=1).fit(pts)
        free = lloyd(pts, 3, seed=1)
        assert tight.cost > free.cost

    def test_weighted_fit(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 100, size=(80, 2))
        w = rng.uniform(0.5, 2.0, size=80)
        solver = CapacitatedKClustering(k=2, capacity=w.sum() / 2 * 1.2, seed=2)
        sol = solver.fit(pts, weights=w)
        assert sol.sizes.sum() == pytest.approx(w.sum())

    def test_infeasible_rejected(self):
        pts = np.zeros((10, 2))
        with pytest.raises(ValueError):
            CapacitatedKClustering(k=2, capacity=3).fit(pts)

    @pytest.mark.parametrize("capacity", [float("nan"), 0.0, -3.0])
    def test_bad_capacity_rejected_up_front(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            CapacitatedKClustering(k=2, capacity=capacity)

    def test_zero_restarts_rejected(self):
        with pytest.raises(ValueError, match="restarts"):
            CapacitatedKClustering(k=2, capacity=3, restarts=0)

    def test_matches_exact_on_tiny_instance(self):
        rng = np.random.default_rng(6)
        pts = rng.integers(0, 30, size=(9, 2)).astype(float)
        t = 5
        exact = exact_capacitated_kclustering(pts, 2, t, r=2.0)
        sol = CapacitatedKClustering(k=2, capacity=t, restarts=5, seed=3).fit(pts)
        assert sol.cost <= 2.0 * exact.cost + 1e-9


class TestPilot:
    def test_upper_bounds_planted_cost(self):
        pts, means, _ = gaussian_mixture(2000, 2, 512, k=3, spread=0.02,
                                         seed=15, return_truth=True)
        pilot = estimate_opt_cost(pts, 3, r=2.0, seed=1)
        planted = uncapacitated_cost(pts, means.astype(float), 2.0)
        # Pilot >= OPT (it is a feasible solution's cost) and within a small
        # factor of the planted cost on a well-separated mixture.
        assert pilot >= 0.8 * planted  # OPT can be slightly below planted
        assert pilot <= 3.0 * planted

    def test_empty_input_zero(self):
        assert estimate_opt_cost(np.empty((0, 2)), 3) == 0.0


class TestExactSolver:
    def test_exact_beats_any_medoid_choice(self):
        # The brute force optimizes over medoid centers; any other medoid
        # pair with its optimal capacitated assignment costs at least as much.
        import itertools

        from repro.assignment.capacitated import capacitated_assignment

        rng = np.random.default_rng(1)
        pts = np.unique(rng.integers(0, 10, size=(7, 2)), axis=0).astype(float)
        t = 4
        sol = exact_capacitated_kclustering(pts, 2, t, r=2.0)
        for combo in itertools.combinations(range(len(pts)), 2):
            res = capacitated_assignment(pts, pts[list(combo)], t, r=2.0,
                                         integral=False)
            assert sol.cost <= res.fractional_cost + 1e-9

    def test_exact_respects_capacity(self):
        rng = np.random.default_rng(2)
        pts = np.unique(rng.integers(0, 12, size=(8, 2)), axis=0).astype(float)
        t = int(np.ceil(len(pts) / 2))
        sol = exact_capacitated_kclustering(pts, 2, t, r=2.0)
        assert np.bincount(sol.labels, minlength=2).max() <= t
