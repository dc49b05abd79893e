"""Tests for capacitated assignment: the exact solve (``auto``) and the
greedy against the HiGHS oracle (``_solve_transportation_lp``) and brute
force, input validation, and the paper's forest rounding."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment.capacitated import (
    _find_support_cycle,
    _greedy_assignment,
    _solve_transportation_lp,
    _solve_transportation_ssp,
    _support_is_forest,
    capacitated_assignment,
    cluster_sizes,
    forestify_support,
)
from repro.metrics.distances import pairwise_power_distances
from tests.scalar_oracle import forestify_support_dfs, greedy_assignment_numpy


def brute_force_cost(points, centers, t, r=2.0):
    """Optimal capacitated cost by enumerating all assignments (tiny n)."""
    pts = np.asarray(points, dtype=float)
    ctr = np.asarray(centers, dtype=float)
    n, k = len(pts), len(ctr)
    D = np.linalg.norm(pts[:, None, :] - ctr[None, :, :], axis=2) ** r
    best = math.inf
    for lab in itertools.product(range(k), repeat=n):
        sizes = np.bincount(lab, minlength=k)
        if (sizes <= t).all():
            best = min(best, D[np.arange(n), list(lab)].sum())
    return best


class TestSmallExact:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_matches_brute_force_unit_weights(self, seed, r):
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 20, size=(6, 2)).astype(float)
        ctr = rng.integers(0, 20, size=(2, 2)).astype(float)
        t = 3  # tight: forces balanced split
        res = capacitated_assignment(pts, ctr, t, r=r)
        ref = brute_force_cost(pts, ctr, t, r=r)
        assert res.cost == pytest.approx(ref, rel=1e-6)
        assert (res.sizes <= t + 1e-9).all()

    def test_capacity_binds_vs_unconstrained(self):
        # 5 points near center A, 1 near center B, capacity 3 each.
        pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5], [10, 10.0]])
        ctr = np.array([[0.5, 0.5], [10, 10.0]])
        res = capacitated_assignment(pts, ctr, 3, r=2.0)
        assert res.sizes.tolist() == [3.0, 3.0]
        # Unconstrained would put 5 points on A.
        res_inf = capacitated_assignment(pts, ctr, 6, r=2.0)
        assert res_inf.cost < res.cost

    def test_infeasible_returns_inf(self):
        pts = np.zeros((4, 2))
        ctr = np.array([[1.0, 1.0]])
        res = capacitated_assignment(pts, ctr, 3, r=2.0)
        assert not res.feasible
        assert math.isinf(res.cost)

    def test_methods_agree(self):
        rng = np.random.default_rng(7)
        pts = rng.integers(0, 50, size=(12, 3)).astype(float)
        ctr = rng.integers(0, 50, size=(3, 3)).astype(float)
        auto = capacitated_assignment(pts, ctr, 5, integral=False)
        D = pairwise_power_distances(pts, ctr, 2.0)
        lp_cost = float((D * _solve_transportation_lp(D, np.ones(12), np.full(3, 5.0))).sum())
        assert auto.fractional_cost == pytest.approx(lp_cost, rel=1e-9)

    def test_unknown_method_rejected(self):
        for method in ("simplex", "lp", "flow"):
            with pytest.raises(ValueError, match="unknown assignment method"):
                capacitated_assignment(np.zeros((2, 2)), np.zeros((1, 2)), 2, method=method)

    def test_empty_input(self):
        res = capacitated_assignment(np.empty((0, 2)), np.zeros((2, 2)), 1)
        assert res.cost == 0.0
        assert len(res.labels) == 0


class TestValidation:
    @pytest.mark.parametrize("t", [float("nan"), [2.0, float("nan")]])
    def test_nan_capacity_rejected(self, t):
        with pytest.raises(ValueError, match="capacities"):
            capacitated_assignment(np.zeros((3, 2)), np.ones((2, 2)), t)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_weight_rejected(self, bad):
        w = np.array([1.0, bad, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="weights"):
            capacitated_assignment(np.arange(10.0).reshape(5, 2), np.zeros((2, 2)), 5,
                                   weights=w)

    @pytest.mark.parametrize("w", [[1.0, 1.0], [1.0] * 4, [[1.0, 1.0, 1.0]]])
    def test_weight_length_mismatch_rejected(self, w):
        with pytest.raises(ValueError, match=r"weights must have shape \(3,\)"):
            capacitated_assignment(np.zeros((3, 2)), np.ones((2, 2)), 2,
                                   weights=np.array(w))

    @pytest.mark.parametrize("n", [0, 3])
    def test_zero_centers_rejected(self, n):
        with pytest.raises(ValueError, match="centers must hold at least one center"):
            capacitated_assignment(np.zeros((n, 2)), np.empty((0, 2)), 2)

    def test_zero_weight_and_infinite_capacity_accepted(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]])
        ctr = np.array([[0.0, 0.0], [9.0, 0.0]])
        res = capacitated_assignment(pts, ctr, 1, weights=np.array([1.0, 0.0, 1.0]))
        assert res.feasible and res.cost == pytest.approx(0.0)
        res = capacitated_assignment(pts, ctr, math.inf)
        assert res.labels.tolist() == [0, 0, 1] and res.cost == pytest.approx(1.0)


class TestWeighted:
    def test_weighted_splits_at_most_k_minus_1(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 100, size=(30, 2))
        w = rng.uniform(0.5, 3.0, size=30)
        ctr = rng.uniform(0, 100, size=(4, 2))
        t = w.sum() / 4 * 1.2
        res = capacitated_assignment(pts, ctr, t, weights=w, integral=True)
        assert res.feasible
        assert res.num_split <= 3  # k - 1

    def test_integral_violation_bounded_by_split_weights(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 100, size=(25, 2))
        w = rng.uniform(0.5, 2.0, size=25)
        ctr = rng.uniform(0, 100, size=(3, 2))
        t = w.sum() / 3 * 1.1
        res = capacitated_assignment(pts, ctr, t, weights=w, integral=True)
        # Rounding ≤ k−1 split points can exceed t by at most (k−1)·max w.
        assert res.sizes.max() <= t + (3 - 1) * w.max() + 1e-9

    def test_integral_rounding_never_increases_cost(self):
        # Split points are rounded to their nearest support center, trading
        # capacity slack for cost — so the integral cost is ≤ the fractional
        # optimum (the violation tests bound the slack side).
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 50, size=(20, 2))
        w = rng.uniform(0.5, 2.0, size=20)
        ctr = rng.uniform(0, 50, size=(3, 2))
        t = w.sum() / 3 * 1.3
        res = capacitated_assignment(pts, ctr, t, weights=w, integral=True)
        assert res.cost <= res.fractional_cost + 1e-6

    def test_sizes_match_labels(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 50, size=(15, 2))
        w = rng.uniform(0.5, 2.0, size=15)
        ctr = rng.uniform(0, 50, size=(3, 2))
        res = capacitated_assignment(pts, ctr, w.sum(), weights=w)
        assert np.allclose(res.sizes, cluster_sizes(res.labels, 3, w))


class TestGreedy:
    def test_greedy_feasible_when_loose(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 100, size=(40, 2))
        ctr = rng.uniform(0, 100, size=(4, 2))
        res = capacitated_assignment(pts, ctr, 15, method="greedy")
        assert res.feasible
        assert (res.sizes <= 15 + 1e-9).all()

    def test_greedy_within_factor_of_optimal(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 100, size=(30, 2))
        ctr = rng.uniform(0, 100, size=(3, 2))
        greedy = capacitated_assignment(pts, ctr, 12, method="greedy")
        D = pairwise_power_distances(pts, ctr, 2.0)
        opt = float((D * _solve_transportation_lp(D, np.ones(30), np.full(3, 12.0))).sum())
        assert greedy.cost >= opt - 1e-9
        assert greedy.cost <= 5 * opt + 1e-9


class TestForestify:
    def test_cycle_removed_preserving_marginals(self):
        # A 2x2 doubly-fractional solution (one cycle).
        X = np.array([[0.5, 0.5], [0.5, 0.5]])
        D = np.array([[1.0, 2.0], [2.0, 1.0]])
        out = forestify_support(X, D)
        assert np.allclose(out.sum(axis=1), X.sum(axis=1))
        assert np.allclose(out.sum(axis=0), X.sum(axis=0))
        # Forest support: at most n + k - 1 = 3 edges.
        assert (out > 1e-9).sum() <= 3
        # Cost must not increase.
        assert (out * D).sum() <= (X * D).sum() + 1e-9

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_random_fractional_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 6, 3
        X = rng.uniform(0, 1, size=(n, k))
        D = rng.uniform(0, 10, size=(n, k))
        out = forestify_support(X, D)
        assert np.allclose(out.sum(axis=1), X.sum(axis=1), atol=1e-8)
        assert np.allclose(out.sum(axis=0), X.sum(axis=0), atol=1e-8)
        assert (out >= -1e-12).all()
        # Acyclic support: edges <= touched nodes - components  =>  <= n+k-1.
        assert (out > 1e-9).sum() <= n + k - 1
        assert (out * D).sum() <= (X * D).sum() + 1e-6


def _instance(seed: int):
    """Random weighted points, centers and a capacity that binds."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 120)), int(rng.integers(1, 7))
    D = pairwise_power_distances(rng.normal(size=(n, 2)),
                                 rng.normal(size=(k, 2)), 2.0)
    w = rng.uniform(0.5, 3.0, size=n)
    caps = np.full(k, w.sum() / k * float(rng.choice([0.9, 1.0, 1.05, 1.5])))
    return D, w, caps


class TestSolverLoopsMatchOracles:
    """The float-list greedy and the forest check against today's numpy-
    scalar greedy and always-DFS cycle cancelling (``tests/scalar_oracle``)."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_greedy_labels_identical(self, seed):
        D, w, caps = _instance(seed)
        np.testing.assert_array_equal(_greedy_assignment(D, w, caps),
                                      greedy_assignment_numpy(D, w, caps))

    def test_greedy_ties_pick_the_first_center(self):
        D = np.zeros((4, 3))
        w = np.ones(4)
        labels = _greedy_assignment(D, w, np.zeros(3))  # nothing fits
        np.testing.assert_array_equal(labels,
                                      greedy_assignment_numpy(D, w, np.zeros(3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_highs_optima_are_forests(self, seed):
        D, w, caps = _instance(seed)
        X = _solve_transportation_lp(D, w, np.maximum(caps, w.sum() / len(caps)))
        assert X is not None
        assert _support_is_forest(X, 1e-9)
        np.testing.assert_array_equal(forestify_support(X, D),
                                      forestify_support_dfs(X, D))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_forest_check_agrees_with_cycle_search(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        X = (rng.random((n, k)) < rng.uniform(0.1, 0.8)) * rng.uniform(0.1, 1, (n, k))
        assert _support_is_forest(X, 1e-9) == (_find_support_cycle(X, 1e-9) is None)
        D = rng.uniform(0, 10, size=(n, k))
        np.testing.assert_array_equal(forestify_support(X, D),
                                      forestify_support_dfs(X, D))


@st.composite
def transport_instances(draw):
    """Points, centers, weights and capacities covering the solver's edge
    cases: float and unit weights, duplicate points, ties (a small integer
    grid and a repeated center), slack exactly 1, k = 1, a center no point
    prefers, and vector capacities with a zero-capacity center."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(1, 60)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        pts = rng.integers(0, 6, size=(n, 2)).astype(float)
        ctr = rng.integers(0, 6, size=(k, 2)).astype(float)
    else:
        pts, ctr = rng.normal(size=(n, 2)) * 10, rng.normal(size=(k, 2)) * 10
    if draw(st.booleans()):
        pts = np.concatenate([pts, pts[: int(rng.integers(1, n + 1))]])
    if k > 1 and draw(st.booleans()):
        ctr[1] = ctr[0]
    if k > 2 and draw(st.booleans()):
        ctr[-1] = 1e3
    w = rng.uniform(0.1, 5.0, size=len(pts)) if draw(st.booleans()) else np.ones(len(pts))
    slack = draw(st.sampled_from([1.0, 1.05, 1.5]))
    share = np.ones(k)
    if draw(st.booleans()):
        share = rng.uniform(0.0, 1.0, size=k)
        if k > 1 and draw(st.booleans()):
            share[0] = 0.0
    caps = share / share.sum() * w.sum() * slack
    return pts, ctr, w, caps, draw(st.sampled_from([1.0, 2.0]))


def _assert_feasible_flow(X, w, caps):
    assert (X >= 0).all()
    np.testing.assert_allclose(X.sum(axis=1), w, rtol=1e-9)
    assert (X.sum(axis=0) <= caps + 1e-9 * w.sum()).all()


class TestExactSolveMatchesHighs:
    """The successive-shortest-path solve (``auto``) against HiGHS."""

    @given(transport_instances())
    @settings(max_examples=150, deadline=None)
    def test_optimal_feasible_and_forest_rounded(self, instance):
        pts, ctr, w, caps, r = instance
        D = pairwise_power_distances(pts, ctr, r)
        X, _ = _solve_transportation_ssp(D, w, caps)
        _assert_feasible_flow(X, w, caps)
        auto = capacitated_assignment(pts, ctr, caps, r=r, weights=w, method="auto")
        lp_cost = float((D * _solve_transportation_lp(D, w, caps)).sum())
        assert auto.fractional_cost == pytest.approx(lp_cost, rel=1e-9, abs=1e-300)
        assert auto.num_split <= len(ctr) - 1

    def test_ulp_ties_at_large_coordinates_terminate(self):
        # Costs of points ~1e6 away (~1e12) that differ between centers only
        # in their last one or two ulps, at slack exactly 1.
        rng = np.random.default_rng(11)
        n, k = 300, 4
        base = pairwise_power_distances(rng.uniform(1e6, 2e6, size=(n, 2)),
                                        np.zeros((1, 2)), 2.0)
        D = base + rng.integers(-2, 3, size=(n, k)) * np.spacing(base)
        w, caps = np.ones(n), np.full(k, n / k)
        X, pushes = _solve_transportation_ssp(D, w, caps)
        _assert_feasible_flow(X, w, caps)
        assert 0 < pushes <= n
        Y = _solve_transportation_lp(D, w, caps)
        assert (D * X).sum() == pytest.approx((D * Y).sum(), rel=1e-9)

    @pytest.mark.parametrize("seed", range(50))
    def test_round_off_cycles_are_cancelled(self, seed):
        # Integer-grid ties blurred by a few ulps: in 5 of these 50
        # instances (seeds 20, 22, 25, 39 and 42) round-off in the
        # Bellman–Ford sums closes a negative cycle, which the solve must
        # cancel rather than loop on or give up.
        rng = np.random.default_rng(seed)
        n, k = 30, 7
        D = pairwise_power_distances(rng.integers(0, 3, size=(n, 2)),
                                     rng.integers(-2, 5, size=(k, 2)), 2.0)
        D = D + rng.integers(-2, 3, size=D.shape) * np.spacing(np.maximum(D, 1.0))
        w, caps = np.ones(n), np.full(k, n / k * 1.01)
        X, _ = _solve_transportation_ssp(D, w, caps)
        _assert_feasible_flow(X, w, caps)
        Y = _solve_transportation_lp(D, w, caps)
        assert (D * X).sum() == pytest.approx((D * Y).sum(), rel=1e-9)

    def test_no_push_when_nearest_fits(self):
        D = np.array([[1.0, 2.0], [3.0, 1.0]])
        X, pushes = _solve_transportation_ssp(D, np.ones(2), np.ones(2))
        assert pushes == 0
        np.testing.assert_array_equal(X, [[1.0, 0.0], [0.0, 1.0]])


def milp_optimum(D, w, t) -> float:
    """Exact integral optimum of the capacitated assignment: binaries
    x_ij, Σ_j x_ij = 1, Σ_i w_i x_ij ≤ t, minimizing Σ w_i D_ij x_ij
    (HiGHS branch and bound through ``scipy.optimize.milp``); ``inf`` when
    no integral assignment fits."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n, k = D.shape
    one_center = np.kron(np.eye(n), np.ones(k))      # row i: x_i1 + … + x_ik
    loads = np.kron(w[None, :], np.eye(k))           # row j: Σ_i w_i x_ij
    res = milp((w[:, None] * D).ravel(), integrality=np.ones(n * k),
               bounds=Bounds(0, 1),
               constraints=[LinearConstraint(one_center, 1, 1),
                            LinearConstraint(loads, -np.inf, t)])
    return res.fun if res.status == 0 else math.inf


class TestAgainstMilp:
    """The forest rounding against an exact integral optimum: the LP value
    is a lower bound on it, rounding split points to their nearest support
    center only lowers the cost, at most k−1 points are split, and each
    center's load overshoots t by at most (k−1)·max w (Section 3.3)."""

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_rounding_bounds_on_small_instances(self, r):
        rng = np.random.default_rng(int(r))
        feasible = 0
        for _ in range(60):
            n, k = int(rng.integers(2, 13)), int(rng.integers(1, 4))
            pts = rng.integers(0, 20, size=(n, 2)).astype(float)
            ctr = rng.integers(0, 20, size=(k, 2)).astype(float)
            w = rng.uniform(0.5, 3.0, size=n)
            t = rng.uniform(1.0, 1.5) * w.sum() / k
            res = capacitated_assignment(pts, ctr, t, r=r, weights=w)
            opt = milp_optimum(pairwise_power_distances(pts, ctr, r), w, t)
            feasible += math.isfinite(opt)
            assert res.fractional_cost <= opt * (1 + 1e-9) + 1e-9
            assert res.cost <= res.fractional_cost * (1 + 1e-9) + 1e-9
            assert res.num_split <= k - 1
            assert (res.sizes <= t + (k - 1) * w.max() + 1e-9).all()
        assert feasible >= 45  # the MILP bound was not vacuous
