"""End-to-end integration tests across subsystems.

These are the "does the whole product work" paths a user exercises:
generate → coreset → solve → extend → validate, in all three models
(offline / streaming / distributed), cross-checked against each other.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import CoresetParams, build_coreset_auto
from repro.assignment.capacitated import assignment_cost, capacitated_assignment, cluster_sizes
from repro.assignment.transfer import extend_assignment_to_points
from repro.data.synthetic import unbalanced_mixture
from repro.data.workloads import churn_stream
from repro.distributed import Network, distributed_coreset
from repro.grid.grids import HierarchicalGrids
from repro.metrics import max_load_ratio
from repro.metrics.costs import capacitated_cost
from repro.solvers import CapacitatedKClustering
from repro.streaming import StreamingCoreset, materialize
from repro.utils.rng import derive_seed


@pytest.fixture(scope="module")
def world():
    pts, means, _ = unbalanced_mixture(3000, 2, 256, k=3, imbalance=5.0,
                                       spread=0.03, seed=91, return_truth=True)
    pts = np.unique(pts, axis=0)
    params = CoresetParams.practical(k=3, d=2, delta=256, eps=0.25, eta=0.25)
    return pts, params, means.astype(float)


class TestOfflinePipeline:
    def test_full_pipeline_guarantees(self, world):
        pts, params, _ = world
        n, k = len(pts), 3
        seed = 5
        grids = HierarchicalGrids(256, 2, seed=derive_seed(seed, "grids"))
        cs = build_coreset_auto(pts, params, grids=grids, seed=seed)

        t = n / k * 1.15
        solver = CapacitatedKClustering(k=k, capacity=cs.total_weight / k * 1.15,
                                        r=2.0, restarts=2, seed=seed)
        sol = solver.fit(cs.points.astype(float), weights=cs.weights)
        labels = extend_assignment_to_points(pts, cs, params, grids,
                                             sol.centers, t, r=2.0)

        # (a) every point assigned; (b) capacity within 1+O(eta);
        # (c) cost within 1+O(eps) of the capacitated optimum for Z.
        assert labels.shape == (n,)
        sizes = cluster_sizes(labels, k)
        assert sizes.sum() == n
        assert sizes.max() <= (1 + 4 * params.eta) * t
        opt = capacitated_assignment(pts, sol.centers, t, r=2.0, integral=False)
        assert assignment_cost(pts, sol.centers, labels, 2.0) <= \
            (1 + 4 * params.eps) * opt.fractional_cost
        # (d) load profile is genuinely balanced.
        assert max_load_ratio(labels, k) <= 1.6


class TestThreeModelsAgree:
    def test_offline_streaming_distributed_quality(self, world):
        """All three construction models yield coresets satisfying the same
        sandwich on the same battery."""
        from repro.metrics.evaluation import evaluate_coreset_quality
        from repro.solvers.kmeanspp import kmeans_plusplus
        from repro.solvers.pilot import estimate_opt_cost

        pts, params, means = world
        n, k = len(pts), 3
        battery = [means[:k], kmeans_plusplus(pts.astype(float), k, seed=2)]
        caps = [n / k, math.inf]

        offline = build_coreset_auto(pts, params, seed=7)

        pilot = estimate_opt_cost(pts, k, r=2.0, seed=1)
        sc = StreamingCoreset(params, seed=7, backend="exact",
                              o_range=(pilot / 64, pilot / 4))
        from repro.data.workloads import insertion_stream

        sc.update_batch(insertion_stream(pts, seed=3))
        streamed = sc.finalize()

        net = Network.partition(pts, 4, seed=2)
        dist = distributed_coreset(net, params, seed=7)

        for tag, cs in (("offline", offline), ("streaming", streamed),
                        ("distributed", dist)):
            rep = evaluate_coreset_quality(pts, cs, battery, caps,
                                           r=2.0, eps=0.25, eta=0.25)
            assert rep.entries, tag
            assert rep.worst_ratio <= 1.25 * 1.1, (
                f"{tag}: worst ratio {rep.worst_ratio:.3f}"
            )


class TestStreamingEndToEnd:
    def test_churn_then_solve(self, world):
        pts, params, _ = world
        k = 3
        stream = churn_stream(pts, delete_fraction=0.5, seed=6)
        survivors = materialize(stream, d=2)
        sc = StreamingCoreset(params, seed=13, backend="exact")  # auto-pilot
        sc.update_batch(stream)
        cs = sc.finalize()
        t = len(survivors) / k * 1.2
        solver = CapacitatedKClustering(k=k, capacity=cs.total_weight / k * 1.2,
                                        r=2.0, restarts=2, seed=4)
        sol = solver.fit(cs.points.astype(float), weights=cs.weights)
        true_cost = capacitated_cost(survivors, sol.centers, t, r=2.0)
        est = capacitated_cost(cs.points, sol.centers, 1.25 * t, r=2.0,
                               weights=cs.weights)
        assert est <= 1.25 * 1.15 * true_cost
        assert true_cost < math.inf
