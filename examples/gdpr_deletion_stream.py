#!/usr/bin/env python
"""Dynamic stream with deletions: balanced clustering under data erasure.

Scenario: a service clusters user activity points into k capacity-bounded
shards (each shard's serving replica can hold at most t users).  Users come
and go; privacy regulation (GDPR-style erasure) means *deletions must be
first-class*: once a user is erased, the maintained summary must behave as
if their points never existed.

This is exactly Theorem 4.5's setting — the paper's single-pass dynamic
streaming coreset handles insertions *and* deletions, unlike the previous
three-pass insertion-only approach.  The demo:

1. streams in three regional user populations, then erases an entire region
   (the summary's heavy-cell structure must change, not just shrink);
2. finalizes the coreset and solves balanced k-means on it;
3. verifies against the ground-truth survivor set.

Run:  python examples/gdpr_deletion_stream.py
"""

from __future__ import annotations


from repro import CoresetParams
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import deletion_heavy_stream
from repro.metrics.costs import capacitated_cost
from repro.solvers import CapacitatedKClustering, estimate_opt_cost
from repro.streaming import StreamingCoreset, materialize


def main() -> None:
    k, d, delta = 2, 2, 1024
    # Three "regions" of user locations; region 0 will be erased.
    points, means, region = gaussian_mixture(
        9000, d, delta, k=3, spread=0.03, seed=5, return_truth=True
    )
    stream = deletion_heavy_stream(points, region, delete_clusters=[0], seed=2)
    print(
        f"stream: {stream.num_insertions()} insertions, "
        f"{stream.num_deletions()} deletions (region 0 erased)"
    )

    survivors = materialize(stream, d=d)
    print(f"ground-truth survivors: {len(survivors)} points")

    # One pass over the stream.  The o_range plays the role of the parallel
    # OPT estimator of Theorem 4.5 (here seeded from the survivor set).
    params = CoresetParams.practical(k=k, d=d, delta=delta, eps=0.25, eta=0.25)
    pilot = estimate_opt_cost(survivors, k, r=2.0, seed=1)
    summary = StreamingCoreset(
        params, seed=11, backend="exact", o_range=(pilot / 64, pilot / 4)
    )
    summary.update_batch(stream)
    coreset = summary.finalize()
    print(
        f"maintained coreset: {len(coreset)} weighted points "
        f"(total weight {coreset.total_weight:.0f} ~= survivors)"
    )

    # Every coreset point must be a *surviving* point: erased users are gone.
    survivor_set = set(map(tuple, survivors.tolist()))
    leaked = [p for p in coreset.points.tolist() if tuple(p) not in survivor_set]
    print(f"erased points leaked into the summary: {len(leaked)} (must be 0)")
    assert not leaked

    # Balanced clustering of the survivors into k shards of capacity t.
    t = len(survivors) / k * 1.15
    solver = CapacitatedKClustering(
        k=k, capacity=coreset.total_weight / k * 1.15, r=2.0, seed=3
    )
    sol = solver.fit(coreset.points.astype(float), weights=coreset.weights)
    true_cost = capacitated_cost(survivors, sol.centers, t, r=2.0)
    core_cost = capacitated_cost(
        coreset.points, sol.centers, 1.25 * t, r=2.0, weights=coreset.weights
    )
    print(f"shard centers found on the coreset; true capacitated cost "
          f"{true_cost:.4g}, coreset estimate {core_cost:.4g} "
          f"(ratio {core_cost / true_cost:.3f}, guarantee 1±0.25)")


if __name__ == "__main__":
    main()
