"""Clustering solvers — the (α, β)-approximation black boxes.

The coreset theorems are black-box in the solver: *any* (α, β)-approximation
for weighted capacitated k-clustering run on the coreset yields a
((1+ε)α, (1+η)β)-approximation on the input (Fact 2.3).  The paper cites
[DL16] (capacitated k-median LP rounding) and [XHX+19] (FPT capacitated
k-means), neither of which has usable open code; the practical stand-in
implemented here is:

- :func:`kmeans_plusplus` seeding (weighted) and weighted Lloyd refinement
  for the *uncapacitated* problem (also the pilot OPT estimator);
- :class:`CapacitatedKClustering`: k-means++ seeding + alternating
  (capacitated assignment ↔ center update) descent under capacities;
- :func:`capacitated_kcenter`: Gonzalez seeding + bottleneck assignment
  (the r = ∞ member of the problem class);
- :mod:`repro.solvers.exact`: brute force for tiny instances, the ground
  truth for the test suite.
"""

from repro.solvers.kmeanspp import kmeans_plusplus
from repro.solvers.lloyd import lloyd, KMeansResult
from repro.solvers.capacitated_lloyd import CapacitatedKClustering, CapacitatedSolution
from repro.solvers.pilot import estimate_opt_cost
from repro.solvers.exact import exact_capacitated_kclustering
from repro.solvers.kcenter import (
    capacitated_kcenter,
    capacitated_kcenter_assignment,
    gonzalez_seeding,
)
from repro.solvers.lp_rounding import lp_rounding_capacitated

__all__ = [
    "kmeans_plusplus",
    "lloyd",
    "KMeansResult",
    "CapacitatedKClustering",
    "CapacitatedSolution",
    "estimate_opt_cost",
    "exact_capacitated_kclustering",
    "capacitated_kcenter",
    "capacitated_kcenter_assignment",
    "gonzalez_seeding",
    "lp_rounding_capacitated",
]
