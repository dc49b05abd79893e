"""Capacitated assignment machinery (Section 3.3 of the paper).

Given a *fixed* set of k centers, assigning points under capacity constraints
is a transportation problem.  This package provides:

- :mod:`repro.assignment.capacitated` — fractional/integral capacitated
  assignment of (weighted) point sets to centers (an exact successive-
  shortest-path min-cost flow over the k centers, or a fast greedy inside
  iterative solvers; HiGHS is the tests' oracle), including the paper's
  cycle-canceling argument that at most k−1 weighted points end up split;
- :mod:`repro.assignment.maxflow` — a from-scratch Dinic max-flow, the
  feasibility check of capacitated k-center;
- :mod:`repro.assignment.transfer` — Section 3.3's construction of an
  assignment for the *original* point set from an assignment of the coreset,
  via half-space representations and transferred assignments.
"""

from repro.assignment.capacitated import (
    capacitated_assignment,
    AssignmentResult,
    assignment_cost,
    cluster_sizes,
)
from repro.assignment.transfer import extend_assignment_to_points

__all__ = [
    "capacitated_assignment",
    "AssignmentResult",
    "assignment_cost",
    "cluster_sizes",
    "extend_assignment_to_points",
]
