"""Capacitated assignment machinery (Section 3.3 of the paper).

Given a *fixed* set of k centers, assigning points under capacity constraints
is a transportation problem.  This package provides:

- :mod:`repro.assignment.mincostflow` — a from-scratch successive-shortest-
  path min-cost-flow solver (reference implementation, exact on integers);
- :mod:`repro.assignment.capacitated` — fractional/integral capacitated
  assignment of (weighted) point sets to centers (an exact successive-
  shortest-path solve over the k centers by default, HiGHS and the
  from-scratch flow on request), including the paper's cycle-canceling
  argument that at most k−1 weighted points end up split;
- :mod:`repro.assignment.transfer` — Section 3.3's construction of an
  assignment for the *original* point set from an assignment of the coreset,
  via half-space representations and transferred assignments.
"""

from repro.assignment.mincostflow import MinCostFlow
from repro.assignment.capacitated import (
    capacitated_assignment,
    AssignmentResult,
    assignment_cost,
    cluster_sizes,
)
from repro.assignment.transfer import extend_assignment_to_points

__all__ = [
    "MinCostFlow",
    "capacitated_assignment",
    "AssignmentResult",
    "assignment_cost",
    "cluster_sizes",
    "extend_assignment_to_points",
]
