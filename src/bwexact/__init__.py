"""Exact graph bandwidth solver.

Two-phase search (segment assignments over a spanning tree, then a
memoized depth-first state search per assignment) with a brute-force
oracle for cross-validation. The numeric analyzer for the branching
recurrences that bound the total state count is `bwexact.analysis`;
the solver does not use it, so it is not imported here.
"""

from .graph import Graph, GraphError, generate, ordering_bandwidth, parse_graph, write_graph
from .solve import (
    Budget,
    DecideResult,
    SolveResult,
    decide,
    minimize_bandwidth,
    oracle_bandwidth,
)

__all__ = [
    "Budget",
    "DecideResult",
    "Graph",
    "GraphError",
    "SolveResult",
    "decide",
    "generate",
    "minimize_bandwidth",
    "oracle_bandwidth",
    "ordering_bandwidth",
    "parse_graph",
    "write_graph",
]
