"""Exact graph bandwidth solver.

Two-phase search (segment assignments over a spanning tree, then a
memoized depth-first state search per assignment) with a brute-force
oracle for cross-validation and a numeric analyzer for the branching
recurrences that bound the total state count.
"""

from .analysis import (
    McBound,
    McWeights,
    constraint_residuals,
    kappa_for,
    optimize_weights,
    total_state_bound,
)
from .assignments import enumerate_assignments, max_assignments
from .geometry import ColorOrder, color_of, color_order, segment_of
from .graph import (
    Graph,
    GraphError,
    RootedTree,
    connected_components,
    generate,
    ordering_bandwidth,
    parse_graph,
    spanning_tree,
    write_graph,
)
from .search import SearchStats, dfs_decide, per_run_state_ceiling
from .solve import (
    Budget,
    DecideResult,
    SolveResult,
    decide,
    lower_bound,
    minimize_bandwidth,
    oracle_bandwidth,
)

__all__ = [
    "Budget",
    "ColorOrder",
    "DecideResult",
    "Graph",
    "GraphError",
    "McBound",
    "McWeights",
    "RootedTree",
    "SearchStats",
    "SolveResult",
    "color_of",
    "color_order",
    "connected_components",
    "constraint_residuals",
    "decide",
    "dfs_decide",
    "enumerate_assignments",
    "generate",
    "kappa_for",
    "lower_bound",
    "max_assignments",
    "minimize_bandwidth",
    "optimize_weights",
    "oracle_bandwidth",
    "ordering_bandwidth",
    "parse_graph",
    "per_run_state_ceiling",
    "segment_of",
    "spanning_tree",
    "total_state_bound",
    "write_graph",
]
