"""Minimum expected-cost search strategies in node-weighted rooted trees.

A strategy locates a hidden marked node by edge queries ("is it inside the
subtree below this edge?"); its cost is the weighted expected number of
queries. The package provides the exact oracle, the greedy 2-approximation,
the bounded-height exact DP and its FPTAS wrapper, polynomial solvers for
diameter <= 3, and the X3C hardness-instance generator with its checkable
cost identities.
"""

from .bounded_dp import (
    BLOCKED,
    UNASSIGNED,
    ESTNode,
    PBSolution,
    deep_cost_bound,
    est_compatible,
    est_cost,
    est_height,
    est_to_search_tree,
    height_bound,
    optimal_bounded,
    search_tree_to_est,
    solve_pb,
    validate_est,
)
from .diameter import solve_diam3, solve_star, tree_diameter
from .errors import (
    InfeasibleError,
    InvalidDecisionTreeError,
    InvalidInstanceError,
    ResourceLimitError,
    TreeSearchError,
)
from .exact import (
    enumerate_decision_trees,
    opt_cost,
    opt_cost_min_height,
    opt_cost_restricted_height,
    optimal_first_queries,
)
from .fptas import fptas, scale_weights
from .greedy import greedy
from .io import (
    format_decision_tree,
    format_instance,
    format_x3c,
    parse_decision_tree,
    parse_instance,
    parse_x3c,
)
from .model import (
    DecisionNode,
    InputTree,
    Leaf,
    NodePiece,
    Query,
    cost,
    leaf_depths,
    left_delete,
    query_depths,
    restrict,
    right_delete,
    tree_height,
    tree_size,
    uninformative_ancestor_counts,
    validate,
)
from .reduction import (
    ReductionOutput,
    X3CInstance,
    build,
    build_T,
    build_Tb,
    cost_gap,
    cover_threshold,
    decide_cover,
    gamma,
    pi_names,
    pi_sequence,
    realization,
    x3c_brute,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
