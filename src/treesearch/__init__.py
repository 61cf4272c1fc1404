"""Minimum expected-cost search strategies in node-weighted rooted trees.

A strategy locates a hidden marked node by edge queries ("is it inside the
subtree below this edge?"); its cost is the weighted expected number of
queries. The package provides the exact oracle, the greedy 2-approximation,
the bounded-height exact DP and its FPTAS wrapper, polynomial solvers for
diameter <= 3, and the X3C hardness-instance generator with its checkable
cost identities.

Importing the package runs only ``errors``, ``model`` and ``io``. The
solver modules ``bounded_dp``, ``bounds``, ``exact``, ``diameter``,
``reduction``, ``greedy`` and ``fptas`` sit in ``sys.modules`` from the
start, but each runs only when one of its attributes is first read, so a
CLI subcommand runs only the modules it uses. Their public names are
re-exported on first access. The first five are package attributes; the
package's ``greedy`` and ``fptas`` are the functions, so those two modules
are bound under private names.
"""

import importlib.util as _util
import os as _os
import sys as _sys


def _lazy(name: str):
    """Register the submodule ``name`` so that it runs on its first attribute read. Its spec is
    made from its file, which costs about half of what a search of the package path does."""
    spec = _util.spec_from_file_location(f"{__name__}.{name}", _os.path.join(__path__[0], f"{name}.py"))
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Bound here, before any submodule runs: ``from . import exact`` then finds
# the attribute instead of importing the module, which would run it.
bounded_dp = _lazy("bounded_dp")
bounds = _lazy("bounds")
diameter = _lazy("diameter")
exact = _lazy("exact")
reduction = _lazy("reduction")
_fptas = _lazy("fptas")
_greedy = _lazy("greedy")

from .errors import (
    DEFAULT_LIMIT as _DEFAULT_LIMIT,
    InfeasibleError,
    InvalidDecisionTreeError,
    InvalidInstanceError,
    ResourceLimitError,
    TreeSearchError,
)
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
    query_depths,
    restrict,
    tree_height,
    tree_size,
    uninformative_ancestor_counts,
    validate,
)

_LAZY_EXPORTS = {
    "bounded_dp": (
        "BLOCKED",
        "UNASSIGNED",
        "ESTNode",
        "PBSolution",
        "deep_cost_bound",
        "est_cost",
        "est_to_search_tree",
        "height_bound",
        "optimal_bounded",
        "search_tree_to_est",
        "solve_pb",
        "validate_est",
    ),
    "diameter": ("solve_diam3", "solve_star", "tree_diameter"),
    "exact": ("opt_cost", "opt_cost_min_height"),
    "fptas": ("fptas", "scale_weights"),
    "greedy": ("greedy",),
    "reduction": (
        "ReductionOutput",
        "X3CInstance",
        "build",
        "build_T",
        "build_Tb",
        "cost_gap",
        "cover_threshold",
        "decide_cover",
        "gamma",
        "pi_names",
        "pi_sequence",
        "realization",
        "realization_cost",
        "x3c_brute",
    ),
}


def solve(tree, alg="auto", *, eps=None, height=None, limit=_DEFAULT_LIMIT):
    """``(cost, strategy, alg)`` from the solver ``alg`` names: ``exact``
    (up to ``limit`` nodes), ``greedy``, ``dp`` (EST height budget
    ``height``, else its own), ``fptas`` (needs ``eps``) or ``diam3``.
    ``auto`` splits where the paper does: ``diam3`` up to diameter 3, else
    ``exact`` up to ``limit`` nodes, else ``greedy`` (never the DP: past
    ``limit`` its budget is over its height cap, zero-weight paths aside).
    The returned ``alg`` names the solver that ran."""
    if alg == "auto":
        if diameter.tree_diameter(tree) <= 3:
            alg = "diam3"
        else:
            alg = "exact" if tree.n <= limit else "greedy"
    if alg == "exact":
        return (*exact.opt_cost(tree, limit=limit), alg)
    if alg == "greedy":
        return (*_greedy.greedy_cost(tree), alg)
    if alg == "dp":
        return (*bounded_dp.optimal_bounded(tree, budget=height), alg)
    if alg == "diam3":
        return (*diameter.solve_diam3(tree), alg)
    if alg != "fptas":
        raise ValueError(f"unknown algorithm {alg!r}")
    if eps is None:
        raise ValueError("fptas requires eps")
    strategy, c = _fptas.fptas(tree, eps)
    return c, strategy, alg


_HOME = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_HOME))
__version__ = "0.1.0"


def __getattr__(name: str):
    """A lazy module's public name, read from that module (which runs it)."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_sys.modules[f"{__name__}.{module}"], name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
