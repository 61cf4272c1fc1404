"""The package's public names and the module that owns each."""

import importlib
import sys
import types

import treesearch

OWN = ("solve",)  # defined in the package itself
SUBMODULES = ("bounded_dp", "bounds", "diameter", "errors", "exact", "io", "model", "reduction")
EXPORTS = {
    "bounded_dp": (
        "BLOCKED", "ESTNode", "PBSolution", "UNASSIGNED", "deep_cost_bound", "est_cost",
        "est_to_search_tree", "height_bound", "optimal_bounded", "search_tree_to_est", "solve_pb",
        "validate_est",
    ),
    "diameter": ("solve_diam3", "solve_star", "tree_diameter"),
    "errors": (
        "InfeasibleError", "InvalidDecisionTreeError", "InvalidInstanceError", "ResourceLimitError",
        "TreeSearchError",
    ),
    "exact": ("opt_cost", "opt_cost_min_height"),
    "fptas": ("fptas", "scale_weights"),
    "greedy": ("greedy",),
    "io": (
        "format_decision_tree", "format_instance", "format_x3c", "parse_decision_tree",
        "parse_instance", "parse_x3c",
    ),
    "model": (
        "DecisionNode", "InputTree", "Leaf", "NodePiece", "Query", "cost", "leaf_depths",
        "query_depths", "restrict", "tree_height", "tree_size", "uninformative_ancestor_counts",
        "validate",
    ),
    "reduction": (
        "ReductionOutput", "X3CInstance", "build", "build_T", "build_Tb", "cost_gap",
        "cover_threshold", "decide_cover", "gamma", "pi_names", "pi_sequence", "realization",
        "realization_cost", "x3c_brute",
    ),
}


def test_public_names_pinned():
    names = [name for names in EXPORTS.values() for name in names] + list(SUBMODULES) + list(OWN)
    assert len(names) == 67
    assert sorted(treesearch.__all__) == sorted(names)
    assert set(treesearch.__all__) <= set(dir(treesearch))
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"treesearch.{module}")
        for name in names:
            assert getattr(treesearch, name) is getattr(home, name), name
    for name in SUBMODULES:
        assert getattr(treesearch, name) is sys.modules[f"treesearch.{name}"], name
    for name in OWN:
        assert getattr(treesearch, name).__module__ == "treesearch", name


def test_greedy_and_fptas_are_the_functions():
    from treesearch import fptas, greedy

    assert isinstance(greedy, types.FunctionType) and greedy.__module__ == "treesearch.greedy"
    assert isinstance(fptas, types.FunctionType) and fptas.__module__ == "treesearch.fptas"

