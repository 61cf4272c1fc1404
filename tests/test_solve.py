"""The library's one dispatcher: each named solver as a direct call would
run it, and its errors."""

import re
from fractions import Fraction

import pytest

import treesearch
from treesearch import InputTree, cost, fptas, greedy, optimal_bounded, opt_cost, solve_diam3
from treesearch.gen import random_tree, star_tree

TREES = {
    "path3": "3 0\n0 -1 1\n1 0 1\n2 1 1\n",
    "star4": "4 0\n0 -1 0\n1 0 3\n2 0 2\n3 0 1\n",
    "path5": "5 0\n0 -1 3\n1 0 1\n2 1 4\n3 2 1\n4 3 5\n",
    "random9": treesearch.format_instance(random_tree(9, 3, (0, 7))),
    "star8": treesearch.format_instance(star_tree(8, list(range(8)))),
    "double-star7": treesearch.format_instance(InputTree([-1, 0, 0, 0, 1, 1, 1], [2, 0, 5, 1, 3, 3, 4])),
}
EPS = Fraction(1, 2)


def _direct(alg, tree, **options):
    if alg == "exact":
        return opt_cost(tree, **options)
    if alg == "greedy":
        strategy = greedy(tree)
        return cost(strategy, tree), strategy
    if alg == "dp":
        return optimal_bounded(tree, **options)
    if alg == "fptas":
        strategy, c = fptas(tree, EPS)
        return c, strategy
    return solve_diam3(tree)


@pytest.mark.parametrize("name", sorted(TREES))
@pytest.mark.parametrize("alg, options, direct_options", [
    ("exact", {}, {}),
    ("exact", {"limit": 9}, {"limit": 9}),
    ("greedy", {}, {}),
    ("dp", {}, {}),
    ("dp", {"height": 4}, {"budget": 4}),
    ("fptas", {"eps": EPS}, {}),
    ("diam3", {}, {}),
], ids=["exact", "exact-limit", "greedy", "dp", "dp-height", "fptas", "diam3"])
def test_named_alg_is_its_solver(name, alg, options, direct_options):
    tree = treesearch.parse_instance(TREES[name])
    try:
        expected = _direct(alg, tree, **direct_options)
    except treesearch.TreeSearchError as e:  # the dispatcher raises what the solver raises
        with pytest.raises(type(e), match=re.escape(str(e))):
            treesearch.solve(tree, alg, **options)
        return
    assert treesearch.solve(tree, alg, **options) == (*expected, alg)


@pytest.mark.parametrize("alg, message", [
    ("huffman", "unknown algorithm 'huffman'"),
    ("fptas", "fptas requires eps"),
], ids=["unknown-alg", "fptas-without-eps"])
def test_value_errors(alg, message):
    tree = treesearch.parse_instance(TREES["path3"])
    with pytest.raises(ValueError, match=message):
        treesearch.solve(tree, alg)
