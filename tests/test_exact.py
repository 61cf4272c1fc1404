import random

import pytest

from treesearch import (
    InputTree,
    NodePiece,
    Query,
    ResourceLimitError,
    cost,
    enumerate_decision_trees,
    opt_cost,
    opt_cost_min_height,
    opt_cost_restricted_height,
    optimal_first_queries,
    tree_height,
    validate,
)
from treesearch.exact import _Oracle
from treesearch.gen import all_tree_shapes, random_tree


def test_path_unit(path3):
    c, strategy = opt_cost(path3)
    assert c == 5
    assert validate(strategy, path3).ok
    assert cost(strategy, path3) == c


def test_star_fixture(star4):
    assert opt_cost(star4)[0] == 10


def test_single_node():
    assert opt_cost(InputTree([-1], [42]))[0] == 0


def test_size_guard():
    t = InputTree([-1] + [0] * 24, [1] * 25)
    with pytest.raises(ResourceLimitError):
        opt_cost(t)


def test_matches_full_enumeration_small():
    # Double brute force: the memoized optimum equals the minimum over every
    # explicitly enumerated decision tree.
    rng = random.Random(2)
    for n in range(1, 7):
        for parents in all_tree_shapes(n):
            w = [rng.randint(0, 6) for _ in range(n)]
            t = InputTree(parents, w)
            best, _ = opt_cost(t)
            enumerated = min(cost(d, t, check=False) for d in enumerate_decision_trees(t))
            assert best == enumerated


def test_derived_answers_match_enumeration():
    # The first-query set and the minimal height, both read from the memo,
    # equal what the explicit list of all optimal decision trees gives.
    rng = random.Random(7)
    for n in range(1, 7):
        for parents in all_tree_shapes(n):
            t = InputTree(parents, [rng.randint(0, 2) for _ in range(n)])
            scored = [(cost(d, t, check=False), d) for d in enumerate_decision_trees(t)]
            best = min(c for c, _ in scored)
            optimal = [d for c, d in scored if c == best]
            firsts = frozenset(d.query for d in optimal if isinstance(d, Query))
            assert optimal_first_queries(t) == firsts
            assert opt_cost_min_height(t) == (best, min(tree_height(d) for d in optimal))


def test_restricted_height():
    t = InputTree([-1, 0, 1], [1, 1, 1])
    assert opt_cost_restricted_height(t, 2) == 5
    assert opt_cost_restricted_height(t, 3) == opt_cost(t)[0]


def test_restricted_height_infeasible():
    t = InputTree([-1, 0, 0, 0], [1, 1, 1, 1])
    assert opt_cost_restricted_height(t, 1) is None


def test_budget_of_n_never_binds():
    rng = random.Random(3)
    for _ in range(15):
        t = random_tree(rng.randint(1, 10), rng.randrange(10**6), (0, 9))
        assert opt_cost_restricted_height(t, t.n) == opt_cost(t)[0]


def test_min_height_is_achievable_and_optimal():
    rng = random.Random(4)
    for _ in range(15):
        t = random_tree(rng.randint(1, 10), rng.randrange(10**6), (1, 9))
        c, h = opt_cost_min_height(t)
        assert c == opt_cost(t)[0]
        assert opt_cost_restricted_height(t, h) == c
        assert h == 0 or opt_cost_restricted_height(t, h - 1) != c


def test_monotone_under_piece_inclusion():
    # OPT(S') <= OPT(S) for nested pieces.
    rng = random.Random(5)
    for _ in range(15):
        t = random_tree(rng.randint(2, 12), rng.randrange(10**6), (0, 9))
        oracle = _Oracle(t)
        top = rng.randrange(t.n)
        big = set(t.subtree_nodes(top))
        small = {top}
        for v in sorted(big - {top}):
            if rng.random() < 0.5 and t.parent[v] in small:
                small.add(v)
        big_piece = NodePiece.of(t, big)
        small_piece = NodePiece.of(t, small)
        assert oracle.solve(small_piece.mask)[0] <= oracle.solve(big_piece.mask)[0]


def test_scaling_invariance():
    rng = random.Random(6)
    for _ in range(10):
        t = random_tree(rng.randint(2, 10), rng.randrange(10**6), (1, 9))
        scaled = InputTree(t.parent, [17 * w for w in t.weight], t.children)
        assert opt_cost(scaled)[0] == 17 * opt_cost(t)[0]
        assert optimal_first_queries(scaled) == optimal_first_queries(t)


def test_deterministic_tie_breaking(path3):
    # Both queries are optimal on the unit path; the smaller id is returned.
    assert optimal_first_queries(path3) == frozenset({1, 2})
    _, strategy = opt_cost(path3)
    assert strategy.query == 1
