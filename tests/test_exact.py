import random
import sys

import pytest

from treesearch import (
    InputTree,
    Leaf,
    NodePiece,
    Query,
    ResourceLimitError,
    cost,
    format_decision_tree,
    opt_cost,
    opt_cost_min_height,
    tree_height,
    validate,
)
from treesearch import bounded_dp
from treesearch.exact import _Oracle, _splits, _subtree_masks
from treesearch.gen import all_tree_shapes, one_heavy_weights, random_tree, unit_weights

from conftest import enumerate_decision_trees, subtree_nodes


def _id_mask(nodes):
    return sum(1 << v for v in nodes)


def optimal_first_queries(tree):
    """All first queries achieving the optimum: the oracle's argmin set at
    the root piece."""
    return frozenset(_Oracle(tree).argmins((1 << tree.n) - 1))


def _piece_weight(tree, piece):
    """w(piece) for an n-bit piece keyed by node id."""
    return sum(w for v, w in enumerate(tree.weight) if piece >> v & 1)


def _reference_oracle(tree):
    """The exhaustive oracle: every split of every reachable piece is
    expanded, and ties break toward the smallest query id. Returns (cost,
    strategy text, optimal first queries, least height among optimal
    strategies); the branch-and-bound oracle must give the same four."""
    sub = _subtree_masks(tree)
    memo = {}
    heights = {}

    def solve(piece):
        hit = memo.get(piece)
        if hit is not None:
            return hit
        if piece & (piece - 1) == 0:
            memo[piece] = (0, -1)
            return memo[piece]
        best = None
        best_x = -1
        for x, inside in _splits(sub, piece):
            c = solve(inside)[0] + solve(piece ^ inside)[0]
            if best is None or c < best:
                best, best_x = c, x
        memo[piece] = (_piece_weight(tree, piece) + best, best_x)
        return memo[piece]

    def argmins(piece):
        below = solve(piece)[0] - _piece_weight(tree, piece)
        return [x for x, inside in _splits(sub, piece)
                if solve(inside)[0] + solve(piece ^ inside)[0] == below]

    def min_height(piece):
        h = heights.get(piece)
        if h is None:
            h = 0 if piece & (piece - 1) == 0 else 1 + min(
                max(min_height(piece & sub[x]), min_height(piece & ~sub[x]))
                for x in argmins(piece))
            heights[piece] = h
        return h

    def build(piece):
        _, x = memo[piece]
        if x < 0:
            return Leaf(piece.bit_length() - 1)
        inside = piece & sub[x]
        return Query(x, build(piece ^ inside), build(inside))

    full = (1 << tree.n) - 1
    c, _ = solve(full)
    return c, format_decision_tree(build(full)), frozenset(argmins(full)), min_height(full)


def _oracle_answers(tree):
    c, strategy = opt_cost(tree)
    c2, h = opt_cost_min_height(tree)
    assert c2 == c
    return c, format_decision_tree(strategy), optimal_first_queries(tree), h


def _relabelled(parents, weights, rng):
    """The same tree with node ids shuffled, so that ties meet arbitrary ids."""
    perm = list(range(len(parents)))
    rng.shuffle(perm)
    parent, weight = [0] * len(parents), [0] * len(parents)
    for v, p in enumerate(parents):
        parent[perm[v]] = -1 if p == -1 else perm[p]
        weight[perm[v]] = weights[v]
    return InputTree(parent, weight)


def _shape(kind, n, rng):
    if kind == "random":
        return list(random_tree(n, rng.randrange(10**6)).parent)
    if kind == "path":
        return [-1] + list(range(n - 1))
    if kind == "caterpillar":  # a spine of about n/3 nodes, the rest hang off it
        spine = max(1, n // 3)
        return [-1] + list(range(spine - 1)) + [rng.randrange(spine) for _ in range(n - spine)]
    # A spider with legs of two nodes: diameter 4, the paper's hard class.
    return [-1] + [v - 1 if v % 2 == 0 else 0 for v in range(1, n)]


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


def _reference_restricted_height(tree, height):
    """Optimal cost among decision trees of height <= ``height``, or None
    when none fits (fewer than 2**height leaves): an exhaustive search over
    (piece, height) pairs, independent of the branch and bound."""
    sub = _subtree_masks(tree)
    memo = {}

    def solve(piece, h):
        if piece & (piece - 1) == 0:
            return 0
        if h <= 0:
            return None
        h = min(h, bin(piece).count("1") - 1)  # deeper budgets never bind
        key = (piece, h)
        if key not in memo:
            best = None
            for _, inside in _splits(sub, piece):
                a = solve(inside, h - 1)
                if a is None:
                    continue
                b = solve(piece ^ inside, h - 1)
                if b is not None and (best is None or a + b < best):
                    best = a + b
            memo[key] = None if best is None else _piece_weight(tree, piece) + best
        return memo[key]

    return solve((1 << tree.n) - 1, height)


def test_restricted_height():
    t = InputTree([-1, 0, 1], [1, 1, 1])
    assert _reference_restricted_height(t, 2) == 5
    assert _reference_restricted_height(t, 3) == opt_cost(t)[0]


def test_restricted_height_infeasible():
    t = InputTree([-1, 0, 0, 0], [1, 1, 1, 1])
    assert _reference_restricted_height(t, 1) is None


def test_budget_of_n_never_binds():
    rng = random.Random(3)
    for _ in range(15):
        t = random_tree(rng.randint(1, 10), rng.randrange(10**6), (0, 9))
        assert _reference_restricted_height(t, t.n) == opt_cost(t)[0]


def test_dp_budget_lemma():
    # The EST DP at budget B costs c_B with OPT_{<=B} <= c_B <= OPT_{<=B-1},
    # and finds nothing only when no search tree of height <= B - 1 exists.
    # So OPT >= min(c_B, TH(B)), the certificate behind every deepening stop.
    rng = random.Random(23)
    checked = 0
    for n in range(1, 8):
        for parents in all_tree_shapes(n):
            t = InputTree(parents, [rng.choice([0, 0, 1, 2, 9]) for _ in range(n)])
            best = opt_cost(t)[0]
            for budget in range(1, n + 1):
                found = bounded_dp._solve_at(t, budget)
                below = _reference_restricted_height(t, budget - 1)
                case = (parents, t.weight, budget)
                if found is None:
                    assert below is None, case
                else:
                    c = found[0]
                    assert _reference_restricted_height(t, budget) <= c, case
                    assert below is None or c <= below, case
                    if budget < n:
                        assert best >= min(c, bounded_dp.deep_cost_bound(t, budget)), case
                checked += 1
    assert checked == 526


def test_deep_strategy_under_a_tight_recursion_limit():
    # Weights 2^i on a path force every optimal strategy to peel the deepest
    # node first, so its height is n - 1; the oracle keeps that chain of
    # pieces on lists, not frames, and leaves the interpreter's limit alone.
    n = 120
    t = InputTree([-1] + list(range(n - 1)), [2**i for i in range(n)])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        c, strategy = opt_cost(t, limit=n)
        assert opt_cost_min_height(t, limit=n) == (c, n - 1)
        assert sys.getrecursionlimit() == depth + 60
    finally:
        sys.setrecursionlimit(saved)
    assert tree_height(strategy) == n - 1 and cost(strategy, t) == c


def test_min_height_is_achievable_and_optimal():
    rng = random.Random(4)
    for _ in range(15):
        t = random_tree(rng.randint(1, 10), rng.randrange(10**6), (1, 9))
        c, h = opt_cost_min_height(t)
        assert c == opt_cost(t)[0]
        assert _reference_restricted_height(t, h) == c
        assert h == 0 or _reference_restricted_height(t, h - 1) != c


def test_monotone_under_piece_inclusion():
    # OPT(S') <= OPT(S) for nested pieces.
    rng = random.Random(5)
    for _ in range(15):
        t = random_tree(rng.randint(2, 12), rng.randrange(10**6), (0, 9))
        oracle = _Oracle(t)
        top = rng.randrange(t.n)
        big = set(subtree_nodes(t, top))
        small = {top}
        for v in sorted(big - {top}):
            if rng.random() < 0.5 and t.parent[v] in small:
                small.add(v)
        big_piece = NodePiece.of(t, big)
        small_piece = NodePiece.of(t, small)
        assert oracle.solve(_id_mask(small_piece.nodes))[0] <= oracle.solve(_id_mask(big_piece.nodes))[0]


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


def test_matches_reference_on_every_small_shape():
    # Every shape with n <= 9; unit, seeded 0..3 (zeros included) and
    # one-heavy weights.
    rng = random.Random(21)
    checked = 0
    for n in range(1, 10):
        for parents in all_tree_shapes(n):
            for w in (unit_weights(n), [rng.randint(0, 3) for _ in range(n)], one_heavy_weights(n)):
                t = InputTree(parents, w)
                assert _oracle_answers(t) == _reference_oracle(t), (parents, w)
                checked += 1
    assert checked == 1458


@pytest.mark.parametrize("kind", ["random", "path", "caterpillar", "spider"])
def test_matches_reference_on_seeded_trees(kind):
    # Seeded trees up to n = 20 with shuffled ids; the unit-weight spider is
    # the diameter-4 class on which the search stays exponential.
    rng = random.Random(22)
    for n in (11, 14, 17, 20):
        parents = _shape(kind, n, rng)
        for w in ([1] * n, [rng.randint(0, 3) for _ in range(n)]):
            t = _relabelled(parents, w, rng)
            assert _oracle_answers(t) == _reference_oracle(t), (t.parent, t.weight)

