"""Acceptance criteria, one test per criterion, each printing a PASS line
(run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import itertools
import random
from fractions import Fraction

import pytest

from treesearch import (
    BLOCKED,
    UNASSIGNED,
    InputTree,
    NodePiece,
    Query,
    X3CInstance,
    build_T,
    build_Tb,
    cost,
    cost_gap,
    decide_cover,
    gamma,
    greedy,
    fptas,
    leaf_depths,
    opt_cost,
    opt_cost_min_height,
    optimal_bounded,
    realization,
    restrict,
    solve_diam3,
    solve_pb,
    solve_star,
    tree_diameter,
    uninformative_ancestor_counts,
    validate,
    x3c_brute,
)
from treesearch.bounded_dp import height_bound
from treesearch.exact import _subtree_masks
from treesearch.gen import (
    all_tree_shapes,
    one_heavy_weights,
    random_tree,
    seeded_weights,
    unit_weights,
)
from treesearch.model import iter_nodes


def exhaustive_instances(max_n):
    """Every rooted tree shape up to max_n nodes with the three weight
    profiles: unit, seeded random <= 10, one-heavy."""
    for n in range(1, max_n + 1):
        for shape_idx, parents in enumerate(all_tree_shapes(n)):
            profiles = (
                unit_weights(n),
                seeded_weights(n, 1000 * n + shape_idx, 10),
                one_heavy_weights(n),
            )
            for prof_idx, w in enumerate(profiles):
                yield n, shape_idx, prof_idx, InputTree(parents, w)


@pytest.fixture(scope="module")
def suite9():
    """(instance, oracle cost, oracle tree, minimal optimal height) for the
    exhaustive n <= 9 suite."""
    out = []
    for n, _, _, tree in exhaustive_instances(9):
        c, strategy = opt_cost(tree)
        assert validate(strategy, tree).ok and cost(strategy, tree, check=False) == c
        _, min_h = opt_cost_min_height(tree)
        out.append((tree, c, strategy, min_h))
    return out


def test_criterion_01_dp_matches_oracle_exhaustively(suite9):
    checked = 0
    for tree, best, _, _ in suite9:
        c, strategy = optimal_bounded(tree)
        assert validate(strategy, tree).ok
        assert c == best, (tree.parent, tree.weight, c, best)
        checked += 1
    print(f"ACCEPTANCE 1: PASS (bounded-height DP == oracle on {checked} instances, n <= 9)")


def test_criterion_02_greedy_two_approximation(suite9):
    checked = 0
    for tree, best, _, _ in suite9:
        g = cost(greedy(tree), tree, check=False)
        assert g <= 2 * best, (tree.parent, tree.weight, g, best)
        checked += 1
    rng = random.Random(20260810)
    for _ in range(1000):
        tree = random_tree(rng.randint(2, 16), rng.randrange(10**9), (1, 10))
        best, _ = opt_cost(tree)
        g = cost(greedy(tree), tree, check=False)
        assert g <= 2 * best, (tree.parent, tree.weight, g, best)
        checked += 1
    print(f"ACCEPTANCE 2: PASS (greedy/OPT <= 2 on {checked} instances, zero violations)")


def test_criterion_03_fptas_guarantee():
    epsilons = (Fraction(1), Fraction(1, 2), Fraction(1, 10))
    checked = 0
    for _, _, _, tree in exhaustive_instances(8):
        best, _ = opt_cost(tree)
        for eps in epsilons:
            strategy, c = fptas(tree, eps)
            assert validate(strategy, tree).ok
            assert c <= (1 + eps) * best, (tree.parent, tree.weight, eps, c, best)
            checked += 1
    print(f"ACCEPTANCE 3: PASS (fptas/OPT <= 1+eps on {checked} runs, eps in {{1, 1/2, 1/10}})")


def test_criterion_04_height_bound_and_geometric_decrease(suite9):
    for tree, _, strategy, min_h in suite9:
        assert min_h < height_bound(tree)
        _check_geo_decrease(tree, strategy)
    # Deep optimal trees (n = 20 paths with fast-growing weights) make the
    # depth >= 6*(max_children+1)+1 spot check non-vacuous.
    deep = 0
    for scale in (2, 3, 10):
        parents = [-1] + list(range(19))
        weights = [scale**i for i in range(20)]
        tree = InputTree(parents, weights)
        _, strategy = opt_cost(tree)
        threshold = 6 * (tree.max_children + 1) + 1
        deep += sum(1 for _, d in iter_nodes(strategy) if d >= threshold)
        _check_geo_decrease(tree, strategy)
    assert deep > 0
    print(f"ACCEPTANCE 4: PASS (optimal heights below bound; geometric decrease, {deep} deep nodes checked)")


def _check_geo_decrease(tree, strategy):
    threshold = 6 * (tree.max_children + 1) + 1
    subtree_mask = _subtree_masks(tree)
    stack = [(strategy, 0, (1 << tree.n) - 1)]
    while stack:
        node, d, piece = stack.pop()
        if d >= threshold:
            piece_weight = sum(w for v, w in enumerate(tree.weight) if piece >> v & 1)
            assert 2 * piece_weight <= tree.total_weight, (tree.parent, tree.weight, d)
        if isinstance(node, Query):
            sub = subtree_mask[node.query]
            stack.append((node.no, d + 1, piece & ~sub))
            stack.append((node.yes, d + 1, piece & sub))


def test_criterion_05_dp_base_case():
    checked = 0
    for w in (0, 1, 5, 12345):
        tree = InputTree([-1], [w])
        for length in range(1, 8):
            for cells in itertools.product((UNASSIGNED, BLOCKED), repeat=length):
                first = next((i for i, c in enumerate(cells) if c is UNASSIGNED), None)
                if first is None or first > 5:
                    continue
                sol = solve_pb(tree, ("T", 0), cells, length)
                assert sol is not None
                assert sol.cost == (first + 1) * w  # cell indices count 1-based
                checked += 1
    print(f"ACCEPTANCE 5: PASS (base case i*w(u) on {checked} PLPs with first unassigned cell <= 6)")


def _criterion6_instances():
    return [
        X3CInstance.of(3, [(0, 1, 2)]),
        X3CInstance.of(6, [(0, 1, 2), (3, 4, 5)]),
        X3CInstance.of(6, [(0, 1, 2), (2, 3, 4), (1, 3, 5)]),
        X3CInstance.of(6, [(0, 1, 2), (1, 2, 3), (3, 4, 5), (1, 4, 5)]),
        X3CInstance.of(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (2, 4, 6)]),
    ]


def test_criterion_06_reduction_identities():
    gaps = 0
    for inst in _criterion6_instances():
        for i in range(inst.m):
            for j in range(3):
                assert gamma(inst, i, j) >= 3
        red_t = build_T(inst)
        red_b = build_Tb(inst)
        if inst.m >= 2:
            assert tree_diameter(red_t.instance) == 4
        degrees = [
            len(red_b.instance.children[v]) + (0 if v == red_b.instance.root else 1)
            for v in range(red_b.instance.n)
        ]
        assert max(degrees) <= 16
        for red in (red_t, red_b):
            for bits in range(1 << inst.m):
                spec = frozenset(i for i in range(inst.m) if bits >> i & 1)
                cost_gap(red, spec)  # raises unless both accountings match the direct gap
                gaps += 1
    print(f"ACCEPTANCE 6: PASS ({gaps} cost-gap identities exact; gamma >= 3; diam 4; maxdeg <= 16)")


def _cover_decision_corpus():
    """Deterministic X3C corpus with >= 20 yes and >= 20 no instances, m <= 8,
    including the three fixture instances."""
    fixtures = [
        X3CInstance.of(3, [(0, 1, 2)]),
        X3CInstance.of(6, [(0, 1, 2), (2, 3, 4), (1, 3, 5)]),
        X3CInstance.of(6, [(0, 1, 2), (3, 4, 5)]),
    ]
    rng = random.Random(42)
    yes, no = [], []
    while len(yes) < 20 or len(no) < 20:
        n = 3 * rng.randint(1, 3)
        m = rng.randint(1, min(8, max(1, n)))
        fam = []
        count = [0] * n
        guard = 0
        while len(fam) < m and guard < 200:
            guard += 1
            s = tuple(sorted(rng.sample(range(n), 3)))
            if all(count[e] < 3 for e in s):
                fam.append(s)
                for e in s:
                    count[e] += 1
        if not fam:
            continue
        try:
            inst = X3CInstance.of(n, fam)
        except Exception:
            continue
        (yes if x3c_brute(inst) else no).append(inst)
    return fixtures, yes[:24], no[:24]


def test_criterion_07_cover_decision_equivalence():
    fixtures, yes, no = _cover_decision_corpus()
    assert len(yes) >= 20 and len(no) >= 20
    agree = 0
    for inst in fixtures + yes + no:
        expected = x3c_brute(inst)
        assert decide_cover(build_T(inst)) == expected, inst
        agree += 1
    # The bounded-degree variant decides identically (spot-check a slice).
    for inst in fixtures + yes[:3] + no[:3]:
        assert decide_cover(build_Tb(inst)) == x3c_brute(inst)
        agree += 1
    print(f"ACCEPTANCE 7: PASS (decide_cover == x3c_brute on {agree} checks, "
          f"{len(yes)} yes / {len(no)} no instances)")


def test_criterion_08_optimum_is_a_realization_m1():
    inst = X3CInstance.of(3, [(0, 1, 2)])
    red = build_T(inst)
    assert red.instance.n == 10
    realization_best = min(
        cost(realization(red, spec), red.instance)
        for spec in (frozenset(), frozenset({0}))
    )
    oracle_best, _ = opt_cost(red.instance)
    assert realization_best == oracle_best
    print(f"ACCEPTANCE 8: PASS (oracle optimum {oracle_best} equals the realization minimum)")


def test_criterion_09_diameter_dichotomy():
    rng = random.Random(23)
    checked = 0
    for n in range(1, 11):
        shapes = [[-1] + [0] * (n - 1)]
        if n >= 3:
            shapes += [[-1, 0] + [0] * i + [1] * (n - 2 - i) for i in range(n - 1)]
        for parents in shapes:
            for w in ([1] * n, [rng.randint(0, 9) for _ in range(n)]):
                tree = InputTree(parents, w)
                assert tree_diameter(tree) <= 3
                best, _ = opt_cost(tree)
                c3, strategy = solve_diam3(tree)
                assert validate(strategy, tree).ok
                assert cost(strategy, tree) == c3 == best
                if tree_diameter(tree) <= 2:
                    cs, star_strategy = solve_star(tree)
                    assert cs == best and validate(star_strategy, tree).ok
                checked += 1
    # Quadratic step growth: states <= n^2 over n in 10..200 (measured n^2/4).
    for n in range(10, 201, 10):
        i = (n - 2) // 2
        tree = InputTree([-1, 0] + [0] * i + [1] * (n - 2 - i),
                         [rng.randint(1, 50) for _ in range(n)])
        stats = {}
        solve_diam3(tree, stats)
        assert stats["states"] <= n * n
    print(f"ACCEPTANCE 9: PASS (diameter <= 3 solvers == oracle on {checked} instances; steps <= n^2)")


def test_criterion_10_restriction_depth_identity():
    rng = random.Random(77)
    checked = 0
    for _ in range(500):
        n = rng.randint(2, 12)
        tree = random_tree(n, rng.randrange(10**9), (0, 9))
        strategy = greedy(tree) if rng.random() < 0.5 else opt_cost(tree)[1]
        top = rng.randrange(n)
        nodes = {top}
        frontier = list(tree.children[top])
        while frontier:
            c = frontier.pop(rng.randrange(len(frontier)))
            if rng.random() < 0.75:
                nodes.add(c)
                frontier.extend(tree.children[c])
        piece = NodePiece.of(tree, nodes)
        restricted = restrict(strategy, tree, piece)
        full_depths = leaf_depths(strategy)
        sub_depths = leaf_depths(restricted)
        drops = uninformative_ancestor_counts(strategy, piece)
        for x in nodes:
            assert sub_depths[x] == full_depths[x] - drops[x]
        checked += 1
    print(f"ACCEPTANCE 10: PASS (depth identity exact on {checked} (instance, piece) pairs)")
