import random

import pytest

from treesearch import (
    InputTree,
    InvalidInstanceError,
    Query,
    cost,
    format_decision_tree,
    opt_cost,
    solve_diam3,
    solve_star,
    tree_diameter,
    validate,
)
from treesearch.diameter import _isolating_query, _sequential_star
from treesearch.gen import all_tree_shapes, path_tree, star_tree


def double_broom(i: int, j: int, weights) -> InputTree:
    # Two adjacent centers 0 and 1; i leaves on 0, j leaves on 1.
    parents = [-1, 0] + [0] * i + [1] * j
    return InputTree(parents, weights)


def test_diameter():
    assert tree_diameter(path_tree(1)) == 0
    assert tree_diameter(path_tree(2)) == 1
    assert tree_diameter(star_tree(5)) == 2
    assert tree_diameter(path_tree(4)) == 3
    assert tree_diameter(path_tree(5)) == 4


def test_diameter_and_refusals_match_brute_force():
    # Every shape with n <= 9 rooted at every node: tree_diameter against all
    # pairs of BFS distances, and each solver refuses exactly the trees above
    # its diameter.
    checked = 0
    for n in range(1, 10):
        for parents in all_tree_shapes(n):
            for root in range(n):
                t = _rerooted(parents, [1] * n, root)
                diam = _brute_diameter(t)
                assert tree_diameter(t) == diam, (parents, root)
                for solver, top in ((solve_star, 2), (solve_diam3, 3)):
                    if diam > top:
                        with pytest.raises(InvalidInstanceError):
                            solver(t)
                    else:
                        c, strategy = solver(t)
                        assert cost(strategy, t) == c
                checked += 1
    assert checked == 4020


def test_star_fixture(star4):
    c, strategy = solve_star(star4)
    assert c == 10 == opt_cost(star4)[0]
    assert validate(strategy, star4).ok


def test_star_equal_weights_ascending_ids():
    t = star_tree(4, [0, 5, 5, 5])
    c, strategy = solve_star(t)
    assert strategy.query == 1  # weight ties break by node id
    assert c == opt_cost(t)[0]


def test_star_single_node():
    t = InputTree([-1], [3])
    assert solve_star(t) == (0, opt_cost(t)[1])


def test_star_rejects_deep_tree():
    with pytest.raises(InvalidInstanceError):
        solve_star(path_tree(4))


def test_diam3_rejects_diameter_4():
    with pytest.raises(InvalidInstanceError):
        solve_diam3(path_tree(5))


def test_diam3_fixture_matches_oracle():
    t = double_broom(1, 2, [2, 4, 5, 3, 1])
    c, strategy = solve_diam3(t)
    assert validate(strategy, t).ok
    assert cost(strategy, t) == c == opt_cost(t)[0] == 35  # pinned after first oracle run


def test_diam3_star_degenerate():
    t = star_tree(5, [0, 4, 3, 2, 1])
    assert solve_diam3(t)[0] == solve_star(t)[0]


def test_diam3_exhaustive_vs_oracle():
    rng = random.Random(19)
    for n in range(2, 11):
        shapes = [[-1] + [0] * (n - 1)]
        if n >= 3:
            shapes += [[-1, 0] + [0] * i + [1] * (n - 2 - i) for i in range(n - 1)]
        for parents in shapes:
            for _ in range(2):
                w = [rng.randint(0, 9) for _ in range(n)]
                t = InputTree(parents, w)
                assert tree_diameter(t) <= 3
                c, strategy = solve_diam3(t)
                assert validate(strategy, t).ok
                assert cost(strategy, t) == c == opt_cost(t)[0]


def test_diam3_rooted_at_outer_leaf():
    # Same unrooted structure, rooted at a leaf hanging off a center.
    parents = [-1, 0, 1, 1, 2, 2, 2]
    w = [5, 1, 7, 2, 3, 8, 1]
    t = InputTree(parents, w)
    assert tree_diameter(t) == 3
    c, strategy = solve_diam3(t)
    assert validate(strategy, t).ok
    assert c == opt_cost(t)[0]


def test_states_are_stopping_points():
    rng = random.Random(20)
    for n in (10, 50, 120, 200):
        i = (n - 2) // 2
        t = double_broom(i, n - 2 - i, [rng.randint(1, 50) for _ in range(n)])
        stats = {}
        solve_diam3(t, stats)
        assert stats["states"] == i + (n - 2 - i) + 1
    stats = {}
    solve_diam3(star_tree(7), stats)
    assert stats["states"] == 7


def _reference_diam3(tree):
    """The (A+1)(B+1) two-center table that ``solve_diam3`` replaced, kept as
    its reference without the ``stats`` hook."""
    diam = tree_diameter(tree)
    if diam > 3:
        raise InvalidInstanceError("solve_diam3 requires diameter <= 3")
    if diam <= 2:
        return solve_star(tree)

    adj = _adjacency(tree.parent)
    r, rp = [v for v in range(tree.n) if len(adj[v]) > 1]  # diameter 3: the two centers
    w = tree.weight
    r_leaves = sorted((v for v in adj[r] if v != rp), key=lambda v: (-w[v], v))
    rp_leaves = sorted((v for v in adj[rp] if v != r), key=lambda v: (-w[v], v))

    def sides(center, leaves):
        """Weight and sequential cost of the star piece of ``center`` that
        remains after isolating its a heaviest leaves, for each a."""
        weight = [w[center]] * (len(leaves) + 1)
        star = [0] * (len(leaves) + 1)
        for a in range(len(leaves) - 1, -1, -1):
            weight[a] = weight[a + 1] + w[leaves[a]]
            star[a] = star[a + 1] + weight[a]  # one more level over the whole piece
        return weight, star

    r_w, r_star = sides(r, r_leaves)
    rp_w, rp_star = sides(rp, rp_leaves)

    # Bottom-up table over (a, b) = heaviest leaves already isolated from
    # (r, r'), rows a = A..0 with b = B..0 inside each. The root of the piece
    # queries the center edge ("split", 0), the next r-leaf (1) or the next
    # r'-leaf (2); ties keep the earlier choice.
    A, B = len(r_leaves), len(rp_leaves)
    below = []  # costs of row a + 1
    choices = [bytearray()] * (A + 1)
    for a in range(A, -1, -1):
        row = [0] * (B + 1)
        pick = bytearray(B + 1)
        for b in range(B, -1, -1):
            piece_w = r_w[a] + rp_w[b]
            best = piece_w + r_star[a] + rp_star[b]
            if a < A and piece_w + below[b] < best:
                best, pick[b] = piece_w + below[b], 1
            if b < B and piece_w + row[b + 1] < best:
                best, pick[b] = piece_w + row[b + 1], 2
            row[b] = best
        below, choices[a] = row, pick
    total = below[0]

    # Walk the choices from (0, 0) to the split, then wrap the split in the
    # isolating queries from the bottom up.
    a = b = 0
    isolated = []
    while choices[a][b]:
        if choices[a][b] == 1:
            isolated.append((r, r_leaves[a]))
            a += 1
        else:
            isolated.append((rp, rp_leaves[b]))
            b += 1
    r_side = _sequential_star(tree, r, r_leaves[a:])
    rp_side = _sequential_star(tree, rp, rp_leaves[b:])
    if tree.parent[rp] == r:
        strategy = Query(rp, no=r_side, yes=rp_side)
    else:
        strategy = Query(r, no=rp_side, yes=r_side)
    for center, x in reversed(isolated):
        strategy = _isolating_query(tree, center, x, strategy)
    return total, strategy


def _adjacency(parents):
    adj = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p != -1:
            adj[v].append(p)
            adj[p].append(v)
    return adj


def _brute_diameter(tree):
    """The largest BFS distance over all pairs of nodes."""
    adj = _adjacency(tree.parent)
    best = 0
    for start in range(tree.n):
        dist = [-1] * tree.n
        dist[start] = 0
        queue = [start]
        for u in queue:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        best = max(best, max(dist))
    return best


def _rerooted(parents, weights, root):
    """The same unrooted tree and weights, rooted at ``root``."""
    adj = _adjacency(parents)
    new = [None] * len(parents)
    new[root], stack = -1, [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if new[v] is None:
                new[v] = u
                stack.append(v)
    return InputTree(new, weights)


def _relabelled(parents, weights, rng):
    """A random relabelling of the tree, rooted at a random node."""
    n = len(parents)
    perm = list(range(n))
    rng.shuffle(perm)
    new_parents, new_weights = [0] * n, [0] * n
    for v, p in enumerate(parents):
        new_parents[perm[v]] = -1 if p == -1 else perm[p]
        new_weights[perm[v]] = weights[v]
    return _rerooted(new_parents, new_weights, rng.randrange(n))


def _assert_same_as_reference(t):
    c, strategy = solve_diam3(t)
    ref_c, ref_strategy = _reference_diam3(t)
    assert c == ref_c
    assert format_decision_tree(strategy) == format_decision_tree(ref_strategy)


def test_diam3_matches_reference_on_small_shapes():
    rng = random.Random(21)
    checked = 0
    for n in range(1, 10):
        shapes = [[-1] + [0] * (n - 1)]
        if n >= 3:
            shapes += [[-1, 0] + [0] * i + [1] * (n - 2 - i) for i in range(n - 1)]
        for parents in shapes:
            profiles = [[1] * n] + [[rng.randint(0, 3) for _ in range(n)] for _ in range(3)]
            for center in range(min(n, 2)):  # node 0, and node 1 of a double broom
                w = [rng.randint(0, 3) for _ in range(n)]
                w[center] = 10 ** 6
                profiles.append(w)
            for w in profiles:
                for root in range(n):
                    _assert_same_as_reference(_rerooted(parents, w, root))
                    checked += 1
    assert checked == 1697


def test_diam3_matches_reference_on_relabelled_double_stars():
    rng = random.Random(22)
    for _ in range(450):
        size = rng.choice([3, 12, 199])
        a, b = rng.randint(0, size), rng.randint(0, size)
        hi = rng.choice([0, 1, 3, 10, 1000])
        n = a + b + 2
        parents = [-1, 0] + [0] * a + [1] * b
        _assert_same_as_reference(_relabelled(parents, [rng.randint(0, hi) for _ in range(n)], rng))
