import random

from treesearch import (
    InputTree,
    Leaf,
    NodePiece,
    Query,
    cost,
    format_decision_tree,
    greedy,
    opt_cost,
    restrict,
    validate,
)
from treesearch.gen import (
    all_tree_shapes,
    complete_dary_tree,
    one_heavy_weights,
    path_tree,
    random_tree,
    seeded_weights,
    unit_weights,
)
from treesearch.model import build_decision_tree


def _reference_greedy(tree):
    """The greedy rule as a whole-tree scan with piece bitmasks, one pass over
    the full postorder per piece; ``greedy`` must return the same strategies."""
    post = tree.postorder
    children = tree.children
    weight = tree.weight
    sub = tree.subtree_mask

    def split(item):
        piece, top = item
        if piece & (piece - 1) == 0:
            return Leaf(piece.bit_length() - 1)
        subw = {}
        total = 0
        for v in post:
            if piece >> v & 1:
                s = weight[v]
                for c in children[v]:
                    if piece >> c & 1:
                        s += subw[c]
                subw[v] = s
                if v == top:
                    total = s
        best = None
        best_x = -1
        for v in post:
            if v != top and piece >> v & 1:
                gap = abs(total - 2 * subw[v])
                if best is None or gap < best or (gap == best and v < best_x):
                    best, best_x = gap, v
        inside = piece & sub[best_x]
        return best_x, (piece ^ inside, top), (inside, best_x)

    return build_decision_tree((tree.full_mask(), tree.root), split)


def _same_as_reference(tree):
    return format_decision_tree(greedy(tree)) == format_decision_tree(_reference_greedy(tree))


def _relabelled(parents, weights, rng):
    """The same tree with node ids shuffled, so that ties meet arbitrary ids."""
    perm = list(range(len(parents)))
    rng.shuffle(perm)
    parent, weight = [0] * len(parents), [0] * len(parents)
    for v, p in enumerate(parents):
        parent[perm[v]] = -1 if p == -1 else perm[p]
        weight[perm[v]] = weights[v]
    return InputTree(parent, weight)


def _caterpillar(n, rng):
    """A spine of about n/3 nodes; every other node hangs off a spine node."""
    spine = max(1, n // 3)
    return [-1] + list(range(spine - 1)) + [rng.randrange(spine) for _ in range(n - spine)]


def test_star_fixture_order(star4):
    # Gaps: l1 splits 3|3, then l2 vs l3 ties at 1 and l2 wins by id.
    strategy = greedy(star4)
    assert strategy == Query(
        1, no=Query(2, no=Query(3, no=Leaf(0), yes=Leaf(3)), yes=Leaf(2)), yes=Leaf(1)
    )
    assert cost(strategy, star4) == 10 == opt_cost(star4)[0]


def test_single_node():
    t = InputTree([-1], [9])
    assert greedy(t) == Leaf(0)


def test_path7_within_factor_two():
    t = path_tree(7)
    g = cost(greedy(t), t)
    best, _ = opt_cost(t)
    assert g <= 2 * best
    # Regression pin: first computed values for the unit path of 7 nodes.
    assert (best, g) == (20, 20)


def test_always_valid_random():
    rng = random.Random(8)
    for _ in range(40):
        t = random_tree(rng.randint(1, 30), rng.randrange(10**6), (0, 9))
        assert validate(greedy(t), t).ok


def test_ratio_exhaustive_small():
    rng = random.Random(9)
    for n in range(2, 8):
        for parents in all_tree_shapes(n):
            for w in ([1] * n, [rng.randint(1, 10) for _ in range(n)]):
                t = InputTree(parents, w)
                assert cost(greedy(t), t, check=False) <= 2 * opt_cost(t)[0]


def test_reroot_inequality():
    # Rerooting an optimal strategy at the greedy query costs at most
    # half the total weight extra: 2 cost(D') <= 2 cost(D*) + w(T).
    rng = random.Random(10)
    for _ in range(30):
        t = random_tree(rng.randint(2, 11), rng.randrange(10**6), (1, 9))
        _, optimal = opt_cost(t)
        x = greedy(t).query
        inside = NodePiece.of(t, t.subtree_nodes(x))
        outside = NodePiece.of(t, set(range(t.n)) - t.subtree_nodes(x))
        rerooted = Query(x, no=restrict(optimal, t, outside), yes=restrict(optimal, t, inside))
        assert validate(rerooted, t).ok
        assert 2 * cost(rerooted, t) <= 2 * cost(optimal, t) + t.total_weight


def test_matches_reference_on_every_small_shape():
    checked = 0
    for n in range(1, 10):
        for parents in all_tree_shapes(n):
            for w in (unit_weights(n), seeded_weights(n, checked, hi=9, lo=0), one_heavy_weights(n)):
                assert _same_as_reference(InputTree(parents, w)), (parents, w)
                checked += 1
    assert checked == 3 * 486


def test_matches_reference_on_seeded_large_trees():
    rng = random.Random(12)
    shapes = {
        "path": lambda n: list(path_tree(n).parent),
        "binary": lambda n: list(complete_dary_tree(n, 2).parent),
        "caterpillar": lambda n: _caterpillar(n, rng),
    }
    for i in range(300):
        n = rng.randint(1, 500)
        lo, hi = rng.choice([(0, 0), (0, 1), (0, 9), (1, 1000)])
        kind = ("random", "path", "binary", "caterpillar")[i % 4]
        if kind == "random":
            t = random_tree(n, rng.randrange(10**6), (lo, hi))
        else:
            t = _relabelled(shapes[kind](n), [rng.randint(lo, hi) for _ in range(n)], rng)
        assert _same_as_reference(t), (kind, n, lo, hi)
