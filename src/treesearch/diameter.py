"""Polynomial exact solvers for the easy diameter classes.

Diameter <= 2 (stars): query the edges in decreasing weight of the node they
isolate; the center is pinned to the deepest level by structure, so the
exchange argument gives optimality in O(n log n).

Diameter 3: two adjacent centers r, r' with every other node a leaf on one
of them. The root of an optimal strategy queries the edge between the
centers, the heaviest remaining r-leaf, or the heaviest remaining r'-leaf,
and querying the center edge leaves two stars. Some optimum isolates a
heaviest-first prefix of both centers' leaves merged, so one scan over the
A + B + 1 stopping points finds it in O(n log n) (see ``solve_diam3``).

Both solvers classify a tree by its hubs, the nodes with two or more
neighbours, read from the rooted structure (children plus parent). Every
inner node of a path is a hub, and a longest path ends in two leaves, so it
runs leaf, hubs, leaf; deleting the leaves of a tree leaves it connected, so
the hubs form a subtree. Hence at most one hub means diameter <= 2 (a star,
the hub its center). Exactly two hubs means diameter 3: they are adjacent,
and each has a leaf beyond the other, so they are the two centers. Three or
more hubs contain a path of three hubs, and each end hub has one more
neighbour off that path, which gives a path of four edges: diameter >= 4.
Queries are encoded against the instance's rooting (an edge is queried by
its child endpoint).
"""

from __future__ import annotations

from typing import Optional

from .errors import InvalidInstanceError
from .model import DecisionNode, InputTree, Leaf, Query


def tree_diameter(tree: InputTree) -> int:
    """Diameter of the unrooted tree (longest path, in edges): the largest
    sum, over all nodes, of the node's two tallest branches below it."""
    height = [0] * tree.n  # edges on the longest downward path from each node
    best = 0
    for v in tree.postorder:
        top = 0  # the tallest branch below v so far
        for c in tree.children[v]:
            branch = height[c] + 1
            if top + branch > best:
                best = top + branch
            if branch > top:
                top = branch
        height[v] = top
    return best


def _hubs(tree: InputTree) -> list[int]:
    """The nodes with two or more neighbours, in id order."""
    parent, children = tree.parent, tree.children
    return [v for v in range(tree.n) if len(children[v]) + (parent[v] != -1) >= 2]


def _neighbours(tree: InputTree, v: int) -> tuple[int, ...]:
    p = tree.parent[v]
    return tree.children[v] if p == -1 else tree.children[v] + (p,)


def _isolating_query(tree: InputTree, center: int, x: int, rest: DecisionNode) -> DecisionNode:
    """Query the edge {center, x} so that x lands on a leaf and the rest continues."""
    if tree.parent[x] == center:
        return Query(x, no=rest, yes=Leaf(x))
    # x is the center's parent: the query names the center and x is the NO side.
    return Query(center, no=Leaf(x), yes=rest)


def _sequential_star(tree: InputTree, center: int, leaves: list[int]) -> DecisionNode:
    node: DecisionNode = Leaf(center)
    for x in reversed(leaves):
        node = _isolating_query(tree, center, x, node)
    return node


def _star_cost(tree: InputTree, center: int, leaves: list[int]) -> int:
    total = sum((i + 1) * tree.weight[x] for i, x in enumerate(leaves))
    return total + len(leaves) * tree.weight[center]


def _star(tree: InputTree, hubs: list[int]) -> tuple[int, DecisionNode]:
    center = hubs[0] if hubs else 0  # with no hub, n <= 2 and either node will do
    others = sorted((v for v in range(tree.n) if v != center),
                    key=lambda v: (-tree.weight[v], v))
    return _star_cost(tree, center, others), _sequential_star(tree, center, others)


def solve_star(tree: InputTree) -> tuple[int, DecisionNode]:
    """Exact optimum for diameter <= 2: isolate nodes in decreasing weight."""
    hubs = _hubs(tree)
    if len(hubs) > 1:
        raise InvalidInstanceError("solve_star requires diameter <= 2")
    return _star(tree, hubs)


def solve_diam3(tree: InputTree, stats: Optional[dict] = None) -> tuple[int, DecisionNode]:
    """Exact optimum for diameter <= 3 by one scan over the merged leaf list.

    Let r < r' be the two centers. By the root rule in the module docstring,
    an optimal strategy isolates a heaviest-first run of each center's
    leaves, one query per leaf, and then queries the center edge, after
    which each side is a star. Some optimum isolates the first k leaves of
    ``merged``: the leaves of both centers, heaviest first, equal weights
    across the two sides to r, each side in its (-weight, id) order.

    1. Order. For a fixed set of isolated leaves, heaviest first is optimal:
       swapping two adjacent isolations u, v changes only the piece between
       them, by w(u) - w(v).
    2. Set. Suppose the isolated set is not the k heaviest leaves. Let x be
       the lightest isolated leaf, say on r', and y the heaviest one not
       isolated. Each side isolates a heaviest-first prefix, so y is on r
       and w(x) < w(y), and by 1 x is isolated last. Splitting one query
       earlier instead moves x one level down and every node of the
       remaining r-side star, y and r included, one level up; the r'-side
       depths do not change. The cost changes by w(x) - w(R_r) <=
       w(x) - w(y) < 0. With ties the change is <= 0.

    So the only choice is k, and the scan keeps running sums of the cost of
    the first k isolations, the weight of each center's remaining star and
    the cost of both stars. The first k of least cost wins.

    ``stats``, when given, receives {"states": <stopping points scanned>},
    which is A + B + 1 for A and B leaves on the two centers (n on a star).
    """
    centers = _hubs(tree)  # with two hubs, r and r' in id order
    if len(centers) > 2:
        raise InvalidInstanceError("solve_diam3 requires diameter <= 3")
    if len(centers) <= 1:
        if stats is not None:
            stats["states"] = tree.n
        return _star(tree, centers)

    w = tree.weight
    merged = sorted(((s, x) for s in (0, 1)
                     for x in _neighbours(tree, centers[s]) if x != centers[1 - s]),
                    key=lambda sx: (-w[sx[1]], sx[0], sx[1]))
    sides = [[x for s, x in merged if s == side] for side in (0, 1)]
    rest = [w[c] + sum(w[x] for x in leaves) for c, leaves in zip(centers, sides)]
    stars = sum(_star_cost(tree, c, leaves) for c, leaves in zip(centers, sides))
    spent = 0  # cost of the isolations so far: one level over each piece they split
    total, k = rest[0] + rest[1] + stars, 0
    for i, (s, x) in enumerate(merged, 1):
        spent += rest[0] + rest[1]
        stars -= rest[s]  # the star of side s loses its top level
        rest[s] -= w[x]
        c = spent + rest[0] + rest[1] + stars
        if c < total:
            total, k = c, i

    r, rp = centers
    r_side = _sequential_star(tree, r, [x for s, x in merged[k:] if s == 0])
    rp_side = _sequential_star(tree, rp, [x for s, x in merged[k:] if s == 1])
    if tree.parent[rp] == r:
        strategy = Query(rp, no=r_side, yes=rp_side)
    else:
        strategy = Query(r, no=rp_side, yes=r_side)
    for s, x in reversed(merged[:k]):
        strategy = _isolating_query(tree, centers[s], x, strategy)
    if stats is not None:
        stats["states"] = len(merged) + 1
    return total, strategy
