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

Both solvers work on the unrooted structure; queries are encoded against the
instance's rooting (an edge is queried by its child endpoint).
"""

from __future__ import annotations

from typing import Optional

from .errors import InvalidInstanceError
from .model import DecisionNode, InputTree, Leaf, Query


def _adjacency(tree: InputTree) -> list[list[int]]:
    adj = [[] for _ in range(tree.n)]
    for v in range(tree.n):
        if v != tree.root:
            adj[v].append(tree.parent[v])
            adj[tree.parent[v]].append(v)
    return adj


def _farthest(adj, start: int) -> tuple[int, list[int]]:
    """A node farthest from ``start`` and the BFS predecessor of every node."""
    prev = [-1] * len(adj)
    prev[start] = start
    frontier = [start]
    last = start
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if prev[v] == -1:
                    prev[v] = u
                    nxt.append(v)
        if nxt:
            last = nxt[0]
        frontier = nxt
    return last, prev


def _diameter_path(adj) -> list[int]:
    """The nodes of one longest path, end to end."""
    a, _ = _farthest(adj, 0)
    b, prev = _farthest(adj, a)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path


def tree_diameter(tree: InputTree) -> int:
    """Diameter of the unrooted tree (longest path, in edges)."""
    return len(_diameter_path(_adjacency(tree))) - 1


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


def _star(tree: InputTree, adj) -> tuple[int, DecisionNode]:
    center = max(range(tree.n), key=lambda v: (len(adj[v]), -v))
    others = sorted((v for v in range(tree.n) if v != center),
                    key=lambda v: (-tree.weight[v], v))
    return _star_cost(tree, center, others), _sequential_star(tree, center, others)


def solve_star(tree: InputTree) -> tuple[int, DecisionNode]:
    """Exact optimum for diameter <= 2: isolate nodes in decreasing weight."""
    adj = _adjacency(tree)
    if len(_diameter_path(adj)) > 3:
        raise InvalidInstanceError("solve_star requires diameter <= 2")
    return _star(tree, adj)


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
    adj = _adjacency(tree)
    path = _diameter_path(adj)
    if len(path) > 4:
        raise InvalidInstanceError("solve_diam3 requires diameter <= 3")
    if len(path) <= 3:
        if stats is not None:
            stats["states"] = tree.n
        return _star(tree, adj)

    centers = sorted(path[1:3])  # path is leaf, center, center, leaf
    w = tree.weight
    merged = sorted(((s, x) for s in (0, 1) for x in adj[centers[s]] if x != centers[1 - s]),
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
