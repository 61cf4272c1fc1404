"""Polynomial exact solvers for the easy diameter classes.

Diameter <= 2 (stars): query the edges in decreasing weight of the node they
isolate; the center is pinned to the deepest level by structure, so the
exchange argument gives optimality in O(n log n).

Diameter 3: two adjacent centers r, r' with every other node a leaf on one
of them. The root of an optimal strategy queries the edge between the
centers, the heaviest remaining r-leaf, or the heaviest remaining r'-leaf,
so a dynamic program over (heaviest-leaves-removed-from-r,
heaviest-leaves-removed-from-r') counts O(n^2) states; querying the center
edge leaves two stars.

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


def _farthest(adj, start: int) -> tuple[int, int, list[int]]:
    prev = [-1] * len(adj)
    prev[start] = start
    frontier = [start]
    last, dist = start, 0
    d = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if prev[v] == -1:
                    prev[v] = u
                    nxt.append(v)
        if nxt:
            d += 1
            last, dist = nxt[0], d
        frontier = nxt
    return last, dist, prev


def tree_diameter(tree: InputTree) -> int:
    """Diameter of the unrooted tree (longest path, in edges)."""
    if tree.n == 1:
        return 0
    adj = _adjacency(tree)
    a, _, _ = _farthest(adj, 0)
    _, d, _ = _farthest(adj, a)
    return d


def _diameter_path(tree: InputTree) -> list[int]:
    adj = _adjacency(tree)
    a, _, _ = _farthest(adj, 0)
    b, _, prev = _farthest(adj, a)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path


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


def solve_star(tree: InputTree) -> tuple[int, DecisionNode]:
    """Exact optimum for diameter <= 2: isolate nodes in decreasing weight."""
    if tree.n == 1:
        return 0, Leaf(tree.root)
    if tree_diameter(tree) > 2:
        raise InvalidInstanceError("solve_star requires diameter <= 2")
    adj = _adjacency(tree)
    degrees = [len(a) for a in adj]
    center = max(range(tree.n), key=lambda v: (degrees[v], -v))
    others = sorted((v for v in range(tree.n) if v != center),
                    key=lambda v: (-tree.weight[v], v))
    strategy = _sequential_star(tree, center, others)
    return _star_cost(tree, center, others), strategy


def solve_diam3(tree: InputTree, stats: Optional[dict] = None) -> tuple[int, DecisionNode]:
    """Exact optimum for diameter <= 3 by the two-center dynamic program.

    ``stats``, when given, receives {"states": <number of DP states evaluated>}.
    """
    diam = tree_diameter(tree)
    if diam > 3:
        raise InvalidInstanceError("solve_diam3 requires diameter <= 3")
    if diam <= 2:
        c, strategy = solve_star(tree)
        if stats is not None:
            stats["states"] = tree.n
        return c, strategy

    path = _diameter_path(tree)  # 4 nodes: leaf, center, center, leaf
    c1, c2 = path[1], path[2]
    r, rp = (c1, c2) if c1 < c2 else (c2, c1)
    w = tree.weight
    adj = _adjacency(tree)
    r_leaves = sorted((v for v in adj[r] if v != rp), key=lambda v: (-w[v], v))
    rp_leaves = sorted((v for v in adj[rp] if v != r), key=lambda v: (-w[v], v))

    def sides(center: int, leaves: list[int]) -> tuple[list[int], list[int]]:
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
    below: list[int] = []  # costs of row a + 1
    choices: list[bytearray] = [bytearray()] * (A + 1)
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
    if stats is not None:
        stats["states"] = (A + 1) * (B + 1)
    return total, strategy
