"""The natural greedy strategy: always query the node that splits the
remaining piece as evenly as possible (by weight).

On each piece S the query x minimizes |w(S inside T_x) - w(S outside T_x)|
over the informative queries x in S other than S's topmost node; ties break
toward the smallest node id. This is a polynomial 2-approximation.

Each piece carries its own node list in global preorder, topmost node first,
and a split walks only that list: once for the in-piece subtree weights and
once to pick the query. The YES side, x's subtree within the piece, is then
one run of that list, found by bisection on ``InputTree.pre``: v is on x's
YES side iff pre[x] <= pre[v] < pre[x] + size[x]. Every node is walked once
per piece that holds it, so the total work is O(sum of |piece|) = O(n*h),
where h is the height of the greedy strategy.
That is O(n log n) on balanced splits but quadratic on a star, where every
query splits off a single leaf (and on any tree whose queries split off a few
nodes at a time); ``solve --alg auto`` sends stars (diameter <= 3) to
``solve_diam3`` instead.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress

from .model import DecisionNode, InputTree, Leaf, build_decision_tree


def greedy(tree: InputTree) -> DecisionNode:
    return greedy_cost(tree)[1]


def greedy_cost(tree: InputTree) -> tuple[int, DecisionNode]:
    """``(cost, strategy)`` of the greedy strategy. The cost is summed while
    the strategy is built: each query adds the weight of the piece it splits,
    as it puts every leaf of that piece one level deeper."""
    parent = tree.parent
    weight = tree.weight
    pre, size = tree.pre, tree.size
    position = pre.__getitem__  # a piece's list is sorted by it
    subw = [0] * tree.n  # in-piece subtree weights, rewritten for each piece
    total_cost = 0

    def split(nodes: list[int]):
        nonlocal total_cost
        top = nodes[0]
        if len(nodes) == 1:
            return Leaf(top)
        for v in nodes:
            subw[v] = weight[v]
        below = nodes[:0:-1]  # reversed preorder: v's subtree is complete before v
        for v in below:
            subw[parent[v]] += subw[v]
        total = subw[top]
        total_cost += total
        gaps = [abs(total - 2 * subw[v]) for v in below]
        x = min(compress(below, map(min(gaps).__eq__, gaps)))
        i = bisect_left(nodes, pre[x], key=position)
        j = bisect_left(nodes, pre[x] + size[x], i, key=position)
        return x, nodes[:i] + nodes[j:], nodes[i:j]

    strategy = build_decision_tree(list(reversed(tree.postorder)), split)
    return total_cost, strategy
