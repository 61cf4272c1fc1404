"""The natural greedy strategy: always query the node that splits the
remaining piece as evenly as possible (by weight).

On each piece S the query x minimizes |w(S inside T_x) - w(S outside T_x)|
over the informative queries x in S other than S's topmost node; ties break
toward the smallest node id. This is a polynomial 2-approximation.

Each piece carries its own node list in global postorder, topmost node last,
and a split walks only that list: once for the in-piece subtree weights, once
to pick the query and once to partition the list into its YES and NO sides.
Every node is walked once per piece that holds it, so the total work is
O(sum of |piece|) = O(n*h), where h is the height of the greedy strategy.
That is O(n log n) on balanced splits but quadratic on a star, where every
query splits off a single leaf (and on any tree whose queries split off a few
nodes at a time); ``solve --alg auto`` sends stars (diameter <= 3) to
``solve_diam3`` instead.
"""

from __future__ import annotations

from .model import DecisionNode, InputTree, Leaf, build_decision_tree


def greedy(tree: InputTree) -> DecisionNode:
    n = tree.n
    parent = tree.parent
    weight = tree.weight
    post = tree.postorder
    # v lies in T_x iff pre[x] <= pre[v] < pre[x] + size[x].
    size = [1] * n
    for v in post:
        for c in tree.children[v]:
            size[v] += size[c]
    pre = [0] * n
    stack = [tree.root]
    k = 0
    while stack:
        v = stack.pop()
        pre[v] = k
        k += 1
        stack += tree.children[v]
    subw = [0] * n  # in-piece subtree weights, rewritten for each piece

    def split(nodes: list[int]):
        top = nodes[-1]
        if len(nodes) == 1:
            return Leaf(top)
        for v in nodes:
            subw[v] = weight[v]
        below = nodes[:-1]
        for v in below:  # postorder: v's subtree is complete before v
            subw[parent[v]] += subw[v]
        total = subw[top]
        x = min(below, key=lambda v: (abs(total - 2 * subw[v]), v))
        lo, hi = pre[x], pre[x] + size[x]
        yes = [v for v in nodes if lo <= pre[v] < hi]
        no = [v for v in nodes if not lo <= pre[v] < hi]
        return x, no, yes

    return build_decision_tree(list(post), split)
