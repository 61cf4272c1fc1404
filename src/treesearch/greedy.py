"""The natural greedy strategy: always query the node that splits the
remaining piece as evenly as possible (by weight).

On each piece S the query x minimizes |w(S inside T_x) - w(S outside T_x)|
over the informative queries x in S other than S's topmost node; ties break
toward the smallest node id. This is a polynomial 2-approximation.
"""

from __future__ import annotations

from .model import DecisionNode, InputTree, Leaf, build_decision_tree


def greedy(tree: InputTree) -> DecisionNode:
    post = tree.postorder
    children = tree.children
    weight = tree.weight
    sub = tree.subtree_mask

    def split(item: tuple[int, int]):
        piece, top = item
        if piece & (piece - 1) == 0:
            return Leaf(piece.bit_length() - 1)
        # One bottom-up pass per piece: subtree weights within the piece.
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
