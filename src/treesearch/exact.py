"""Exact optimal solver: branch and bound over candidate pieces.

A piece is the set of candidates still possible, as an n-bit integer keyed
by node id (the one module that stores node sets so). Its optimal cost
is w(piece) plus the least sum of the optimal costs of the two sides of one
of its splits (a query x in the piece other than its topmost node; YES is
the part inside T_x). The oracle keeps two memos per piece: its exact cost
once found, and the best lower bound proven so far, which starts at the
Huffman cost of the piece's weights (``bounds.huffman``; a strategy is a
full binary tree with one leaf per node). LB(piece) is the exact cost when
known, else that bound.

``_search(piece, ub)`` returns the optimal cost when it is below ``ub``,
else a lower bound >= ``ub``. It tries the splits in ascending
LB(yes) + LB(no) and stops once w(piece) plus that sum reaches the best cost
found so far, since every later split costs at least as much. Each side is
searched under the bound that would still let the split win. A piece that
finds nothing under ``ub`` stores ``ub`` as its lower bound. The whole tree
is searched under greedy's cost + 1, so the first search always succeeds.

The pruned search finds costs, not the tie-break. Once a piece's cost c is
known, the smallest optimal first query is the first split, by ascending
id, whose two sides hit c - w(piece) exactly; each side is checked by a
bounded search that stops as soon as it overshoots. ``opt_cost``'s
strategy, the oracle's ``argmins`` and ``opt_cost_min_height`` all read
splits this way, so they equal an exhaustive search with smallest-id
tie-breaking. The search stays exponential where many splits have equal
bounds, as NP-hardness demands even at diameter 4: on spiders with legs of
two nodes and unit weights it still bounds about 17 thousand pieces at
n = 21 and 107 thousand at n = 24. This is the ground-truth oracle for
every approximation and DP test and refuses instances above a configurable
node limit.
"""

from __future__ import annotations

import sys
from itertools import compress
from typing import Iterator

from .bounds import huffman
from .errors import DEFAULT_LIMIT, ResourceLimitError
from .greedy import greedy
from .model import DecisionNode, InputTree, Leaf, Query, cost as dt_cost

_BIT_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def _piece_weights(tree: InputTree, piece: int) -> Iterator[int]:
    """The weights of the nodes in ``piece``, by ascending id, in one C-level pass."""
    return compress(tree.weight, bin(piece)[:1:-1].encode().translate(_BIT_SELECTORS))


def _subtree_masks(tree: InputTree) -> list[int]:
    """Each T_v as an n-bit mask keyed by node id: O(n^2) bits, so only the oracle builds them."""
    mask = [1 << v for v in range(tree.n)]
    for u in tree.postorder:  # children before parents
        for c in tree.children[u]:
            mask[u] |= mask[c]
    return mask


def _splits(sub: list[int], piece: int) -> Iterator[tuple[int, int]]:
    """(x, inside) for each informative query x on ``piece``, by ascending id;
    ``inside`` is the part of the piece in x's subtree ``sub[x]`` (the YES side)."""
    m = piece
    while m:
        b = m & -m
        x = b.bit_length() - 1
        m ^= b
        inside = piece & sub[x]
        if inside != piece:  # else x is the piece's topmost node
            yield x, inside


class _Oracle:
    def __init__(self, tree: InputTree, limit: int = DEFAULT_LIMIT):
        if tree.n > limit:
            raise ResourceLimitError(
                f"instance has {tree.n} nodes, above the exact-solver limit {limit}"
            )
        self.tree = tree
        self.sub = _subtree_masks(tree)
        self.exact: dict[int, int] = {}  # piece -> optimal cost
        self.lower: dict[int, int] = {}  # piece -> proven lower bound, Huffman at first
        self.first: dict[int, int] = {}  # piece -> smallest optimal first query
        self.heights: dict[int, int] = {}
        # Each search recurses through a chain of shrinking pieces, n deep at most.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * tree.n + 1000))

    def _lb(self, piece: int) -> int:
        """LB(piece): its exact cost when known, else its best proven lower bound."""
        c = self.exact.get(piece)
        if c is not None:
            return c
        lb = self.lower.get(piece)
        if lb is None:
            lb = self.lower[piece] = huffman(_piece_weights(self.tree, piece))
        return lb

    def _search(self, piece: int, ub: int) -> int:
        """The optimal cost of ``piece`` when it is below ``ub``; otherwise
        a lower bound on it that is >= ``ub``."""
        if piece & (piece - 1) == 0:
            return 0
        c = self.exact.get(piece)
        if c is not None:
            return c
        lb = self._lb(piece)
        if lb >= ub:
            return lb
        total = sum(_piece_weights(self.tree, piece))
        order = sorted((self._lb(inside) + self._lb(piece ^ inside), inside)
                       for _, inside in _splits(self.sub, piece))
        best = ub - total  # the two sides must cost less than this together
        found = False
        for bound, inside in order:
            if bound >= best:
                break  # this split and every later one cost >= best
            outside = piece ^ inside
            cap = best - self._lb(outside)
            a = self._search(inside, cap)
            if a >= cap:
                continue
            b = self._search(outside, best - a)
            if a + b < best:
                best = a + b
                found = True
        if found:
            self.exact[piece] = total + best
            return total + best
        self.lower[piece] = ub
        return ub

    def _hits(self, piece: int, inside: int, target: int) -> bool:
        """Whether the split of ``piece`` into ``inside`` and the rest has
        optimal sides costing exactly ``target`` together, given that no
        split costs less."""
        outside = piece ^ inside
        cap = target - self._lb(outside)
        a = self._search(inside, cap + 1)
        return a <= cap and self._search(outside, target - a + 1) == target - a

    def cost(self, piece: int) -> int:
        """Optimal cost of ``piece``, searched under a known strategy's cost + 1:
        greedy's on the whole tree, else w(piece) * (|piece| - 1), since no
        leaf of a strategy is deeper than |piece| - 1."""
        c = self.exact.get(piece)
        if c is not None:
            return c
        if piece == (1 << self.tree.n) - 1:
            upper = dt_cost(greedy(self.tree), self.tree, check=False)
        else:
            upper = sum(_piece_weights(self.tree, piece)) * (bin(piece).count("1") - 1)
        return self._search(piece, upper + 1)

    def solve(self, piece: int) -> tuple[int, int]:
        """(optimal cost, smallest optimal first query) of ``piece``; the
        query is -1 on a single node."""
        if piece & (piece - 1) == 0:
            return 0, -1
        c = self.cost(piece)
        x = self.first.get(piece)
        if x is None:
            target = c - sum(_piece_weights(self.tree, piece))
            x = self.first[piece] = next(
                x for x, inside in _splits(self.sub, piece) if self._hits(piece, inside, target))
        return c, x

    def argmins(self, piece: int) -> list[int]:
        """Every optimal first query on ``piece``, by ascending id."""
        target = self.cost(piece) - sum(_piece_weights(self.tree, piece))  # both sides' optimal cost
        return [x for x, inside in _splits(self.sub, piece) if self._hits(piece, inside, target)]

    def min_height(self, piece: int) -> int:
        """Smallest height among the optimal decision trees of ``piece``.

        A tree is optimal exactly when its first query is optimal and both
        subtrees are optimal for their pieces, so only pieces reached through
        optimal splits are visited.
        """
        h = self.heights.get(piece)
        if h is None:
            h = 0 if piece & (piece - 1) == 0 else 1 + min(
                max(self.min_height(piece & self.sub[x]), self.min_height(piece & ~self.sub[x]))
                for x in self.argmins(piece))
            self.heights[piece] = h
        return h

    def build(self, piece: int) -> DecisionNode:
        _, x = self.solve(piece)
        if x < 0:
            return Leaf(piece.bit_length() - 1)
        inside = piece & self.sub[x]
        return Query(x, self.build(piece ^ inside), self.build(inside))


def opt_cost(tree: InputTree, limit: int = DEFAULT_LIMIT) -> tuple[int, DecisionNode]:
    """Exact optimum by memoized search over candidate pieces.

    Returns the optimal cost and one optimal decision tree (smallest-id
    first-query tie-breaking at every piece).
    """
    oracle = _Oracle(tree, limit)
    full = (1 << tree.n) - 1
    return oracle.cost(full), oracle.build(full)


def opt_cost_min_height(tree: InputTree, limit: int = DEFAULT_LIMIT) -> tuple[int, int]:
    """(optimal cost, smallest height among optimal decision trees)."""
    oracle = _Oracle(tree, limit)
    full = (1 << tree.n) - 1
    return oracle.solve(full)[0], oracle.min_height(full)
