"""Brute-force optimal solver over candidate-set states.

The memo maps each reachable candidate piece (an n-bit set) to its optimal
cost and best first query; ties break toward the smallest query id so
outputs are deterministic. The set of optimal first queries and the minimal
height among optimal trees are read from the same memo. This is the
ground-truth oracle for every approximation and DP test, not a production
solver: it refuses instances above a configurable node limit.
"""

from __future__ import annotations

import sys
from typing import Iterator, Optional

from .errors import ResourceLimitError
from .model import DecisionNode, InputTree, Leaf, Query

DEFAULT_LIMIT = 20


def _splits(tree: InputTree, piece: int) -> Iterator[tuple[int, int]]:
    """(x, inside) for each informative query x on ``piece``, by ascending id;
    ``inside`` is the part of the piece in x's subtree (the YES side)."""
    sub = tree.subtree_mask
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
        self.sub = tree.subtree_mask
        self.w = tree.weight
        self.memo: dict[int, tuple[int, int]] = {}
        self.heights: dict[int, int] = {}
        self.capped: dict[tuple[int, int], Optional[int]] = {}
        # Each search recurses through a chain of shrinking pieces, n deep at most.
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * tree.n + 1000))

    def solve(self, piece: int) -> tuple[int, int]:
        memo = self.memo
        hit = memo.get(piece)
        if hit is not None:
            return hit
        if piece & (piece - 1) == 0:
            memo[piece] = (0, -1)
            return memo[piece]
        sub = self.sub
        w = self.w
        total = 0
        m = piece
        while m:
            b = m & -m
            total += w[b.bit_length() - 1]
            m ^= b
        best = None
        best_x = -1
        m = piece
        while m:
            b = m & -m
            x = b.bit_length() - 1
            m ^= b
            inside = piece & sub[x]
            if inside == piece:
                continue  # x is the piece's topmost node; the query is uninformative
            c = self.solve(inside)[0] + self.solve(piece ^ inside)[0]
            if best is None or c < best:
                best, best_x = c, x
        memo[piece] = (total + best, best_x)
        return memo[piece]

    def argmins(self, piece: int) -> list[int]:
        """Every optimal first query on ``piece``, by ascending id."""
        below = self.solve(piece)[0] - self.tree.mask_weight(piece)  # both sides' optimal cost
        return [x for x, inside in _splits(self.tree, piece)
                if self.solve(inside)[0] + self.solve(piece ^ inside)[0] == below]

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

    def solve_capped(self, piece: int, h: int) -> Optional[int]:
        """Optimal cost of ``piece`` within height ``h``, None if none fits."""
        if piece & (piece - 1) == 0:
            return 0
        if h <= 0:
            return None
        # Deeper budgets than the piece size never bind.
        h = min(h, bin(piece).count("1") - 1)
        key = (piece, h)
        if key in self.capped:
            return self.capped[key]
        best = None
        for _, inside in _splits(self.tree, piece):
            a = self.solve_capped(inside, h - 1)
            if a is None:
                continue
            b = self.solve_capped(piece ^ inside, h - 1)
            if b is not None and (best is None or a + b < best):
                best = a + b
        self.capped[key] = None if best is None else self.tree.mask_weight(piece) + best
        return self.capped[key]

    def build(self, piece: int) -> DecisionNode:
        _, x = self.memo[piece]
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
    full = tree.full_mask()
    c, _ = oracle.solve(full)
    return c, oracle.build(full)


def opt_cost_restricted_height(tree: InputTree, height: int, limit: int = DEFAULT_LIMIT) -> Optional[int]:
    """Optimal cost among decision trees of height <= ``height``.

    Returns None when no such tree exists (fewer than 2**height leaves fit).
    """
    return _Oracle(tree, limit).solve_capped(tree.full_mask(), height)


def opt_cost_min_height(tree: InputTree, limit: int = DEFAULT_LIMIT) -> tuple[int, int]:
    """(optimal cost, smallest height among optimal decision trees)."""
    oracle = _Oracle(tree, limit)
    full = tree.full_mask()
    return oracle.solve(full)[0], oracle.min_height(full)


def optimal_first_queries(tree: InputTree, limit: int = DEFAULT_LIMIT) -> frozenset[int]:
    """All first queries achieving the optimum (argmin set at the root piece)."""
    return frozenset(_Oracle(tree, limit).argmins(tree.full_mask()))


def enumerate_decision_trees(tree: InputTree, piece: Optional[int] = None) -> Iterator[DecisionNode]:
    """Every valid decision tree for the instance; only sane for n <= 6."""
    if piece is None:
        piece = tree.full_mask()

    def gen(mask: int) -> Iterator[DecisionNode]:
        if mask & (mask - 1) == 0:
            yield Leaf(mask.bit_length() - 1)
            return
        for x, inside in _splits(tree, mask):
            for no_side in gen(mask ^ inside):
                for yes_side in gen(inside):
                    yield Query(x, no_side, yes_side)

    return gen(piece)
