"""Brute-force optimal solver over candidate-set states.

The memo maps each reachable candidate piece (an n-bit set) to its optimal
cost and best first query; ties break toward the smallest query id so
outputs are deterministic. This is the ground-truth oracle for every
approximation and DP test, not a production solver: it refuses instances
above a configurable node limit.
"""

from __future__ import annotations

import sys
from typing import Iterator, Optional

from .errors import ResourceLimitError
from .model import DecisionNode, InputTree, Leaf, Query

DEFAULT_LIMIT = 20


def _check_size(tree: InputTree, limit: int) -> None:
    if tree.n > limit:
        raise ResourceLimitError(
            f"instance has {tree.n} nodes, above the exact-solver limit {limit}"
        )


class _Oracle:
    def __init__(self, tree: InputTree):
        self.tree = tree
        self.sub = tree.subtree_mask
        self.w = tree.weight
        self.memo: dict[int, tuple[int, int]] = {}
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
    _check_size(tree, limit)
    oracle = _Oracle(tree)
    full = tree.full_mask()
    c, _ = oracle.solve(full)
    return c, oracle.build(full)


def opt_cost_restricted_height(tree: InputTree, height: int, limit: int = DEFAULT_LIMIT) -> Optional[int]:
    """Optimal cost among decision trees of height <= ``height``.

    Returns None when no such tree exists (fewer than 2**height leaves fit).
    """
    _check_size(tree, limit)
    sub = tree.subtree_mask
    memo: dict[tuple[int, int], Optional[int]] = {}
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * tree.n + 1000))

    def solve(piece: int, h: int) -> Optional[int]:
        if piece & (piece - 1) == 0:
            return 0
        if h <= 0:
            return None
        # Deeper budgets than the piece size never bind.
        h = min(h, bin(piece).count("1") - 1)
        key = (piece, h)
        if key in memo:
            return memo[key]
        total = tree.mask_weight(piece)
        best = None
        m = piece
        while m:
            b = m & -m
            x = b.bit_length() - 1
            m ^= b
            inside = piece & sub[x]
            if inside == piece:
                continue
            a = solve(inside, h - 1)
            if a is None:
                continue
            bcost = solve(piece ^ inside, h - 1)
            if bcost is None:
                continue
            c = a + bcost
            if best is None or c < best:
                best = c
        memo[key] = None if best is None else total + best
        return memo[key]

    return solve(tree.full_mask(), height)


def opt_cost_min_height(tree: InputTree, limit: int = DEFAULT_LIMIT) -> tuple[int, int]:
    """(optimal cost, smallest height among optimal decision trees)."""
    _check_size(tree, limit)
    sub = tree.subtree_mask
    memo: dict[int, tuple[int, int]] = {}
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * tree.n + 1000))

    def solve(piece: int) -> tuple[int, int]:
        hit = memo.get(piece)
        if hit is not None:
            return hit
        if piece & (piece - 1) == 0:
            memo[piece] = (0, 0)
            return memo[piece]
        total = tree.mask_weight(piece)
        best_c = None
        best_h = None
        m = piece
        while m:
            b = m & -m
            x = b.bit_length() - 1
            m ^= b
            inside = piece & sub[x]
            if inside == piece:
                continue
            c1, h1 = solve(inside)
            c0, h0 = solve(piece ^ inside)
            c = c0 + c1
            h = 1 + max(h0, h1)
            if best_c is None or c < best_c or (c == best_c and h < best_h):
                best_c, best_h = c, h
        memo[piece] = (total + best_c, best_h)
        return memo[piece]

    c, h = solve(tree.full_mask())
    return c, h


def optimal_first_queries(tree: InputTree, limit: int = DEFAULT_LIMIT) -> frozenset[int]:
    """All first queries achieving the optimum (argmin set at the root piece)."""
    _check_size(tree, limit)
    oracle = _Oracle(tree)
    full = tree.full_mask()
    best, _ = oracle.solve(full)
    if tree.n == 1:
        return frozenset()
    total = tree.total_weight
    out = set()
    for x in range(tree.n):
        inside = full & tree.subtree_mask[x]
        if inside == full:
            continue
        c = total + oracle.solve(inside)[0] + oracle.solve(full ^ inside)[0]
        if c == best:
            out.add(x)
    return frozenset(out)


def enumerate_decision_trees(tree: InputTree, piece: Optional[int] = None) -> Iterator[DecisionNode]:
    """Every valid decision tree for the instance; only sane for n <= 6."""
    sub = tree.subtree_mask
    if piece is None:
        piece = tree.full_mask()

    def gen(mask: int) -> Iterator[DecisionNode]:
        if mask & (mask - 1) == 0:
            yield Leaf(mask.bit_length() - 1)
            return
        m = mask
        while m:
            b = m & -m
            x = b.bit_length() - 1
            m ^= b
            inside = mask & sub[x]
            if inside == mask:
                continue
            for no_side in gen(mask ^ inside):
                for yes_side in gen(inside):
                    yield Query(x, no_side, yes_side)

    return gen(piece)
