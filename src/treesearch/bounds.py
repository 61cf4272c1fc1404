"""Lower bounds on the cost of a search strategy from its weights alone.

A decision tree for a piece of p nodes is a full binary tree with p leaves,
one per node (every query is informative, so both of its sides are
non-empty), and its cost is the sum of w(v) * depth(leaf v). Any such cost
is therefore at least the least weighted path length of a full binary tree
over the same weights, whatever the piece's shape:

* ``huffman(weights)``: the minimum over all full binary trees (Huffman
  1952);
* ``tall_huffman(weights, height)``: the minimum over full binary trees of
  height >= ``height``, a lower bound on every strategy that tall.

Both are exact integer arithmetic on non-negative weights.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable


def huffman(weights: Iterable[int]) -> int:
    """Least sum of w * depth over full binary trees whose leaves carry ``weights``."""
    heap = list(weights)
    heapq.heapify(heap)
    total = 0
    while len(heap) > 1:
        merged = heapq.heappop(heap) + heapq.heappop(heap)
        total += merged
        heapq.heappush(heap, merged)
    return total


def tall_huffman(weights: Iterable[int], height: int) -> int:
    """TH(height): least sum of w * depth over full binary trees of height
    >= ``height`` whose leaves carry ``weights``.

    For a fixed tree shape, putting heavier weights on shallower leaves is
    optimal: swapping weights w1 >= w2 on leaves at depths d1 > d2 changes
    the cost by (w1 - w2) * (d2 - d1) <= 0. So a shape is scored by its
    number of leaves per level, and the weights fill the levels heaviest
    first. The DP walks the levels top-down with the state (open slots on
    the level, leaves placed so far). It closes j of the s slots as the
    next j heaviest leaves and opens 2 * (s - j) slots below. Each level
    then adds the weight not yet placed, so a leaf at depth d is counted
    once on each of the d levels above it. Keeping at least one slot open
    on every level above depth ``height`` is what makes the tree that tall.
    Slots never exceed the leaves still to place, so a level has O(n^2)
    states and the DP takes O(n^4) time at worst.

    For height <= ceil(log2 n) every full binary tree qualifies and TH
    equals ``huffman``. No full binary tree with n leaves is taller than
    n - 1, so a larger height raises ValueError.
    """
    heavy = sorted(weights, reverse=True)
    n = len(heavy)
    if height > max(n - 1, 0):
        raise ValueError(f"no full binary tree with {n} leaves has height {height}")
    if n <= 1:
        return 0
    placed = [0, *itertools.accumulate(heavy)]  # placed[k]: the k heaviest
    rest = [placed[n] - p for p in placed]      # weight left after k placed
    best = None
    level = {(1, 0): 0}  # (open slots, leaves placed) -> least cost so far
    depth = 0
    while level:
        below: dict[tuple[int, int], int] = {}
        for (s, k), c in level.items():
            # Close j slots as leaves; the other s - j become queries.
            for j in range(min(s, n - k) + 1):
                q = s - j
                if q == 0:
                    if depth >= height and k + j == n and (best is None or c < best):
                        best = c
                    continue
                if 2 * q > n - k - j:
                    continue  # each open slot needs a leaf of its own
                key = (2 * q, k + j)
                cost = c + rest[k + j]
                old = below.get(key)
                if old is None or cost < old:
                    below[key] = cost
        level = below
        depth += 1
    return best
