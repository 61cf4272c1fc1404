"""Instance generators and exhaustive shape enumeration for test suites."""

from __future__ import annotations

import random
from typing import Iterator, Optional, Sequence

from .errors import InvalidInstanceError
from .model import InputTree


def path_tree(n: int, weights: Optional[Sequence[int]] = None) -> InputTree:
    _check_n(n)
    return InputTree([-1] + list(range(n - 1)), _weights(n, weights))


def star_tree(n: int, weights: Optional[Sequence[int]] = None) -> InputTree:
    _check_n(n)
    return InputTree([-1] + [0] * (n - 1), _weights(n, weights))


def complete_dary_tree(n: int, arity: int, weights: Optional[Sequence[int]] = None) -> InputTree:
    _check_n(n)
    if arity < 1:
        raise InvalidInstanceError("arity must be >= 1")
    return InputTree([-1] + [(v - 1) // arity for v in range(1, n)], _weights(n, weights))


def random_tree(n: int, seed: int, weight_range: tuple[int, int] = (1, 10)) -> InputTree:
    """Uniform random recursive tree with node ids shuffled, deterministic in
    the seed."""
    _check_n(n)
    lo, hi = weight_range
    if lo < 0 or hi < lo:
        raise InvalidInstanceError(f"bad weight range {lo}..{hi}")
    rng = random.Random(seed)
    labels = list(range(n))
    rng.shuffle(labels)
    parent = [-1] * n
    for pos in range(1, n):
        parent[labels[pos]] = labels[rng.randrange(pos)]
    weight = [rng.randint(lo, hi) for _ in range(n)]
    return InputTree(parent, weight)


def _check_n(n: int) -> None:
    if n <= 0:
        raise InvalidInstanceError("n must be positive")


def _weights(n: int, weights: Optional[Sequence[int]]) -> list[int]:
    if weights is None:
        return [1] * n
    if len(weights) != n:
        raise InvalidInstanceError("weight list length must equal n")
    return list(weights)


def all_tree_shapes(n: int) -> Iterator[tuple[int, ...]]:
    """Parent vectors of every rooted tree on n nodes, one per isomorphism
    class (Beyer-Hedetniemi level-sequence enumeration). Node ids follow the
    canonical preorder, the root is 0."""
    _check_n(n)
    if n == 1:
        yield (-1,)
        return
    levels = list(range(1, n + 1))  # the path
    while True:
        yield _levels_to_parents(levels)
        p = max((i for i in range(n) if levels[i] > 2), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        span = p - q
        for i in range(p, n):
            levels[i] = levels[i - span]


def _levels_to_parents(levels: Sequence[int]) -> tuple[int, ...]:
    parent = [-1] * len(levels)
    last_at_level: dict[int, int] = {}
    for i, lv in enumerate(levels):
        if lv > 1:
            parent[i] = last_at_level[lv - 1]
        last_at_level[lv] = i
    return tuple(parent)


# Weight profiles for the exhaustive suites.

def unit_weights(n: int) -> list[int]:
    return [1] * n


def seeded_weights(n: int, seed: int, hi: int = 10, lo: int = 1) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(n)]


def one_heavy_weights(n: int) -> list[int]:
    w = [1] * n
    w[n - 1] = 10 * n
    return w
