"""FPTAS by weight scaling around the bounded-height exact solver.

Scaling divides every weight by K = eps * W / n^2 (W the maximum weight) and
rounds up, all in exact rational arithmetic, so the scaled instance has
total weight at most n * (n^2/eps + 1) and the exact solver becomes
polynomial for bounded degree. Solving the scaled instance exactly and
costing the result under the original weights is (1 + eps)-optimal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .bounded_dp import DEFAULT_HEIGHT_CAP, optimal_bounded
from .model import DecisionNode, InputTree, cost

Epsilon = Union[Fraction, int, str]


def _as_fraction(eps: Epsilon) -> Fraction:
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


def scale_weights(tree: InputTree, eps: Epsilon) -> InputTree:
    """Round each weight up to a multiple of K = eps*W/n^2 (counted in K units).

    All-zero instances scale to themselves: any valid tree is optimal there.
    """
    eps = _as_fraction(eps)
    peak = max(tree.weight)
    if peak == 0:
        return tree
    # ceil(w * n^2 / (eps * W)) exactly.
    num = tree.n * tree.n * eps.denominator
    den = eps.numerator * peak
    scaled = [-(-w * num // den) for w in tree.weight]
    return InputTree(tree.parent, scaled, tree.children)


def fptas(
    tree: InputTree,
    eps: Epsilon,
    cap: int = DEFAULT_HEIGHT_CAP,
    budget: Optional[int] = None,
) -> tuple[DecisionNode, int]:
    """(1 + eps)-approximate search tree, costed under the original weights.

    ``budget`` and ``cap`` pass to ``optimal_bounded`` on the scaled
    instance: an explicit budget runs the DP once; the default deepens from
    ceil(log2 n) + 1 and keeps the first result certified optimal for the
    scaled weights, which is all the (1 + eps) guarantee needs.
    """
    scaled = scale_weights(tree, eps)
    _, strategy = optimal_bounded(scaled, budget=budget, cap=cap)
    return strategy, cost(strategy, tree)
