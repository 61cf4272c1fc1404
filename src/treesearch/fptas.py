"""FPTAS by weight scaling around the bounded-height exact solver.

Scaling divides every weight by K = eps * W / n^2 (W the maximum weight) and
rounds up, all in exact rational arithmetic, so the scaled instance has
total weight at most n * (n^2/eps + 1) and the exact solver becomes
polynomial for bounded degree. ``fptas`` scales with eps/2 and lets the
solver stop at the first height budget that certifies its result within
(1 + eps) / (1 + eps/2) of optimal for the scaled weights; costed under the
original weights, the result is (1 + eps)-optimal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import bounded_dp
from .io import _parse_eps
from .model import DecisionNode, InputTree, cost

if TYPE_CHECKING:
    from fractions import Fraction


def scale_weights(tree: InputTree, eps: Fraction | int | str) -> InputTree:
    """Round each weight up to a multiple of K = eps*W/n^2 (counted in K units).

    All-zero instances scale to themselves: any valid tree is optimal there.
    """
    eps = _parse_eps(eps)
    peak = max(tree.weight)
    if peak == 0:
        return tree
    # ceil(w * n^2 / (eps * W)) exactly.
    num = tree.n * tree.n * eps.denominator
    den = eps.numerator * peak
    scaled = [-(-w * num // den) for w in tree.weight]
    return InputTree(tree.parent, scaled, tree.children)


def fptas(tree: InputTree, eps: Fraction | int | str) -> tuple[DecisionNode, int]:
    """(1 + eps)-approximate search tree, costed under the original weights.

    The weights are scaled with eps/2 (``scale_weights``), and
    ``optimal_bounded`` runs on the scaled instance: it deepens from
    ceil(log2 n) + 1 and keeps the first result whose certified ratio is at
    most rho = (1 + eps) / (1 + eps/2). Like ``optimal_bounded``, it raises
    ResourceLimitError before the DP runs when the scaled tree's budget
    min(height_bound, n) is above the DP's height cap.

    Why that is (1 + eps)-optimal: let w' be the scaled weights, K =
    (eps/2) * W / n^2, S the result and S* an optimal tree for w, of cost
    OPT. S is within rho of optimal for the eps/2-scaled weights, and
    w <= K * w' <= w + K node by node, with every depth at most n - 1, so
    cost_w(S) <= K * cost_w'(S) <= rho * K * cost_w'(S*) <=
    rho * (OPT + K * n * (n - 1)). Here K * n * (n - 1) < (eps/2) * W <=
    (eps/2) * OPT, since for n >= 2 the heaviest node sits at depth >= 1.
    So cost_w(S) <= rho * (1 + eps/2) * OPT = (1 + eps) * OPT.
    """
    eps = _parse_eps(eps)
    half = eps / 2
    scaled = scale_weights(tree, half)
    _, strategy = bounded_dp.optimal_bounded(scaled, ratio=(1 + eps) / (1 + half))
    return strategy, cost(strategy, tree)
