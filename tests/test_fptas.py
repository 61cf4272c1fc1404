import random
import time
from fractions import Fraction

import pytest

from treesearch import InputTree, bounded_dp, cost, fptas, opt_cost, scale_weights, tree_diameter, validate
from treesearch.gen import all_tree_shapes, random_tree


def test_scale_formula_fixture():
    # n=4, W=100, eps=1/2: K = 25/8, ceil(100/K) = 32.
    t = InputTree([-1, 0, 0, 0], [100, 1, 1, 1])
    scaled = scale_weights(t, Fraction(1, 2))
    assert scaled.weight[0] == 32
    assert all(w == 1 for w in scaled.weight[1:])


def test_scale_zero_weight_stays_zero():
    t = InputTree([-1, 0], [7, 0])
    assert scale_weights(t, Fraction(1, 3)).weight[1] == 0


def test_scale_uniform_collapses_to_ceil_n2_over_eps():
    t = InputTree([-1, 0, 1, 0], [6, 6, 6, 6])
    scaled = scale_weights(t, Fraction(1, 2))
    assert set(scaled.weight) == {32}  # ceil(n^2 / eps)


def test_scale_all_zero_identity():
    t = InputTree([-1, 0], [0, 0])
    assert scale_weights(t, Fraction(1, 2)) is t


def test_scaling_soundness_bounds():
    # w <= K * w' <= w + K for every node (K > 0).
    rng = random.Random(16)
    for _ in range(20):
        t = random_tree(rng.randint(2, 12), rng.randrange(10**6), (0, 50))
        if max(t.weight) == 0:
            continue
        eps = Fraction(rng.randint(1, 5), rng.randint(1, 7))
        k = eps * max(t.weight) / (t.n * t.n)
        scaled = scale_weights(t, eps)
        for w, ws in zip(t.weight, scaled.weight):
            assert w <= k * ws <= w + k
        assert sum(scaled.weight) <= t.n * (t.n * t.n / eps + 1)


def test_rejects_nonpositive_eps(path3):
    with pytest.raises(ValueError):
        fptas(path3, 0)


@pytest.mark.parametrize("call", [fptas, scale_weights])
def test_rejects_huge_eps_exponent_at_once(path3, call):
    # Fraction would compute 10 ** 999999999 before reading the sign.
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exponent must be below"):
        call(path3, "1e-999999999")
    assert time.perf_counter() - t0 < 1.0


def test_star_fixture_guarantee(star4):
    strategy, c = fptas(star4, Fraction(1, 2))
    assert validate(strategy, star4).ok
    assert c == cost(strategy, star4)
    assert c <= Fraction(3, 2) * 10
    assert c == 10  # observed: scaling preserves the optimum here


def test_huge_eps_still_valid(star4):
    strategy, c = fptas(star4, 10**6)
    assert validate(strategy, star4).ok


def test_guarantee_exhaustive_small():
    rng = random.Random(17)
    for n in range(1, 7):
        for parents in all_tree_shapes(n):
            t = InputTree(parents, [rng.randint(1, 30) for _ in range(n)])
            best = opt_cost(t)[0]
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
                _, c = fptas(t, eps)
                assert c <= (1 + eps) * best


def test_scaled_instance_solved_within_rho():
    # fptas scales with eps/2 and stops at the first budget certified within
    # rho = (1 + eps) / (1 + eps/2) of optimal for those weights.
    rng = random.Random(18)
    for _ in range(10):
        t = random_tree(rng.randint(2, 8), rng.randrange(10**6), (1, 40))
        eps = Fraction(1, 3)
        scaled = scale_weights(t, eps / 2)
        strategy, _ = fptas(t, eps)
        assert cost(strategy, scaled) <= (1 + eps) / (1 + eps / 2) * opt_cost(scaled)[0]


def test_stops_at_first_certified_budget(monkeypatch):
    # A diameter-4 tree with n = 10 on which the exact stop for the scaled
    # weights needs budgets 5..8; the ratio stop accepts the first, B = 5.
    budgets = []
    solve = bounded_dp.solve_pb

    def recording(tree, forest, plp, budget):
        budgets.append(budget)
        return solve(tree, forest, plp, budget)

    monkeypatch.setattr(bounded_dp, "solve_pb", recording)
    t = InputTree([-1, 0, 0, 0, 1, 3, 2, 0, 2, 3], [3, 3, 5, 2, 6, 5, 10, 10, 1, 10])
    assert tree_diameter(t) == 4
    strategy, c = fptas(t, Fraction(1, 2))
    assert budgets == [5]
    assert validate(strategy, t).ok
    assert c == cost(strategy, t) <= Fraction(3, 2) * opt_cost(t)[0]
