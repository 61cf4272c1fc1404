import itertools
import random
import sys

import pytest

from treesearch import (
    BLOCKED,
    UNASSIGNED,
    InfeasibleError,
    InputTree,
    ResourceLimitError,
    cost,
    deep_cost_bound,
    enumerate_decision_trees,
    est_compatible,
    est_cost,
    est_height,
    est_to_search_tree,
    format_decision_tree,
    height_bound,
    opt_cost,
    optimal_bounded,
    search_tree_to_est,
    solve_pb,
    tree_height,
    validate,
    validate_est,
)
from treesearch import bounded_dp
from treesearch.bounded_dp import forest_mask
from treesearch.gen import all_tree_shapes, random_tree

U, B = UNASSIGNED, BLOCKED


def all_plps(max_len):
    for length in range(1, max_len + 1):
        for cells in itertools.product((U, B), repeat=length):
            yield cells


class TestBaseCase:
    def test_first_unassigned_cell(self):
        t = InputTree([-1], [5])
        sol = solve_pb(t, ("T", 0), (U, B, U), 3)
        assert sol.cost == 5  # first unassigned cell is cell 1

    def test_cost_is_cell_index_times_weight(self):
        t = InputTree([-1], [3])
        for plp in all_plps(5):
            sol = solve_pb(t, ("T", 0), plp, 6)
            first = next((i for i, c in enumerate(plp) if c is U), None)
            if first is None:
                assert sol is None
            else:
                assert sol.cost == (first + 1) * 3
                assert est_compatible(sol.est, plp)
                assert validate_est(sol.est, t, forest_mask(t, ("T", 0))).ok

    def test_all_blocked_infeasible(self):
        t = InputTree([-1], [5])
        assert solve_pb(t, ("T", 0), (B, B), 4) is None


class TestSubproblems:
    def test_path_est_cost_and_conversion(self, path3):
        plp = (U, U, U, U)
        sol = solve_pb(path3, ("T", 0), plp, 4)
        assert sol.cost == 5 + path3.weight[0]  # optimum plus one root-leaf level
        assert est_compatible(sol.est, plp)
        assert validate_est(sol.est, path3).ok
        converted = est_to_search_tree(sol.est, path3)
        assert cost(converted, path3) == 5

    def test_forest_split_additivity(self, star4):
        # The forest value equals the best split of unassigned cells between
        # the last tree and the rest.
        plp = (U, U, U, U)
        budget = 4
        whole = solve_pb(star4, ("F", 0, 3), plp, budget)
        best = None
        cells = list(range(len(plp)))
        for r in range(1, len(cells)):
            for chosen in itertools.combinations(cells, r):
                pf = tuple(U if i in chosen else B for i in cells)
                po = tuple(B if i in chosen or plp[i] is B else U for i in cells)
                a = solve_pb(star4, ("T", 3), pf, budget)
                b = solve_pb(star4, ("F", 0, 2), po, budget)
                if a is not None and b is not None:
                    cand = a.cost + b.cost
                    best = cand if best is None or cand < best else best
        assert whole.cost == best

    def test_tree_case_characterization(self, path3):
        # The tree value equals the best (cell, leaf level) placement.
        budget = 4
        plp = (U, U, U, U)
        whole = solve_pb(path3, ("T", 0), plp, budget)
        w0 = path3.weight[0]
        best = None
        for pos in range(len(plp)):
            for t in range(pos + 1, budget + 1):
                child_plp = tuple(plp[:pos]) + (B,) + (U,) * (t - pos - 1)
                sub = solve_pb(path3, ("F", 0, 1), child_plp, budget)
                if sub is not None:
                    cand = sub.cost + t * w0
                    best = cand if best is None or cand < best else best
        assert whole.cost == best

    def test_compatibility_and_height_always_hold(self):
        rng = random.Random(11)
        for _ in range(20):
            t = random_tree(rng.randint(1, 6), rng.randrange(10**6), (0, 5))
            budget = t.n + rng.randint(0, 2)
            length = rng.randint(1, budget)
            plp = tuple(B if rng.random() < 0.3 else U for _ in range(length))
            sol = solve_pb(t, ("T", t.root), plp, budget)
            if sol is not None:
                assert est_compatible(sol.est, plp)
                assert est_height(sol.est) <= budget
                assert validate_est(sol.est, t).ok
                assert est_cost(sol.est, t) == sol.cost


class TestConversion:
    def test_round_trip_adds_root_weight(self):
        rng = random.Random(12)
        for _ in range(15):
            t = random_tree(rng.randint(1, 9), rng.randrange(10**6), (1, 9))
            _, strategy = opt_cost(t)
            est = search_tree_to_est(strategy, t)
            assert validate_est(est, t).ok
            assert est_cost(est, t) == cost(strategy, t) + t.weight[t.root]
            back = est_to_search_tree(est, t)
            assert cost(back, t) == cost(strategy, t)

    def test_round_trip_tall_star(self, star1500, default_recursion_limit):
        tree, strategy = star1500
        est = search_tree_to_est(strategy, tree)
        assert sys.getrecursionlimit() == default_recursion_limit
        assert est_cost(est, tree) == cost(strategy, tree) + tree.weight[tree.root]
        back = est_to_search_tree(est, tree)
        assert sys.getrecursionlimit() == default_recursion_limit
        assert format_decision_tree(back) == format_decision_tree(strategy)

    def test_pure_reroot_equality(self, path3):
        sol = solve_pb(path3, ("T", 0), (U, U, U, U), 4)
        converted = est_to_search_tree(sol.est, path3)
        # l_root sits directly under its query here, so the drop is exactly w(root).
        assert cost(converted, path3) == sol.cost - path3.weight[0]


class TestHeightBound:
    def test_formula_fixture(self, path3):
        # max_children 1, w(T) 3, n 3: 13*2 + 2*2 + 2.
        assert height_bound(path3) == 32

    def test_single_node(self):
        t = InputTree([-1], [0])
        assert height_bound(t) >= 1
        assert optimal_bounded(t) == (0, opt_cost(t)[1])

    def test_optimal_height_below_bound_small(self):
        from treesearch import opt_cost_min_height

        rng = random.Random(14)
        for n in range(1, 7):
            for parents in all_tree_shapes(n):
                t = InputTree(parents, [rng.randint(1, 9) for _ in range(n)])
                _, h = opt_cost_min_height(t)
                assert h < height_bound(t)


class TestOptimalBounded:
    def test_fixtures(self, path3, star4):
        assert optimal_bounded(path3)[0] == 5
        assert optimal_bounded(star4)[0] == 10

    def test_monotone_in_budget(self, star4):
        costs = []
        for budget in range(2, 7):
            try:
                c, strategy = optimal_bounded(star4, budget=budget)
            except InfeasibleError:
                continue
            assert validate(strategy, star4).ok
            costs.append(c)
        assert costs == sorted(costs, reverse=True)
        assert costs[-1] == 10

    def test_infeasible_budget(self, star4):
        with pytest.raises(InfeasibleError):
            optimal_bounded(star4, budget=2)  # 4 leaves cannot fit an EST of height 2

    def test_cap_guard(self):
        t = random_tree(30, 1, (1, 5))
        with pytest.raises(ResourceLimitError):
            optimal_bounded(t)

    def test_matches_oracle_small(self):
        rng = random.Random(15)
        for n in range(1, 7):
            for parents in all_tree_shapes(n):
                t = InputTree(parents, [rng.randint(0, 9) for _ in range(n)])
                assert optimal_bounded(t)[0] == opt_cost(t)[0]

    def test_matches_oracle_with_many_zero_weights(self):
        rng = random.Random(16)
        for n in range(2, 8):
            for parents in all_tree_shapes(n):
                t = InputTree(parents, [rng.choice([0, 0, 0, 1, 3]) for _ in range(n)])
                assert optimal_bounded(t)[0] == opt_cost(t)[0]


class TestDeepening:
    def test_deep_cost_bound_is_sound(self):
        # Every search tree of height h >= B costs at least LB(B); zero
        # weights included.
        rng = random.Random(17)
        checked = 0
        for n in range(1, 7):
            for parents in all_tree_shapes(n):
                t = InputTree(parents, [rng.choice([0, 0, 1, 2, 9]) for _ in range(n)])
                for strategy in enumerate_decision_trees(t):
                    c, h = cost(strategy, t), tree_height(strategy)
                    for budget in range(1, h + 1):
                        assert c >= deep_cost_bound(t, budget), (parents, t.weight, budget)
                        checked += 1
        assert checked > 1000

    def test_default_matches_oracle_through_both_exits(self, monkeypatch):
        # Zero and skewed weights weaken the bound until the DP falls back to
        # its top budget; moderate weights let a smaller budget certify.
        budgets = []
        solve = bounded_dp.solve_pb

        def recording(tree, forest, plp, budget):
            budgets.append(budget)
            return solve(tree, forest, plp, budget)

        monkeypatch.setattr(bounded_dp, "solve_pb", recording)
        rng = random.Random(18)
        profiles = (
            lambda: rng.choice([0, 0, 0, 1, 3]),
            lambda: rng.choice([1, 1, 1, 1000]),
            lambda: rng.randint(1, 10),
        )
        exits = set()
        for n in list(range(2, 11)) + [12]:
            for profile in profiles if n < 12 else profiles[:1]:
                parents = random_tree(n, rng.randrange(10**6), (1, 1)).parent
                t = InputTree(parents, [profile() for _ in range(n)])
                budgets.clear()
                c, strategy = optimal_bounded(t)
                assert validate(strategy, t).ok
                assert c == cost(strategy, t) == opt_cost(t)[0], (parents, t.weight)
                fell_back = budgets[-1] == min(height_bound(t), n)
                exits.add("top" if fell_back else "certified")
        assert exits == {"top", "certified"}
