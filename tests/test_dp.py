import copy
import itertools
import pickle
import random
import sys
from fractions import Fraction
from typing import Optional

import pytest

from treesearch import (
    BLOCKED,
    UNASSIGNED,
    ESTNode,
    InfeasibleError,
    InputTree,
    Leaf,
    PBSolution,
    ResourceLimitError,
    cost,
    deep_cost_bound,
    est_cost,
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
from treesearch.bounds import huffman, tall_huffman
from treesearch.bounded_dp import Assignment, SubforestId, _plp_to_bits, est_iter
from treesearch.exact import _subtree_masks
from treesearch.gen import all_tree_shapes, one_heavy_weights, path_tree, random_tree, seeded_weights, unit_weights
from treesearch.model import Diagnostics

from conftest import enumerate_decision_trees, subtree_nodes

U, B = UNASSIGNED, BLOCKED


def forest_nodes(tree, fid: SubforestId) -> frozenset[int]:
    """The node set of a subforest id: T_v for ("T", v), the first f child
    subtrees of u for ("F", u, f)."""
    tops = [fid[1]] if fid[0] == "T" else tree.children[fid[1]][:fid[2]]
    return frozenset(v for top in tops for v in subtree_nodes(tree, top))


def est_height(root):
    return max(d for _, d in est_iter(root))


def left_path(root):
    out = []
    node = root
    while node is not None:
        out.append(node)
        node = node.left
    return out


def est_compatible(root, plp):
    """Left-path length equals |P| and blocked cells of P are blocked in it."""
    lp = left_path(root)
    if len(lp) != len(plp):
        return False
    return all(node.assignment is BLOCKED for node, cell in zip(lp, plp) if cell is BLOCKED)


def _path_bound(tree, height):
    """The certificate before tall Huffman: w(T) + sum over s = 2..height of
    the s smallest weights."""
    smallest = list(itertools.accumulate(sorted(tree.weight)))
    return tree.total_weight + sum(smallest[1:height])


def all_plps(max_len):
    for length in range(1, max_len + 1):
        for cells in itertools.product((U, B), repeat=length):
            yield cells


def _id_mask(nodes):
    """A node set as a mask keyed by node id; a negative id has no bit."""
    return sum(1 << v for v in set(nodes) if v >= 0)


def _reference_est_cost(root, tree, forest_mask=None):
    """``est_cost`` on a forest mask keyed by node id, as it was before
    forests were node sets; both must give the same cost."""
    if forest_mask is None:
        forest_mask = (1 << tree.n) - 1
    total = 0
    for node, d in bounded_dp.est_iter(root):
        a = node.assignment
        is_leaf = node.left is None and node.right is None
        if is_leaf and isinstance(a, int) and 0 <= a < tree.n and forest_mask >> a & 1:
            total += d * tree.weight[a]
    return total


def _reference_validate_est(root, tree, forest_mask=None):
    """``validate_est`` on n-bit subtree masks keyed by node id, as it was
    before the preorder-position masks, except that an assignment outside
    0..n-1 counts as outside the forest (a negative one made the id shift
    raise); both must give the same ``Diagnostics``."""
    if forest_mask is None:
        forest_mask = (1 << tree.n) - 1
    sub_masks = _subtree_masks(tree)
    violations = []
    leaves = {}
    internals = {}
    stack = [(root, forest_mask)]
    while stack:
        node, allowed = stack.pop()
        a = node.assignment
        is_leaf = node.left is None and node.right is None
        if isinstance(a, int):
            if not (0 <= a < tree.n and forest_mask >> a & 1):
                violations.append(f"assignment {a} outside the forest")
                continue
            if not allowed >> a & 1:
                violations.append(f"node assigned {a} violates the search property")
            if is_leaf:
                leaves[a] = leaves.get(a, 0) + 1
            else:
                internals[a] = internals.get(a, 0) + 1
            sub = sub_masks[a]
            if node.right is not None:
                stack.append((node.right, allowed & sub))
            if node.left is not None:
                stack.append((node.left, allowed & ~sub))
        elif a is BLOCKED or a is UNASSIGNED:
            if node.right is not None:
                violations.append("placeholder node has a right child")
            if node.left is not None:
                stack.append((node.left, allowed))
        else:
            violations.append(f"unexpected assignment {a!r}")
    for v in range(tree.n):
        if forest_mask >> v & 1:
            if leaves.get(v, 0) != 1:
                violations.append(f"node {v} appears as a leaf {leaves.get(v, 0)} times")
            if internals.get(v, 0) != 1:
                violations.append(f"node {v} appears as an internal node {internals.get(v, 0)} times")
    return Diagnostics(not violations, violations)


class _ReferencePB:
    """The DP as it was before its tables were filled bottom-up, kept unchanged
    as the reference that ``solve_pb`` must match. Memoized solver for the (subforest, PLP) subproblems at a fixed height
    budget B. Values are (cost, choice); choices reconstruct the EST."""

    def __init__(self, tree: InputTree, budget: int):
        self.tree = tree
        self.B = budget
        self.memo: dict[tuple, Optional[tuple[int, tuple]]] = {}
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 20 * (tree.n + budget) + 1000))

    def _canon(self, fid: SubforestId) -> SubforestId:
        if fid[0] == "F" and fid[2] == 1:
            return ("T", self.tree.children[fid[1]][0])
        return fid

    def solve(self, fid: SubforestId, length: int, blocked: int) -> Optional[tuple[int, tuple]]:
        fid = self._canon(fid)
        key = (fid, length, blocked)
        memo = self.memo
        if key in memo:
            return memo[key]
        un = ~blocked & ((1 << length) - 1)
        result: Optional[tuple[int, tuple]] = None
        if un:
            if fid[0] == "T":
                v = fid[1]
                kids = self.tree.children[v]
                if not kids:
                    pos = (un & -un).bit_length() - 1
                    result = ((pos + 1) * self.tree.weight[v], ("base", pos))
                else:
                    result = self._case_tree(v, len(kids), blocked, un)
            else:
                result = self._case_forest(fid[1], fid[2], length, blocked, un)
        memo[key] = result
        return result

    def _case_tree(self, v: int, deg: int, blocked: int, un: int):
        B = self.B
        wv = self.tree.weight[v]
        best = None
        choice = None
        m = un
        while m:
            b = m & -m
            pos = b.bit_length() - 1
            m ^= b
            child_blocked = (blocked & (b - 1)) | b
            for t in range(pos + 1, B + 1):
                if wv and best is not None and t * wv >= best:
                    break  # child costs are >= 0; deeper leaf levels only get worse
                sub = self.solve(("F", v, deg), t, child_blocked)
                if sub is None:
                    continue
                cand = sub[0] + t * wv
                if best is None or cand < best:
                    best, choice = cand, ("place", pos, t)
        return None if best is None else (best, choice)

    def _case_forest(self, u: int, f: int, length: int, blocked: int, un: int):
        last = self.tree.children[u][f - 1]
        best = None
        choice = None
        s = (un - 1) & un  # proper nonempty submasks: cells given to the last tree
        while s:
            a = self.solve(("T", last), length, blocked | (un ^ s))
            if a is not None:
                b = self.solve(("F", u, f - 1), length, blocked | s)
                if b is not None:
                    cand = a[0] + b[0]
                    if best is None or cand < best:
                        best, choice = cand, ("split", s)
            s = (s - 1) & un
        return None if best is None else (best, choice)

    # -- EST reconstruction ------------------------------------------------

    def cells(self, fid: SubforestId, length: int, blocked: int) -> list[tuple[Assignment, Optional[ESTNode]]]:
        """Rebuild the winning EST as its left-path cells (assignment, right subtree)."""
        fid = self._canon(fid)
        entry = self.memo[(fid, length, blocked)]
        assert entry is not None, "reconstructing an infeasible subproblem"
        _, choice = entry
        base = [
            (BLOCKED if blocked >> i & 1 else UNASSIGNED, None) for i in range(length)
        ]
        if choice[0] == "base":
            pos = choice[1]
            v = fid[1]
            base[pos] = (v, ESTNode(v))
            return base
        if choice[0] == "split":
            s = choice[1]
            un = ~blocked & ((1 << length) - 1)
            u, f = fid[1], fid[2]
            last = self.tree.children[u][f - 1]
            cf = self.cells(("T", last), length, blocked | (un ^ s))
            co = self.cells(("F", u, f - 1), length, blocked | s)
            for i in range(length):
                if s >> i & 1:
                    base[i] = cf[i]
                elif un >> i & 1:
                    base[i] = co[i]
            return base
        # ("place", pos, t): root query of T_v at cell pos, its leaf at level t.
        _, pos, t = choice
        v = fid[1]
        child_blocked = (blocked & ((1 << pos) - 1)) | (1 << pos)
        inner = self.cells(("F", v, len(self.tree.children[v])), t, child_blocked)
        for i in range(pos):
            base[i] = inner[i]
        moved = _chain(inner[pos + 1:])
        leaf = ESTNode(v)
        if moved is None:
            right = leaf
        else:
            tail = moved
            while tail.left is not None:
                tail = tail.left
            tail.left = leaf
            right = moved
        base[pos] = (v, right)
        # The outer left path below the root query is pure padding.
        for i in range(pos + 1, length):
            base[i] = (BLOCKED, None)
        return base


def _chain(cells: list[tuple[Assignment, Optional[ESTNode]]]) -> Optional[ESTNode]:
    node = None
    for a, right in reversed(cells):
        node = ESTNode(a, left=node, right=right)
    return node


def _reference_solve_pb(tree, forest, plp, budget):
    """``solve_pb`` through ``_ReferencePB``."""
    length, blocked = _plp_to_bits(plp)
    solver = _ReferencePB(tree, budget)
    entry = solver.solve(forest, length, blocked)
    if entry is None:
        return None
    return PBSolution(entry[0], _chain(solver.cells(forest, length, blocked)))


def _est_mutants(node, n):
    """ESTs one edit away from ``node``: its assignment set to an id in -1..n,
    a placeholder or a foreign value, its children swapped, or one removed."""
    a, left, right = node.assignment, node.left, node.right
    yield from (ESTNode(b, left, right) for b in (*range(-1, n + 1), B, U, "x"))
    yield from (ESTNode(a, right, left), ESTNode(a, None, right), ESTNode(a, left, None))
    if left is not None:
        yield from (ESTNode(a, m, right) for m in _est_mutants(left, n))
    if right is not None:
        yield from (ESTNode(a, left, m) for m in _est_mutants(right, n))


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
                assert validate_est(sol.est, t, forest_nodes(t, ("T", 0))).ok

    def test_all_blocked_infeasible(self):
        t = InputTree([-1], [5])
        assert solve_pb(t, ("T", 0), (B, B), 4) is None

    def test_budget_above_cap_refused(self):
        # Tables of 2^(budget+1) cells: budget 20 would fill 2^21 on one node.
        t = InputTree([-1], [5])
        assert solve_pb(t, ("T", 0), (U,), bounded_dp.HEIGHT_CAP).cost == 5
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            solve_pb(t, ("T", 0), (U,), 20)


    @pytest.mark.parametrize("forest", [("T", -1), ("F", -2, 1), ("T", 3), ("X", 0)])
    def test_bad_subforest_rejected(self, path3, forest):
        with pytest.raises(ValueError, match="bad subforest"):
            solve_pb(path3, forest, (U, U, U), 3)


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


class TestAgainstReference:
    def test_every_small_shape_and_budget(self):
        # Every shape with n <= 7, weights with zeros, at every budget from
        # ceil(log2 n) to n + 1: the same cost, EST and strategy text.
        rng = random.Random(26)
        checked = 0
        for n in range(1, 8):
            for parents in all_tree_shapes(n):
                t = InputTree(parents, [rng.choice([0, 0, 1, 2, 5, 9]) for _ in range(n)])
                for budget in range((n - 1).bit_length(), n + 2):
                    plp = (U,) * budget
                    want = _reference_solve_pb(t, ("T", t.root), plp, budget)
                    assert repr(solve_pb(t, ("T", t.root), plp, budget)) == repr(want), (parents, t.weight, budget)
                    found = bounded_dp._solve_at(t, budget)
                    text = None if want is None else format_decision_tree(est_to_search_tree(want.est, t))
                    assert (None if found is None else format_decision_tree(found[1])) == text
                    checked += want is not None
        assert checked > 300  # 370 feasible (shape, budget) pairs

    def test_budget_below_the_bound_fits_no_tree(self):
        # No search tree is shorter than max(ceil(log2 n), max_children), so
        # the reference finds none below that and _solve_at need not run.
        below = 0
        for n in range(1, 8):
            for parents in all_tree_shapes(n):
                t = InputTree(parents, seeded_weights(n, n))
                for budget in range(max((n - 1).bit_length(), t.max_children)):
                    assert _reference_solve_pb(t, ("T", t.root), (U,) * budget, budget) is None, (parents, budget)
                    assert bounded_dp._solve_at(t, budget) is None
                    below += 1
        assert below > 200

    def test_seeded_subproblems(self):
        # Subforests T_v and F(u, f), F(u, 1) included, on PLPs with blocked
        # cells, all-blocked ones included.
        rng = random.Random(27)
        seen = set()
        for _ in range(500):
            n = rng.randint(1, 8)
            t = random_tree(n, rng.randrange(10**6), (0, 6))
            fids = [("T", v) for v in range(n)]
            fids += [("F", u, f) for u in range(n) for f in range(1, len(t.children[u]) + 1)]
            fid = rng.choice(fids)
            budget = rng.randint(1, 8)
            share = rng.choice([0, 0.3, 0.6, 1])
            plp = tuple(B if rng.random() < share else U for _ in range(rng.randint(1, budget)))
            want = _reference_solve_pb(t, fid, plp, budget)
            assert repr(solve_pb(t, fid, plp, budget)) == repr(want), (t.parent, t.weight, fid, plp, budget)
            seen.add((fid[0], fid[-1] == 1, U in plp, want is None))
        assert {("F", True, True, False), ("F", False, True, False), ("T", False, False, True)} <= seen


def test_dp_runs_without_recursion():
    # With the recursion limit 60 frames above this test's depth, the DP
    # solves a 200-node path and leaves the limit as it was.
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        assert optimal_bounded(path_tree(200), budget=8)[0] == 1544
        assert sys.getrecursionlimit() == depth + 60
    finally:
        sys.setrecursionlimit(old)


class TestValidateEst:
    def test_matches_reference_on_every_small_shape(self):
        # The DP's EST for every subforest of every shape with n <= 5 (both
        # child orders), each EST one edit away from it, each checked against
        # its own forest, that forest with ids outside 0..n-1 added, and the
        # whole tree; est_cost is checked on the same cases.
        checked = 0
        for n in range(1, 6):
            for parents in all_tree_shapes(n):
                plain = InputTree(parents, seeded_weights(n, n))
                flipped = InputTree(parents, plain.weight, [c[::-1] for c in plain.children])
                for t in (plain, flipped):
                    fids = [("T", v) for v in range(n)]
                    fids += [("F", u, f) for u in range(n) for f in range(1, len(t.children[u]) + 1)]
                    for fid in fids:
                        est = solve_pb(t, fid, (U,) * (n + 1), n + 1).est
                        own = forest_nodes(t, fid)
                        for case in (est, *_est_mutants(est, n)):
                            for forest in (own, own | {-1, n, n + 3}, None):
                                mask = None if forest is None else _id_mask(forest)
                                assert validate_est(case, t, forest) == _reference_validate_est(case, t, mask), \
                                    (t.parent, fid, forest, case)
                                assert est_cost(case, t, forest) == _reference_est_cost(case, t, mask), \
                                    (t.parent, fid, forest, case)
                                checked += 1
        assert checked > 10**4

    def test_assignment_outside_the_tree(self):
        # Any id outside 0..n-1 is outside the forest, even where the
        # forest names that id; est_cost skips such a leaf.
        t = InputTree([-1, 0], [1, 1])
        for a in (-1, -3, 2, 5):
            for forest in (None, {0, 1}, {0, 1, 2, 5}, {-3, -1, 0, 1}):
                diag = validate_est(ESTNode(a), t, forest)
                assert not diag.ok and diag.violations[0] == f"assignment {a} outside the forest"
                assert est_cost(ESTNode(0, ESTNode(a), ESTNode(1)), t, forest) == 1
                assert est_cost(ESTNode(a), t, forest) == 0

    def test_bool_assignment_is_no_node_id(self):
        # True was once read as node 1: this EST validated and est_cost read 11.
        t = InputTree([-1, 0], [3, 5])
        est = ESTNode(True, left=ESTNode(0, right=ESTNode(0)), right=ESTNode(True))
        diag = validate_est(est, t)
        assert not diag.ok and "unexpected assignment True" in diag.violations, diag.violations
        assert est_cost(est, t) == 2 * 3
        est = ESTNode(1, left=ESTNode(0, right=ESTNode(0)), right=ESTNode(1))
        assert validate_est(est, t).ok and est_cost(est, t) == 2 * 3 + 5


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

    def test_placeholder_above_the_est_is_right_deleted(self):
        # A placeholder above the whole EST pushes every leaf one level down,
        # so it costs w(T) more, and the conversion deletes it again.
        checked = 0
        for n in range(1, 8):
            for parents in all_tree_shapes(n):
                t = InputTree(parents, seeded_weights(n, n + len(parents)))
                s = opt_cost(t)[1]
                est = search_tree_to_est(s, t)
                padded = ESTNode(U, left=est)
                assert validate_est(padded, t).ok, t.parent
                assert est_cost(padded, t) == est_cost(est, t) + t.total_weight, t.parent
                assert est_to_search_tree(padded, t) == s, t.parent
                checked += 1
        assert checked == 85

    def test_childless_placeholder_under_a_no_side(self, path3, path3_tree):
        # The root query's NO side holds no assigned node, so a childless
        # placeholder may sit there; it adds no cost, and the left deletion
        # of the root's query drops it.
        est = search_tree_to_est(path3_tree, path3)
        root_query = est.left  # query 1's NO side: the root's query above its leaf
        assert root_query.assignment == path3.root and root_query.left is None
        padded = ESTNode(1, left=ESTNode(0, left=ESTNode(U), right=root_query.right), right=est.right)
        assert validate_est(padded, path3).ok
        assert est_cost(padded, path3) == est_cost(est, path3)
        assert est_to_search_tree(padded, path3) == path3_tree

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


def test_markers_survive_pickle_and_copy():
    node = ESTNode(BLOCKED, left=ESTNode(UNASSIGNED), right=ESTNode(2))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(node, protocol))
        assert back == node
        assert back.assignment is BLOCKED and back.left.assignment is UNASSIGNED
    assert copy.deepcopy(node) == node
    assert copy.copy(BLOCKED) is BLOCKED and copy.deepcopy(UNASSIGNED) is UNASSIGNED


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


    def test_accepted_ratio_is_certified(self):
        rng = random.Random(24)
        for n in range(1, 8):
            for parents in all_tree_shapes(n):
                t = InputTree(parents, [rng.choice([0, 0, 1, 2, 9]) for _ in range(n)])
                best = opt_cost(t)[0]
                for ratio in (Fraction(6, 5), 2):
                    c, strategy = optimal_bounded(t, ratio=ratio)
                    assert validate(strategy, t).ok and c == cost(strategy, t)
                    assert c <= ratio * best, (parents, t.weight, ratio)
        with pytest.raises(ValueError):
            optimal_bounded(t, ratio=Fraction(1, 2))

    def test_float_ratio_is_its_exact_fraction(self):
        rng = random.Random(25)
        for n in (6, 7):
            for parents in all_tree_shapes(n):
                t = InputTree(parents, [rng.choice([0, 1, 2, 9]) for _ in range(n)])
                c, strategy = optimal_bounded(t, ratio=1.5)
                want_c, want = optimal_bounded(t, ratio=Fraction(3, 2))
                assert c == want_c and format_decision_tree(strategy) == format_decision_tree(want)
        with pytest.raises(ValueError, match="below 1"):
            optimal_bounded(t, ratio=0.5)


class TestDeepening:
    def test_deep_cost_bound_is_sound(self):
        # Every search tree of height h >= B costs at least LB(B), and at
        # least each of its bounds on its own: Huffman, and tall Huffman at
        # every height up to h. Zero weights included.
        rng = random.Random(17)
        checked = 0
        for n in range(1, 7):
            for parents in all_tree_shapes(n):
                t = InputTree(parents, [rng.choice([0, 0, 1, 2, 9]) for _ in range(n)])
                hf = huffman(t.weight)
                for short in range(0, (n - 1).bit_length() + 1):  # ceil(log2 n)
                    assert tall_huffman(t.weight, short) == hf, (t.weight, short)
                for budget in range(1, n):  # TH(B) subsumes the path bound
                    assert deep_cost_bound(t, budget) >= _path_bound(t, budget), (t.weight, budget)
                for strategy in enumerate_decision_trees(t):
                    c, h = cost(strategy, t), tree_height(strategy)
                    assert c >= hf, (parents, t.weight)
                    for budget in range(0, h + 1):
                        assert c >= tall_huffman(t.weight, budget), (parents, t.weight, budget)
                        assert c >= deep_cost_bound(t, budget), (parents, t.weight, budget)
                        checked += 1
        assert checked > 1000
        # A single node is resolved by its leaf alone, whatever its weight.
        single = InputTree([-1], [5])
        assert cost(Leaf(0), single) == 0 == deep_cost_bound(single, 0)
        with pytest.raises(ValueError):
            deep_cost_bound(single, 1)

    def test_tall_huffman_is_tight(self):
        # TH(B) is attained: the least cost over every labelled full binary
        # tree of height >= B, found by brute force over depth profiles.
        def profiles(leaves):
            if leaves == 1:
                return {(0,)}
            return {tuple(sorted(d + 1 for d in a + b))
                    for k in range(1, leaves)
                    for a in profiles(k) for b in profiles(leaves - k)}

        rng = random.Random(19)
        for n in range(1, 7):
            shapes = profiles(n)
            for _ in range(6):
                w = [rng.choice([0, 0, 1, 3, 10, 100]) for _ in range(n)]
                for height in range(0, n):
                    best = min(min(sum(x * d for x, d in zip(order, depths))
                                   for order in itertools.permutations(w))
                               for depths in shapes if max(depths) >= height)
                    assert tall_huffman(w, height) == best, (w, height)
        with pytest.raises(ValueError):
            tall_huffman([1, 1, 1], 3)

    def test_certificate_stops_no_later_than_path_bound(self, monkeypatch):
        # On criterion 1's instances (every shape with n <= 9; unit, seeded
        # and one-heavy weights), the path bound w(T) + sum S(s) alone would
        # certify none of the budgets the default DP passed over, so it would
        # stop no earlier. The DP's runs are cached so that re-reading them
        # costs nothing.
        runs = {}
        solve = bounded_dp.solve_pb

        def recording(tree, forest, plp, budget):
            if budget not in runs:
                runs[budget] = solve(tree, forest, plp, budget)
            return runs[budget]

        monkeypatch.setattr(bounded_dp, "solve_pb", recording)
        earlier = 0
        for n in range(1, 10):
            for shape_idx, parents in enumerate(all_tree_shapes(n)):
                for w in (unit_weights(n), seeded_weights(n, 1000 * n + shape_idx, 10), one_heavy_weights(n)):
                    t = InputTree(parents, w)
                    runs.clear()
                    optimal_bounded(t)
                    stop = max(runs)
                    for b in sorted(runs)[:-1]:
                        found = bounded_dp._solve_at(t, b)
                        assert found is None or found[0] > _path_bound(t, b), (parents, w, b)
                    if stop < min(height_bound(t), n) and bounded_dp._solve_at(t, stop)[0] > _path_bound(t, stop):
                        earlier += 1
        assert earlier > 1000  # 1195 of the 1458 instances

    def test_certificate_stops_earlier_on_pinned_instance(self, monkeypatch):
        budgets = []
        solve = bounded_dp.solve_pb

        def recording(tree, forest, plp, budget):
            budgets.append(budget)
            return solve(tree, forest, plp, budget)

        monkeypatch.setattr(bounded_dp, "solve_pb", recording)
        t = InputTree([-1, 0, 1, 2, 3, 3, 1, 6, 7], [6, 4, 8, 8, 3, 5, 10, 9, 3])
        c = optimal_bounded(t)[0]
        assert budgets == [5, 6]
        budgets.clear()
        monkeypatch.setattr(bounded_dp, "deep_cost_bound", _path_bound)
        assert optimal_bounded(t)[0] == c == opt_cost(t)[0]
        assert budgets == [5, 6, 7, 8]

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
