import itertools
import pickle
import random
import sys
import tracemalloc
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Sequence

import pytest

from treesearch import (
    InputTree,
    InvalidDecisionTreeError,
    InvalidInstanceError,
    Leaf,
    NodePiece,
    Query,
    cost,
    format_decision_tree,
    greedy,
    leaf_depths,
    opt_cost,
    parse_decision_tree,
    restrict,
    solve,
    tree_height,
    tree_size,
    uninformative_ancestor_counts,
    validate,
)
from treesearch.bounded_dp import BLOCKED, ESTNode, PBSolution
from treesearch.exact import _subtree_masks
from treesearch.gen import all_tree_shapes, random_tree
from treesearch.model import DecisionNode, Diagnostics, build_decision_tree, iter_nodes, measure
from treesearch.reduction import ReductionOutput, X3CInstance, build

from conftest import enumerate_decision_trees, subtree_nodes


def _every_small_tree(max_n):
    """Every shape with at most ``max_n`` nodes, with its children in id order
    and reversed, so that the preorder differs from the ids."""
    for n in range(1, max_n + 1):
        for parents in all_tree_shapes(n):
            plain = InputTree(parents, [1] * n)
            yield plain
            yield InputTree(parents, [1] * n, [c[::-1] for c in plain.children])


def _ancestor_masks(tree):
    """Each T_v as an n-bit mask keyed by node id, from the parent links alone."""
    masks = [0] * tree.n
    for x in range(tree.n):
        v = x
        while v != -1:
            masks[v] |= 1 << x
            v = tree.parent[v]
    return masks


def _reference_validate(root, tree, piece=None):
    """``validate`` on n-bit subtree masks keyed by node id, as it was before
    the preorder-position masks; both must give the same ``Diagnostics``."""
    if piece is None:
        piece = NodePiece.of(tree, range(tree.n))
    sub_masks = _subtree_masks(tree)
    violations = []
    seen = {}
    stack = [(root, sum(1 << v for v in piece.nodes))]
    if root is None:
        return Diagnostics(False, ["empty decision tree"])
    while stack:
        node, allowed = stack.pop()
        if isinstance(node, Leaf):
            v = node.node
            if not 0 <= v < tree.n:
                violations.append(f"leaf id {v} out of range")
                continue
            seen[v] = seen.get(v, 0) + 1
            if not allowed >> v & 1:
                violations.append(f"leaf {v} violates the search property on its root path")
        elif isinstance(node, Query):
            q = node.query
            if not 0 <= q < tree.n:
                violations.append(f"query id {q} out of range")
                continue
            if not allowed >> q & 1:
                violations.append(f"query {q} violates the search property on its root path")
            if node.no is None or node.yes is None:
                violations.append(f"query {q} is missing a child")
            sub = sub_masks[q]
            if node.yes is not None:
                stack.append((node.yes, allowed & sub))
            if node.no is not None:
                stack.append((node.no, allowed & ~sub))
        else:
            violations.append(f"unexpected node type {type(node).__name__}")
    for v in piece.nodes:
        if v not in seen:
            violations.append(f"no leaf identifies node {v}")
    for v, k in seen.items():
        if k > 1:
            violations.append(f"node {v} identified by {k} leaves")
        if v not in piece.nodes:
            violations.append(f"leaf {v} is outside the instance piece")
    return Diagnostics(not violations, violations)


def _id_mask(nodes):
    return sum(1 << v for v in nodes)


def _reference_restrict(root, tree, piece):
    """``restrict`` on the piece's n-bit id mask, as it was before pieces
    were node sets alone; both must give the same strategy or error."""
    _reference_validate(root, tree).raise_if_invalid()
    mask = _id_mask(piece.nodes)

    def prune(node):
        if isinstance(node, Leaf):
            return node if mask >> node.node & 1 else None
        return node.query, node.no, node.yes

    out = build_decision_tree(root, prune)
    if out is None:
        raise InvalidDecisionTreeError(["restriction produced an empty tree"])
    _reference_validate(out, tree, piece).raise_if_invalid()
    return out


def _reference_uninformative_ancestor_counts(root, piece):
    """``uninformative_ancestor_counts`` on the piece's n-bit id mask."""
    mask = _id_mask(piece.nodes)
    useful = mask & ~(1 << piece.top)
    out = {}
    stack = [(root, 0)]
    while stack:
        node, k = stack.pop()
        if isinstance(node, Leaf):
            if mask >> node.node & 1:
                out[node.node] = k
        else:
            k2 = k + (0 if useful >> node.query & 1 else 1)
            stack += ((node.no, k2), (node.yes, k2))
    return out


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except InvalidDecisionTreeError as e:
        return type(e), str(e)


def _mutants(node, n):
    """Strategies one edit away from ``node``: a leaf or query id set to
    another value in -1..n, a query's sides swapped, one side removed or
    replaced by a foreign object."""
    if isinstance(node, Leaf):
        yield from (Leaf(v) for v in range(-1, n + 1) if v != node.node)
        return
    q, no, yes = node.query, node.no, node.yes
    yield from (Query(v, no, yes) for v in range(-1, n + 1) if v != q)
    yield from (Query(q, yes, no), Query(q, None, yes), Query(q, no, None), Query(q, no, "leaf"))
    yield from (Query(q, m, yes) for m in _mutants(no, n))
    yield from (Query(q, no, m) for m in _mutants(yes, n))


def _swap_leaves(node, a, b):
    """``node`` with the leaves of a and b exchanged."""
    if isinstance(node, Leaf):
        return Leaf({a: b, b: a}.get(node.node, node.node))
    return Query(node.query, _swap_leaves(node.no, a, b), _swap_leaves(node.yes, a, b))


def seq_star_tree():
    # Sequential strategy l1, l2, l3 for the star fixture.
    return Query(1, no=Query(2, no=Query(3, no=Leaf(0), yes=Leaf(3)), yes=Leaf(2)), yes=Leaf(1))


class TestInstance:
    def test_single_root_enforced(self):
        with pytest.raises(InvalidInstanceError):
            InputTree([-1, -1], [1, 1])

    def test_cycle_rejected(self):
        with pytest.raises(InvalidInstanceError):
            InputTree([-1, 2, 1], [1, 1, 1])

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInstanceError):
            InputTree([-1, 0], [1, -1])

    @pytest.mark.parametrize("parent, order", [
        ([-1, 0.9, 1.2], None),  # once truncated to (-1, 0, 1)
        ([-1, False], None),  # once read as parent 0
        ([-1, 0], [[5], []]),  # once an IndexError
        ([-1, 0], [[1.0], []]),  # once a TypeError
        ([-1, 0], [[-1], []]),  # once read as node 1, from the end of the parents
    ], ids=["float-parents", "bool-parent", "child-out-of-range", "float-child", "negative-child"])
    def test_node_ids_must_be_in_range_integers(self, parent, order):
        with pytest.raises(InvalidInstanceError):
            InputTree(parent, [1] * len(parent), order)

    def test_children_order_respected(self):
        t = InputTree([-1, 0, 0], [1, 1, 1], [[2, 1], [], []])
        assert t.children[0] == (2, 1)

    def test_subtree_masks(self, path3):
        assert _subtree_masks(path3)[0] == 0b111
        assert _subtree_masks(path3)[1] == 0b110
        assert 2 in subtree_nodes(path3, 1) and 0 not in subtree_nodes(path3, 1)

    def test_in_subtree_matches_masks_on_every_small_shape(self):
        # The preorder intervals, the node sets read from them and the
        # oracle's masks all read T_v as the parent links define it.
        checked = 0
        for t in _every_small_tree(7):
            n = t.n
            assert sorted(t.pre) == list(range(n))
            masks = _ancestor_masks(t)
            assert _subtree_masks(t) == masks, t.parent
            for v in range(n):
                assert subtree_nodes(t, v) == {x for x in range(n) if masks[v] >> x & 1}, (t.parent, v)
                for x in range(n):
                    inside = t.pre[v] <= t.pre[x] < t.pre[v] + t.size[v]
                    assert inside == bool(masks[v] >> x & 1), (t.parent, x, v)
            checked += 1
        assert checked == 2 * 85

    def test_star_holds_linear_memory(self):
        # Subtrees are intervals, not n-bit masks: a star's masks alone held
        # about n^2/2 bits, 175 MB at this size.
        n = 50_000
        parent = [-1] + [0] * (n - 1)
        weight = [1] * n
        tracemalloc.start()
        try:
            tree = InputTree(parent, weight)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tree.size[tree.root] == n
        assert held < 20 * 2**20, held


class TestCost:
    def test_single_node(self):
        t = InputTree([-1], [7])
        assert cost(Leaf(0), t) == 0

    def test_path_fixture(self, path3, path3_tree):
        assert cost(path3_tree, path3) == 5

    def test_star_sequential(self, star4):
        assert cost(seq_star_tree(), star4) == 10

    def test_cost_rejects_invalid(self, path3):
        with pytest.raises(InvalidDecisionTreeError):
            cost(Query(1, no=Leaf(2), yes=Query(2, no=Leaf(1), yes=Leaf(0))), path3)

    def test_cost_two_ways_agree(self):
        # Leaf-walk vs per-level accumulation on random instances.
        rng = random.Random(1)
        for _ in range(25):
            t = random_tree(rng.randint(1, 12), rng.randrange(10**6), (0, 9))
            strategy = greedy(t)
            by_leaf = cost(strategy, t)
            per_level = {}
            for node, d in iter_nodes(strategy):
                if isinstance(node, Leaf):
                    per_level[d] = per_level.get(d, 0) + t.weight[node.node]
            assert by_leaf == sum(d * w for d, w in per_level.items())


def _reference_walks(root, tree):
    """What a ``solve`` and an ``eval`` child read from separate walks before
    ``measure``: the violations (``_reference_validate``) and, on a valid
    strategy only, the cost, the height and the node count, each from its
    own pass over ``iter_nodes``."""
    violations = _reference_validate(root, tree).violations
    total = None if violations else sum(d * tree.weight[n.node] for n, d in iter_nodes(root) if isinstance(n, Leaf))
    return violations, total, max((d for _, d in iter_nodes(root)), default=0), sum(1 for _ in iter_nodes(root))


def _assert_measure_matches(strategy, tree):
    violations, total, height, count = measure(strategy, tree)
    expected = _reference_walks(strategy, tree)
    assert violations == expected[0], (tree.parent, strategy)
    if not violations:
        assert (total, height, count) == expected[1:]
        assert total == cost(strategy, tree)
        assert measure(strategy, tree, check=False) == ([], total, height, count)
        assert (height, count) == (tree_height(strategy), tree_size(strategy))


class TestMeasure:
    def test_matches_separate_walks_on_every_small_shape(self):
        # Every shape with n <= 8, children in id order and reversed, weights
        # 0..3: the greedy and an optimal strategy and, on n <= 6, every
        # strategy one edit away from the greedy one.
        rng = random.Random(31)
        checked = 0
        for shape in _every_small_tree(8):
            t = InputTree(shape.parent, [rng.randint(0, 3) for _ in range(shape.n)], shape.children)
            cases = [greedy(t), opt_cost(t)[1]]
            if t.n <= 6:
                cases += _mutants(cases[0], t.n)
            for case in cases:
                _assert_measure_matches(case, t)
                checked += 1
        assert measure(None, t) == (["empty decision tree"], 0, 0, 0)
        assert checked > 6000

    def test_matches_separate_walks_on_large_trees(self):
        # Seeded 1200-node random, path, star and double-star trees with
        # zero weights among the others, the strategy ``solve`` picks, and
        # that strategy with two leaves exchanged.
        rng = random.Random(32)
        for parent in (random_tree(1200, 33).parent, [-1] + list(range(1199)), [-1] + [0] * 1199,
                       [-1, 0] + [v % 2 for v in range(2, 1200)]):
            t = InputTree(parent, [rng.randint(0, 100) for _ in range(1200)])
            strategy = solve(t)[1]
            _assert_measure_matches(strategy, t)
            a, b = rng.sample(range(1200), 2)
            swapped = build_decision_tree(strategy, lambda node: (node.query, node.no, node.yes)
                                          if isinstance(node, Query) else Leaf({a: b, b: a}.get(node.node, node.node)))
            _assert_measure_matches(swapped, t)


class TestValidate:
    def test_valid(self, path3, path3_tree):
        assert validate(path3_tree, path3).ok

    def test_swapped_leaves_violate_search_property(self, path3):
        bad = Query(1, no=Leaf(1), yes=Query(2, no=Leaf(0), yes=Leaf(2)))
        diag = validate(bad, path3)
        assert not diag.ok
        assert any("search property" in v for v in diag.violations)

    def test_missing_leaf_breaks_bijection(self, path3):
        bad = Query(1, no=Leaf(0), yes=Query(2, no=Leaf(1), yes=Leaf(1)))
        diag = validate(bad, path3)
        assert not diag.ok
        assert any("no leaf identifies node 2" in v for v in diag.violations)

    def test_missing_child_reported(self, path3, path3_tree):
        pruned = left_delete(path3_tree, ["yes", "no"])  # drop leaf 1
        diag = validate(pruned, path3)
        assert not diag.ok
        assert any("missing a child" in v for v in diag.violations)

    @pytest.mark.parametrize("strategy, violation", [
        (Query(1, Leaf(0), Query(2, Leaf(1), Leaf(2.0))), "leaf id 2.0 out of range"),  # once a TypeError
        (Leaf(None), "leaf id None out of range"),  # once a TypeError
        (Query(True, Leaf(0), Query(2, Leaf(1), Leaf(2))), "query id True out of range"),  # once read as query 1
        (Query(1, Leaf(False), Query(2, Leaf(1), Leaf(2))), "leaf id False out of range"),  # once read as leaf 0
    ], ids=["float-leaf", "none-leaf", "bool-query", "bool-leaf"])
    def test_ids_that_are_not_integers_are_violations(self, path3, strategy, violation):
        diag = validate(strategy, path3)
        assert not diag.ok and violation in diag.violations, diag.violations
        with pytest.raises(InvalidDecisionTreeError, match=violation):
            cost(strategy, path3)

    @pytest.mark.parametrize("nodes", [{0, 99}, {-1, 0, 1, 2}, {0, 1.5}, {0, True}, {0, "1"}],
                             ids=["past-n", "negative", "float", "bool", "text"])
    def test_pieces_holding_foreign_ids_are_refused(self, path3, path3_tree, nodes):
        # 99 was once an IndexError, -1 read through pre[-1] as node 2, 1.5 a TypeError.
        piece = NodePiece(frozenset(nodes), 0)
        for call in (validate, cost, measure):
            with pytest.raises(InvalidInstanceError, match="no node of the tree"):
                call(path3_tree, path3, piece)
        assert measure(path3_tree, path3, piece, False) == measure(path3_tree, path3, None, False)

    def test_piece_weights_split_at_every_query(self):
        # At every query the YES-side plus NO-side leaf weights equal the
        # weight of the piece tracked by the answers so far.
        rng = random.Random(7)
        for _ in range(20):
            t = random_tree(rng.randint(2, 12), rng.randrange(10**6), (0, 9))
            strategy = opt_cost(t)[1] if t.n <= 9 else greedy(t)

            sub_masks = _subtree_masks(t)

            def leaf_weight(node, piece_mask):
                if isinstance(node, Leaf):
                    return t.weight[node.node]
                sub = sub_masks[node.query]
                no_w = leaf_weight(node.no, piece_mask & ~sub)
                yes_w = leaf_weight(node.yes, piece_mask & sub)
                assert no_w + yes_w == sum(w for v, w in enumerate(t.weight) if piece_mask >> v & 1)
                return no_w + yes_w

            assert leaf_weight(strategy, (1 << t.n) - 1) == t.total_weight

    def test_matches_reference_on_every_small_shape(self):
        # Every strategy of every shape with n <= 6, and on n <= 5 every
        # strategy one edit away and every exchange of two leaves.
        checked = 0
        for t in _every_small_tree(6):
            assert validate(None, t) == _reference_validate(None, t)
            for strategy in enumerate_decision_trees(t):
                cases = [strategy]
                if t.n <= 5:
                    cases += _mutants(strategy, t.n)
                    cases += (_swap_leaves(strategy, a, b) for a in range(t.n) for b in range(a))
                for case in cases:
                    assert validate(case, t) == _reference_validate(case, t), (t.parent, case)
                    checked += 1
        assert checked > 10**4

    def test_matches_reference_on_every_piece(self):
        # Each connected piece of each shape with n <= 6, against every third
        # whole-tree strategy, the piece's own strategies and, on n <= 5, the
        # piece's strategies one edit away; restrict and
        # uninformative_ancestor_counts against the same references.
        checked = 0
        for t in _every_small_tree(6):
            whole = list(enumerate_decision_trees(t))[::3]
            for mask in range(1, 1 << t.n):
                try:
                    piece = NodePiece.of(t, (v for v in range(t.n) if mask >> v & 1))
                except InvalidInstanceError:
                    continue  # not connected
                own = list(enumerate_decision_trees(t, mask))
                cases = whole + own + (list(_mutants(own[0], t.n)) if t.n <= 5 else [])
                for case in cases:
                    assert validate(case, t, piece) == _reference_validate(case, t, piece), (t.parent, mask, case)
                    assert _outcome(restrict, case, t, piece) == _outcome(_reference_restrict, case, t, piece)
                    checked += 1
                for case in whole:
                    assert uninformative_ancestor_counts(case, piece) == \
                        _reference_uninformative_ancestor_counts(case, piece), (t.parent, mask, case)
        assert checked > 10**4


# The paper's deletion operations on a decision tree, addressed by the
# NO/YES steps from its root. ``est_to_search_tree`` performs them inline.
Path = Sequence[str]  # each step "no" or "yes"


def _walk(root: DecisionNode, path: Path) -> tuple[list[tuple[Query, str]], DecisionNode]:
    """The (query, step) pairs along ``path`` and the node it reaches."""
    spine = []
    node = root
    for step in path:
        if not isinstance(node, Query):
            raise InvalidDecisionTreeError([f"path step {step!r} descends below a leaf"])
        if step not in ("no", "yes"):
            raise InvalidDecisionTreeError([f"bad path step {step!r}"])
        spine.append((node, step))
        node = node.no if step == "no" else node.yes
        if node is None:
            raise InvalidDecisionTreeError(["path leads to an empty slot"])
    return spine, node


def _replace(spine: list[tuple[Query, str]], repl: Optional[DecisionNode]) -> Optional[DecisionNode]:
    """Rebuild the queries along ``spine`` bottom-up with ``repl`` at its end."""
    for node, step in reversed(spine):
        repl = Query(node.query, repl, node.yes) if step == "no" else Query(node.query, node.no, repl)
    return repl


def left_delete(root: DecisionNode, path: Path) -> Optional[DecisionNode]:
    """Remove the node at ``path`` together with its NO subtree; its YES
    subtree takes its place (None when deleting a leaf)."""
    spine, target = _walk(root, path)
    return _replace(spine, target.yes if isinstance(target, Query) else None)


def right_delete(root: DecisionNode, path: Path) -> Optional[DecisionNode]:
    """Remove the node at ``path`` together with its YES subtree; its NO
    subtree takes its place."""
    spine, target = _walk(root, path)
    return _replace(spine, target.no if isinstance(target, Query) else None)


class TestDeletions:
    def test_left_delete_root(self, path3_tree):
        assert left_delete(path3_tree, []) == Query(2, no=Leaf(1), yes=Leaf(2))

    def test_right_delete_root(self, path3_tree):
        assert right_delete(path3_tree, []) == Leaf(0)

    def test_delete_leaf_promotes_nothing(self, path3_tree):
        out = left_delete(path3_tree, ["no"])
        assert out == Query(1, no=None, yes=Query(2, no=Leaf(1), yes=Leaf(2)))

    def test_missing_node_errors(self, path3_tree):
        with pytest.raises(InvalidDecisionTreeError):
            left_delete(path3_tree, ["no", "no"])

    def test_deep_path(self, star1500, default_recursion_limit):
        tree, strategy = star1500
        # The last query isolates the lightest leaf; deleting it with its YES
        # leaf lifts the center's leaf one level.
        out = right_delete(strategy, ["no"] * 1499)
        assert sys.getrecursionlimit() == default_recursion_limit
        depths = leaf_depths(out)
        assert len(depths) == tree.n - 1 and depths[tree.root] == 1499


@dataclass(frozen=True)
class _DataclassQuery:
    """``Query`` as a plain frozen dataclass, whose generated dunders recurse."""

    query: int
    no: object
    yes: object


def _as_dataclass(node):
    if isinstance(node, Query):
        return _DataclassQuery(node.query, _as_dataclass(node.no), _as_dataclass(node.yes))
    return node


class TestQueryDunders:
    def test_match_dataclass_on_small_strategies(self):
        rng = random.Random(14)
        for _ in range(60):
            t = random_tree(rng.randint(1, 25), rng.randrange(10**6), (0, 3))
            a = greedy(t)
            b = parse_decision_tree(format_decision_tree(a))
            assert a == b and hash(a) == hash(b) and a is not b
            assert repr(a) == repr(_as_dataclass(a)).replace("_DataclassQuery", "Query")
            other = greedy(random_tree(t.n, rng.randrange(10**6), (0, 3)))
            assert (a == other) == (_as_dataclass(a) == _as_dataclass(other))
        assert Query(1, None, Leaf(2)) == Query(1, None, Leaf(2)) != Query(1, Leaf(2), None)
        assert Query(1, Leaf(0), Leaf(1)) != Leaf(1)

    def test_tall_star_strategy(self, star1500, default_recursion_limit):
        _, strategy = star1500
        copy = parse_decision_tree(format_decision_tree(strategy))
        changed = right_delete(strategy, ["no"] * 1499)  # differs only at the bottom
        assert strategy == copy and strategy != changed and changed != strategy
        assert hash(strategy) == hash(copy) and copy in {strategy}
        text = repr(strategy)
        assert text == repr(copy) != repr(changed)
        assert text.startswith("Query(query=") and text.count("Query(") == 1500
        assert text.count("Leaf(node=") == 1501
        assert sys.getrecursionlimit() == default_recursion_limit


# Each record class as the dataclass it replaced: the same fields in the same
# order, the same defaults and the same frozenness, under the name
# "_Twin" + the record's name.
@dataclass(frozen=True)
class _TwinLeaf:
    node: object


@dataclass(frozen=True)
class _TwinNodePiece:
    nodes: object
    top: object


@dataclass
class _TwinDiagnostics:
    ok: object
    violations: object


@dataclass
class _TwinESTNode:
    assignment: object
    left: object = None
    right: object = None


@dataclass
class _TwinPBSolution:
    cost: object
    est: object


@dataclass(frozen=True)
class _TwinX3CInstance:
    universe_size: object
    sets: object


@dataclass
class _TwinReductionOutput:
    instance: object
    variant: object
    x3c: object
    pi: object
    root: object
    r_nodes: object
    t_nodes: object
    s_nodes: object
    a_nodes: object
    h_nodes: object
    z_nodes: object
    element_weight: object
    big_w: object
    gammas: object


_TWINS = {cls: globals()["_Twin" + cls.__name__]
          for cls in (Leaf, NodePiece, Diagnostics, ESTNode, PBSolution, X3CInstance, ReductionOutput)}
_FROZEN = (Leaf, NodePiece, X3CInstance)


def _as_twin(value):
    """``value`` with every record in it, nested ones included, as its twin."""
    twin = _TWINS.get(value.__class__)
    if twin is None:
        return value
    return twin(*[_as_twin(getattr(value, f.name)) for f in fields(twin)])


def _samples(cls) -> list:
    """Several values of ``cls``, with equal ones built separately."""
    inst = X3CInstance.of(6, [(0, 1, 2), (3, 4, 5)])
    if cls is Leaf:
        return [Leaf(0), Leaf(3), Leaf(node=3), Leaf(10**30)]
    if cls is NodePiece:
        return [NodePiece(frozenset({0, 1}), 0), NodePiece(frozenset({1, 0}), 0),
                NodePiece(frozenset({2}), 2), NodePiece(top=2, nodes=frozenset({2}))]
    if cls is Diagnostics:
        return [Diagnostics(True, []), Diagnostics(False, ["a"]), Diagnostics(False, ["a"]),
                Diagnostics(False, ["b"])]
    if cls is ESTNode:
        return [ESTNode(1), ESTNode(1, None, None), ESTNode(BLOCKED, right=ESTNode(2)),
                ESTNode(BLOCKED, ESTNode(3), ESTNode(2)), ESTNode(BLOCKED, ESTNode(3), ESTNode(2))]
    if cls is PBSolution:
        return [PBSolution(4, ESTNode(1)), PBSolution(4, ESTNode(1)), PBSolution(5, ESTNode(1)),
                PBSolution(est=ESTNode(2, right=ESTNode(1)), cost=4)]
    if cls is X3CInstance:
        return [inst, X3CInstance(6, ((0, 1, 2), (3, 4, 5))), X3CInstance.of(3, [(0, 1, 2)]),
                X3CInstance(universe_size=3, sets=((0, 1, 2),))]
    out = [build(inst, "diam4"), build(inst, "diam4"), build(inst, "deg16")]
    every = {f.name: getattr(out[0], f.name) for f in fields(_TwinReductionOutput)}
    return out + [ReductionOutput(**dict(every, variant="deg16"))]


@pytest.mark.parametrize("cls", list(_TWINS), ids=lambda c: c.__name__)
class TestRecordDunders:
    """The hand-written record classes behave as the dataclasses they replaced."""

    def test_repr_and_equality(self, cls):
        values = _samples(cls)
        twins = [_as_twin(v) for v in values]
        for v, t in zip(values, twins):
            assert v.__class__ is cls and t.__class__ is _TWINS[cls]
            assert repr(v) == repr(t).replace("_Twin", "")
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                try:
                    pickle.dumps(t, protocol)
                except TypeError:  # below protocol 2 a slotted InputTree does not pickle
                    assert protocol < 2
                    with pytest.raises(TypeError):
                        pickle.dumps(v, protocol)
                else:  # InputTree compares by identity, so compare the text
                    assert repr(pickle.loads(pickle.dumps(v, protocol))) == repr(v)
        equal_pairs = 0
        for i, j in itertools.product(range(len(values)), repeat=2):
            assert (values[i] == values[j]) is (twins[i] == twins[j])
            assert (values[i] != values[j]) is (twins[i] != twins[j])
            equal_pairs += i != j and values[i] == values[j]
        assert equal_pairs and not all(values[0] == v for v in values)
        assert values[0] != twins[0] and values[0] != None  # noqa: E711

    def test_hash_and_assignment(self, cls):
        for v, t in zip(_samples(cls), _samples(cls)):
            name = fields(_TWINS[cls])[-1].name
            if cls in _FROZEN:
                assert hash(v) == hash(t) == hash(_as_twin(v))
                with pytest.raises(AttributeError):
                    setattr(v, name, 0)
                with pytest.raises(AttributeError):
                    delattr(v, name)
                assert v == t
            else:
                with pytest.raises(TypeError):
                    hash(v)
                twin = _as_twin(v)
                setattr(v, name, 0)
                setattr(twin, name, 0)
                assert repr(v) == repr(twin).replace("_Twin", "") and (v == t) is (twin == _as_twin(t))

    def test_keyword_construction_and_defaults(self, cls):
        twin = _TWINS[cls]
        for v in _samples(cls):
            every = {f.name: getattr(v, f.name) for f in fields(twin)}
            required = {f.name: every[f.name] for f in fields(twin) if f.default is MISSING}
            assert cls(**every) == v and cls(*every.values()) == v
            made = cls(**required)
            assert repr(made) == repr(twin(**{k: _as_twin(x) for k, x in required.items()})).replace("_Twin", "")


def test_query_is_frozen():
    q = Query(1, Leaf(0), Leaf(1))
    with pytest.raises(AttributeError):
        q.query = 2
    with pytest.raises(AttributeError):
        del q.yes
    assert q == Query(query=1, no=Leaf(0), yes=Leaf(1)) and q.query == 1


class TestNodePiece:
    def test_whole(self, path3):
        piece = NodePiece.of(path3, range(path3.n))
        assert piece.top == 0 and piece.nodes == {0, 1, 2}

    def test_disconnected_rejected(self, path3):
        with pytest.raises(InvalidInstanceError):
            NodePiece.of(path3, [0, 2])

    def test_empty_rejected(self, path3):
        with pytest.raises(InvalidInstanceError):
            NodePiece.of(path3, [])

    @pytest.mark.parametrize("nodes", [[0, 1.5], [0, True], [0, 1.0], [0, None]],
                             ids=["float", "bool", "integral-float", "none"])
    def test_ids_that_are_not_integers_rejected(self, path3, nodes):
        # 1.5 and None were once a TypeError; True was read as node 1, 1.0 as node 1.
        with pytest.raises(InvalidInstanceError, match="out of range"):
            NodePiece.of(path3, nodes)
        assert NodePiece.of(path3, [0, 1]) == NodePiece(frozenset({0, 1}), 0)


class TestRestrict:
    def test_identity_piece(self, path3, path3_tree):
        assert restrict(path3_tree, path3, NodePiece.of(path3, range(path3.n))) == path3_tree

    def test_subtree_piece_drops_depths_by_one(self, path3, path3_tree):
        piece = NodePiece.of(path3, [1, 2])
        out = restrict(path3_tree, path3, piece)
        assert out == Query(2, no=Leaf(1), yes=Leaf(2))
        full = leaf_depths(path3_tree)
        sub = leaf_depths(out)
        assert all(sub[x] == full[x] - 1 for x in (1, 2))

    def test_singleton(self, path3, path3_tree):
        assert restrict(path3_tree, path3, NodePiece.of(path3, [0])) == Leaf(0)

    def test_depth_identity_random(self):
        rng = random.Random(13)
        for _ in range(60):
            t = random_tree(rng.randint(2, 11), rng.randrange(10**6), (0, 9))
            strategy = greedy(t)
            top = rng.randrange(t.n)
            nodes = {top}
            frontier = list(t.children[top])
            while frontier:
                c = frontier.pop()
                if rng.random() < 0.7:
                    nodes.add(c)
                    frontier.extend(t.children[c])
            piece = NodePiece.of(t, nodes)
            out = restrict(strategy, t, piece)
            full = leaf_depths(strategy)
            sub = leaf_depths(out)
            drops = uninformative_ancestor_counts(strategy, piece)
            for x in nodes:
                assert sub[x] == full[x] - drops[x]

    def test_tall_star_strategy(self, star1500, default_recursion_limit):
        tree, strategy = star1500
        whole = restrict(strategy, tree, NodePiece.of(tree, range(tree.n)))
        assert sys.getrecursionlimit() == default_recursion_limit
        assert format_decision_tree(whole) == format_decision_tree(strategy)
        piece = NodePiece.of(tree, range(0, tree.n, 2))  # the center and every other leaf
        out = restrict(strategy, tree, piece)
        assert sys.getrecursionlimit() == default_recursion_limit
        full, sub = leaf_depths(strategy), leaf_depths(out)
        drops = uninformative_ancestor_counts(strategy, piece)
        assert all(sub[x] == full[x] - drops[x] for x in piece.nodes)
