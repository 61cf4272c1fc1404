import random
import sys
from dataclasses import dataclass

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
    left_delete,
    opt_cost,
    parse_decision_tree,
    restrict,
    right_delete,
    uninformative_ancestor_counts,
    validate,
)
from treesearch.gen import random_tree
from treesearch.model import iter_nodes


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

    def test_children_order_respected(self):
        t = InputTree([-1, 0, 0], [1, 1, 1], [[2, 1], [], []])
        assert t.children[0] == (2, 1)

    def test_subtree_masks(self, path3):
        assert path3.subtree_mask[0] == 0b111
        assert path3.subtree_mask[1] == 0b110
        assert path3.in_subtree(2, 1) and not path3.in_subtree(0, 1)


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

    def test_piece_weights_split_at_every_query(self):
        # At every query the YES-side plus NO-side leaf weights equal the
        # weight of the piece tracked by the answers so far.
        rng = random.Random(7)
        for _ in range(20):
            t = random_tree(rng.randint(2, 12), rng.randrange(10**6), (0, 9))
            strategy = opt_cost(t)[1] if t.n <= 9 else greedy(t)

            def leaf_weight(node, piece_mask):
                if isinstance(node, Leaf):
                    return t.weight[node.node]
                sub = t.subtree_mask[node.query]
                no_w = leaf_weight(node.no, piece_mask & ~sub)
                yes_w = leaf_weight(node.yes, piece_mask & sub)
                assert no_w + yes_w == t.mask_weight(piece_mask)
                return no_w + yes_w

            assert leaf_weight(strategy, t.full_mask()) == t.total_weight


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


class TestNodePiece:
    def test_whole(self, path3):
        piece = NodePiece.whole(path3)
        assert piece.top == 0 and piece.mask == 0b111

    def test_disconnected_rejected(self, path3):
        with pytest.raises(InvalidInstanceError):
            NodePiece.of(path3, [0, 2])

    def test_empty_rejected(self, path3):
        with pytest.raises(InvalidInstanceError):
            NodePiece.of(path3, [])


class TestRestrict:
    def test_identity_piece(self, path3, path3_tree):
        assert restrict(path3_tree, path3, NodePiece.whole(path3)) == path3_tree

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
        whole = restrict(strategy, tree, NodePiece.whole(tree))
        assert sys.getrecursionlimit() == default_recursion_limit
        assert format_decision_tree(whole) == format_decision_tree(strategy)
        piece = NodePiece.of(tree, range(0, tree.n, 2))  # the center and every other leaf
        out = restrict(strategy, tree, piece)
        assert sys.getrecursionlimit() == default_recursion_limit
        full, sub = leaf_depths(strategy), leaf_depths(out)
        drops = uninformative_ancestor_counts(strategy, piece)
        assert all(sub[x] == full[x] - drops[x] for x in piece.nodes)
