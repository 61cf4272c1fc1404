import sys

import pytest

from treesearch import InputTree, Leaf, Query, parse_instance, solve_star
from treesearch.exact import _splits, _subtree_masks
from treesearch.gen import seeded_weights, star_tree


def subtree_nodes(tree, v):
    """The nodes of T_v: those whose preorder index lies in v's interval."""
    return frozenset(x for x in range(tree.n) if tree.pre[v] <= tree.pre[x] < tree.pre[v] + tree.size[v])


def enumerate_decision_trees(tree, piece=None):
    """Every valid decision tree for the instance, or for ``piece`` (an
    n-bit mask keyed by node id); only sane for n <= 6."""
    if piece is None:
        piece = (1 << tree.n) - 1
    sub = _subtree_masks(tree)

    def gen(mask):
        if mask & (mask - 1) == 0:
            yield Leaf(mask.bit_length() - 1)
            return
        for x, inside in _splits(sub, mask):
            for no_side in gen(mask ^ inside):
                for yes_side in gen(inside):
                    yield Query(x, no_side, yes_side)

    return gen(piece)


@pytest.fixture
def path3() -> InputTree:
    """Path 0 -> 1 -> 2, unit weights."""
    return parse_instance("3 0\n0 -1 1\n1 0 1\n2 1 1\n")


@pytest.fixture
def path3_tree():
    """Query 1; NO -> leaf 0, YES -> (query 2; NO -> leaf 1, YES -> leaf 2)."""
    return Query(1, no=Leaf(0), yes=Query(2, no=Leaf(1), yes=Leaf(2)))


@pytest.fixture
def star4() -> InputTree:
    """Star: root 0 weight 0, leaves 1,2,3 with weights 3,2,1."""
    return parse_instance("4 0\n0 -1 0\n1 0 3\n2 0 2\n3 0 1\n")


@pytest.fixture(scope="session")
def star1500():
    """A star with 1500 leaves and its optimal strategy, 1500 levels tall."""
    tree = star_tree(1501, seeded_weights(1501, 1))
    return tree, solve_star(tree)[1]


@pytest.fixture
def default_recursion_limit():
    """Run at the interpreter's default recursion limit, whatever an earlier
    test raised it to, so that a walk deeper than 1000 frames fails."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield 1000
    sys.setrecursionlimit(old)
