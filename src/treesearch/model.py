"""Instance and strategy data model.

An instance is a rooted tree with nonnegative integer node weights. A
strategy is a binary decision tree over edge queries: querying node v asks
"is the marked node inside the subtree rooted at v?", the right child is
the YES branch and the left child is the NO branch. Each leaf names the
node identified by that sequence of answers.

Weights are plain Python ints, so arbitrary-precision values (the hardness
reduction needs them) work throughout.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import InvalidDecisionTreeError, InvalidInstanceError


class InputTree:
    """A rooted tree with dense node ids 0..n-1 and integer weights >= 0.

    ``children_order`` fixes the order of each node's children; when omitted
    it defaults to ascending id order. The order is semantically irrelevant
    for costs but is part of instance identity (file round-trips preserve it)
    and fixes the child indexing used by the bounded-height DP.

    ``pre`` numbers the nodes in one depth-first preorder and ``size`` counts
    each subtree's nodes, so T_v holds exactly the nodes x with
    pre[v] <= pre[x] < pre[v] + size[v]. Subtrees are stored only as these
    intervals (``postorder`` is the preorder reversed), so memory is O(n).

    Types, ranges and counts are checked over whole columns by built-ins
    (``set``, ``min``, ``max``, ``count``); only the listed children's
    parents are checked one by one. An error names the first offending
    node, found once a column has failed.
    """

    __slots__ = (
        "n", "root", "parent", "children", "weight",
        "pre", "size", "postorder", "total_weight", "max_children",
    )

    def __init__(
        self,
        parent: Sequence[int],
        weight: Sequence[int],
        children_order: Optional[Sequence[Sequence[int]]] = None,
    ):
        n = self.n = len(parent)
        if n == 0:
            raise InvalidInstanceError("instance must have at least one node")
        if len(weight) != n:
            raise InvalidInstanceError("parent and weight lengths differ")
        parent = self.parent = tuple(parent)
        if set(map(type, parent)) != {int}:  # a float id was once truncated, a bool read as 0 or 1
            raise InvalidInstanceError("parent ids must be integers")
        if parent.count(-1) != 1:
            raise InvalidInstanceError(f"expected exactly one root, found {parent.count(-1)}")
        root = self.root = parent.index(-1)
        if min(parent) < -1 or max(parent) >= n:
            v = next(v for v, p in enumerate(parent) if not -1 <= p < n)
            raise InvalidInstanceError(f"node {v}: parent {parent[v]} out of range")
        weight = tuple(weight)
        if set(map(type, weight)) != {int}:  # an int subclass other than bool is read as an int
            weight = tuple(int(w) if isinstance(w, int) and not isinstance(w, bool) else -1 for w in weight)
        if min(weight) < 0:
            raise InvalidInstanceError("weights must be nonnegative integers")
        self.weight = weight

        if children_order is None:
            children_order = [[] for _ in range(n)]
            for v, p in enumerate(parent):
                if p != -1:
                    children_order[p].append(v)
        children = self.children = tuple(map(tuple, children_order))
        if len(children) != n:
            raise InvalidInstanceError("children_order must cover every node")
        listed = [*chain.from_iterable(children)]
        if listed and (set(map(type, listed)) != {int} or min(listed) < 0 or max(listed) >= n):
            c = next(c for c in listed if c.__class__ is not int or not 0 <= c < n)  # a negative id would wrap
            raise InvalidInstanceError(f"children_order lists {c!r}, not a node id")
        for u, kids in enumerate(children):
            for c in kids:
                if parent[c] != u:
                    raise InvalidInstanceError(f"node {c} listed under {u} but parent is {parent[c]}")
        if len(set(listed)) != len(listed):
            seen: set = set()
            c = next(c for c in listed if c in seen or seen.add(c))
            raise InvalidInstanceError(f"node {c} listed twice in children_order")
        if len(listed) != n - 1:
            raise InvalidInstanceError("children_order must list every non-root node once")

        # Each non-root node is listed once, under its parent, so the walk
        # ends; it reaches all n nodes only if the parent links form a tree.
        order = []
        pre = [0] * n
        stack = [root]
        while stack:
            u = stack.pop()
            pre[u] = len(order)
            order.append(u)
            stack += children[u]
        if len(order) != n:
            raise InvalidInstanceError("parent links do not form a single tree")
        self.pre = tuple(pre)
        post = self.postorder = tuple(reversed(order))  # children before parents, the root last
        size = [1] * n
        for u in post[:-1]:
            size[parent[u]] += size[u]
        self.size = tuple(size)
        self.total_weight = sum(weight)
        self.max_children = max(map(len, children))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InputTree)
            and self.parent == other.parent
            and self.children == other.children
            and self.weight == other.weight
        )

    def __hash__(self):
        return hash((self.parent, self.children, self.weight))

    def __repr__(self):
        return f"InputTree(n={self.n}, root={self.root}, w(T)={self.total_weight})"


class _Record:
    """A record whose fields are its ``__slots__``, in order: the repr lists
    them as ``Name(field=value, ...)``, two records are equal when they are
    of the same class with equal fields, and a record is unhashable, since
    its fields can be reassigned.

    ``__init_subclass__`` writes each record class's ``__init__`` from its
    ``__slots__``, as ``dataclasses`` would: fields by position or keyword,
    in slot order, the last ``len(_defaults)`` of them optional, each stored
    through its slot's descriptor, which passes by a `_FrozenRecord`'s
    ``__setattr__`` and costs less than ``object.__setattr__`` (about 360
    against 520 ns per ``Query``). ``dataclasses`` itself is not imported:
    its import cost every CLI child milliseconds."""

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):
        fields = cls.__dict__.get("__slots__", ())
        if not fields:  # no fields of its own, like _FrozenRecord
            return
        namespace = {f"_set_{f}": cls.__dict__[f].__set__ for f in fields}
        exec(f"def __init__(self, {', '.join(fields)}):\n" + "".join(f"    _set_{f}(self, {f})\n" for f in fields),
             namespace)
        cls.__init__ = init = namespace["__init__"]
        init.__qualname__, init.__defaults__ = f"{cls.__qualname__}.__init__", cls._defaults

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__slots__])
        return f"{self.__class__.__qualname__}({inner})"

    def __reduce__(self):  # copy and pickle through the constructor
        return self.__class__, self._fields()


class _FrozenRecord(_Record):
    """A `_Record` whose fields are set once, by ``__init__``; it hashes by
    the tuple of its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Leaf(_FrozenRecord):
    __slots__ = ("node",)


class Query(_FrozenRecord):
    """A query node. Equality, hashing and repr walk the strategy with an
    explicit stack, so they work on strategies taller than the recursion
    limit; they give value equality, equal hashes for equal trees, and the
    repr text ``Query(query=.., no=.., yes=..)``. ``no`` is the NO branch
    (the marked node is outside T_query), ``yes`` the YES branch (inside)."""

    __slots__ = ("query", "no", "yes")

    def _preorder(self) -> list:
        """Query ids and the other nodes (leaves, None) in preorder. Every
        query has two children, so this list determines the tree."""
        out = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            if node.__class__ is Query:
                out.append(node.query)
                stack += (node.yes, node.no)
            else:
                out.append(node)
        return out

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def __repr__(self) -> str:
        out = []
        stack: list = [self]  # nodes to print, and text already formatted
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
            elif item.__class__ is Query:
                stack += (")", item.yes, ", yes=", item.no, f"Query(query={item.query!r}, no=")
            else:
                out.append(repr(item))
        return "".join(out)


DecisionNode = Union[Leaf, Query]


class NodePiece(_FrozenRecord):
    """A connected set of instance nodes with a unique topmost node.

    This is the "remaining search space" at a decision-tree node: querying
    can only ever shrink the candidate set to such pieces. ``nodes`` is the
    set of node ids and ``top`` its topmost node.
    """

    __slots__ = ("nodes", "top")

    @staticmethod
    def of(tree: InputTree, nodes: Iterable[int]) -> "NodePiece":
        ns = frozenset(nodes)
        if not ns:
            raise InvalidInstanceError("a NodePiece must be nonempty")
        for v in ns:
            if v.__class__ is not int or not 0 <= v < tree.n:  # not isinstance: True would pass as node 1
                raise InvalidInstanceError(f"node {v!r} out of range")
        tops = [v for v in ns if v == tree.root or tree.parent[v] not in ns]
        if len(tops) != 1:
            raise InvalidInstanceError(f"not a connected piece: {len(tops)} topmost nodes")
        # Every other node's parent lies in ns, so parents lead each node up
        # to the one top: the piece is connected.
        return NodePiece(ns, tops[0])


def iter_nodes(root: Optional[DecisionNode]) -> Iterator[tuple[DecisionNode, int]]:
    """Yield (node, depth) over a decision tree, iteratively."""
    if root is None:
        return
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        yield node, d
        if isinstance(node, Query):
            if node.no is not None:
                stack.append((node.no, d + 1))
            if node.yes is not None:
                stack.append((node.yes, d + 1))


def build_decision_tree(root, expand: Callable) -> Optional[DecisionNode]:
    """Build a decision tree from the item ``root`` without recursion.

    ``expand(item)`` returns either a finished node (None for an empty one)
    or a triple (query, no_item, yes_item) whose items are expanded in turn.
    A query whose side comes out empty is replaced by its other side.
    """
    todo = [(root, None)]  # (item, None) to expand, (None, query) to join
    built: list[Optional[DecisionNode]] = []
    while todo:
        item, query = todo.pop()
        if query is not None:  # both sides of ``query`` are the last two built
            yes, no = built.pop(), built.pop()
            built.append(yes if no is None else no if yes is None else Query(query, no, yes))
            continue
        out = expand(item)
        if isinstance(out, tuple):
            todo += ((None, out[0]), (out[2], None), (out[1], None))
        else:
            built.append(out)
    return built[0]


def leaf_depths(root: DecisionNode) -> dict[int, int]:
    """Map each leaf assignment to its depth. Duplicate leaves keep the last seen."""
    return {n.node: d for n, d in iter_nodes(root) if isinstance(n, Leaf)}


def query_depths(root: DecisionNode) -> dict[int, int]:
    """Map each queried node to the depth of its (unique, in valid trees) query."""
    return {n.query: d for n, d in iter_nodes(root) if isinstance(n, Query)}


def tree_height(root: DecisionNode) -> int:
    return max(d for _, d in iter_nodes(root))


def tree_size(root: DecisionNode) -> int:
    return sum(1 for _ in iter_nodes(root))


class Diagnostics(_Record):
    __slots__ = ("ok", "violations")

    def raise_if_invalid(self):
        if not self.ok:
            raise InvalidDecisionTreeError(self.violations)


def measure(root: Optional[DecisionNode], tree: InputTree, piece: Optional[NodePiece] = None,
            check: bool = True) -> tuple[list[str], int, int, int]:
    """One walk over a strategy: the violations that ``validate`` lists
    (looked for only with ``check``), then the cost, the height and the node
    count, which are those of ``cost``, ``tree_height`` and ``tree_size`` on
    a valid strategy.

    Properties checked: every internal node has both children; leaf
    assignments are a bijection onto the piece; and the search property --
    below a YES branch only nodes of the queried subtree may appear, below a
    NO branch none of them may. The piece's node set (``range(n)`` when no
    piece is given) is read once, into a mask of permitted preorder
    positions: T_q is ``size[q]`` bits from ``pre[q]``, the whole tree n
    bits. A leaf or query id that is not an ``int`` in 0..n-1 is a
    violation; a piece holding one raises ``InvalidInstanceError``.
    """
    if root is None:
        return ["empty decision tree"] if check else [], 0, 0, 0
    pre, size, weight, n = tree.pre, tree.size, tree.weight, tree.n
    start = 0
    nodes = range(n) if piece is None else piece.nodes
    if check:
        if piece is not None and any(v.__class__ is not int or not 0 <= v < n for v in nodes):
            raise InvalidInstanceError("the piece holds an id that is no node of the tree")
        start = (1 << n) - 1 if len(nodes) == n else sum(1 << pre[v] for v in nodes)
    violations: list[str] = []
    seen: dict[int, int] = {}
    total = height = count = 0
    # stack entries: (node, preorder mask of assignments permitted here, depth)
    stack = [(root, start, 0)]
    while stack:
        node, allowed, d = stack.pop()
        count += 1
        if d > height:
            height = d
        if isinstance(node, Leaf):
            v = node.node
            if check:
                if v.__class__ is not int or not 0 <= v < n:
                    violations.append(f"leaf id {v} out of range")
                    continue
                seen[v] = seen.get(v, 0) + 1
                if not allowed >> pre[v] & 1:
                    violations.append(f"leaf {v} violates the search property on its root path")
            total += d * weight[v]
        elif isinstance(node, Query):
            sub = 0
            if check:
                q = node.query
                if q.__class__ is not int or not 0 <= q < n:
                    violations.append(f"query id {q} out of range")
                    continue
                if not allowed >> pre[q] & 1:
                    violations.append(f"query {q} violates the search property on its root path")
                if node.no is None or node.yes is None:
                    violations.append(f"query {q} is missing a child")
                sub = ((1 << size[q]) - 1) << pre[q]
            if node.yes is not None:
                stack.append((node.yes, allowed & sub, d + 1))
            if node.no is not None:
                stack.append((node.no, allowed & ~sub, d + 1))
        elif check:
            violations.append(f"unexpected node type {type(node).__name__}")
    if check:
        for v in nodes:
            if v not in seen:
                violations.append(f"no leaf identifies node {v}")
        for v, k in seen.items():
            if k > 1:
                violations.append(f"node {v} identified by {k} leaves")
            if v not in nodes:
                violations.append(f"leaf {v} is outside the instance piece")
    return violations, total, height, count


def validate(root: DecisionNode, tree: InputTree, piece: Optional[NodePiece] = None) -> Diagnostics:
    """Check that ``root`` is a valid decision tree for ``tree`` (or a piece of it); see ``measure``."""
    violations = measure(root, tree, piece)[0]
    return Diagnostics(not violations, violations)


def cost(root: DecisionNode, tree: InputTree, piece: Optional[NodePiece] = None, check: bool = True) -> int:
    """Weighted external path length: sum over leaves of depth * weight.

    With ``check`` (the default) the tree is validated in the same walk and
    an ``InvalidDecisionTreeError`` carries the violations.
    """
    violations, total, _, _ = measure(root, tree, piece, check)
    if violations:
        raise InvalidDecisionTreeError(violations)
    return total


def restrict(root: DecisionNode, tree: InputTree, piece: NodePiece) -> DecisionNode:
    """Prune a valid decision tree down to a strategy for ``piece``.

    A leaf survives iff its assignment is in ``piece.nodes``; an internal node
    whose pruned children leave only one side is replaced by that side.
    The result is a valid decision tree for the sub-instance induced by the
    piece, and each surviving leaf rises by exactly the number of ancestors
    whose query carried no information about the piece (see
    ``uninformative_ancestor_counts``).
    """
    validate(root, tree).raise_if_invalid()

    def prune(node: DecisionNode):
        if isinstance(node, Leaf):
            return node if node.node in piece.nodes else None
        return node.query, node.no, node.yes

    out = build_decision_tree(root, prune)
    if out is None:
        raise InvalidDecisionTreeError(["restriction produced an empty tree"])
    validate(out, tree, piece).raise_if_invalid()
    return out


def uninformative_ancestor_counts(root: DecisionNode, piece: NodePiece) -> dict[int, int]:
    """For each piece node x, count ancestors of its leaf whose query tells
    nothing about the piece: queries to nodes outside the piece, plus queries
    to the piece's topmost node (the whole piece answers YES to those).

    These are exactly the ancestors removed by ``restrict``, so the depth of
    l_x drops by exactly this count.
    """
    out: dict[int, int] = {}
    stack = [(root, 0)]
    useful = piece.nodes - {piece.top}
    while stack:
        node, k = stack.pop()
        if isinstance(node, Leaf):
            if node.node in piece.nodes:
                out[node.node] = k
        elif isinstance(node, Query):
            k2 = k + (0 if node.query in useful else 1)
            if node.no is not None:
                stack.append((node.no, k2))
            if node.yes is not None:
                stack.append((node.yes, k2))
    return out
