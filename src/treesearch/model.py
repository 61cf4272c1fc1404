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

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import InvalidDecisionTreeError, InvalidInstanceError


class InputTree:
    """A rooted tree with dense node ids 0..n-1 and integer weights >= 0.

    ``children_order`` fixes the order of each node's children; when omitted
    it defaults to ascending id order. The order is semantically irrelevant
    for costs but is part of instance identity (file round-trips preserve it)
    and fixes the child indexing used by the bounded-height DP.
    """

    __slots__ = (
        "n", "root", "parent", "children", "weight",
        "subtree_mask", "postorder", "depth", "total_weight", "max_children",
    )

    def __init__(
        self,
        parent: Sequence[int],
        weight: Sequence[int],
        children_order: Optional[Sequence[Sequence[int]]] = None,
    ):
        n = len(parent)
        if n == 0:
            raise InvalidInstanceError("instance must have at least one node")
        if len(weight) != n:
            raise InvalidInstanceError("parent and weight lengths differ")
        roots = [v for v in range(n) if parent[v] == -1]
        if len(roots) != 1:
            raise InvalidInstanceError(f"expected exactly one root, found {len(roots)}")
        self.n = n
        self.root = roots[0]
        self.parent = tuple(int(p) for p in parent)
        for v, p in enumerate(self.parent):
            if v != self.root and not (0 <= p < n):
                raise InvalidInstanceError(f"node {v}: parent {p} out of range")
        for w in weight:
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise InvalidInstanceError("weights must be nonnegative integers")
        self.weight = tuple(int(w) for w in weight)

        if children_order is None:
            kids = [[] for _ in range(n)]
            for v in range(n):
                if v != self.root:
                    kids[self.parent[v]].append(v)
        else:
            kids = [list(c) for c in children_order]
            if len(kids) != n:
                raise InvalidInstanceError("children_order must cover every node")
            seen = set()
            for u in range(n):
                for c in kids[u]:
                    if self.parent[c] != u:
                        raise InvalidInstanceError(f"node {c} listed under {u} but parent is {self.parent[c]}")
                    if c in seen:
                        raise InvalidInstanceError(f"node {c} listed twice in children_order")
                    seen.add(c)
            if len(seen) != n - 1:
                raise InvalidInstanceError("children_order must list every non-root node once")
        self.children = tuple(tuple(c) for c in kids)

        # Iterative DFS; also detects cycles / disconnected parent links.
        order = []
        depth = [-1] * n
        depth[self.root] = 0
        stack = [self.root]
        while stack:
            u = stack.pop()
            order.append(u)
            for c in self.children[u]:
                depth[c] = depth[u] + 1
                stack.append(c)
        if len(order) != n:
            raise InvalidInstanceError("parent links do not form a single tree")
        self.depth = tuple(depth)
        post = list(reversed(order))  # children before parents
        self.postorder = tuple(post)
        mask = [0] * n
        for u in post:
            m = 1 << u
            for c in self.children[u]:
                m |= mask[c]
            mask[u] = m
        self.subtree_mask = tuple(mask)
        self.total_weight = sum(self.weight)
        self.max_children = max(len(c) for c in self.children)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def in_subtree(self, x: int, v: int) -> bool:
        """True iff x lies in the subtree rooted at v."""
        return bool(self.subtree_mask[v] >> x & 1)

    def subtree_nodes(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self.subtree_mask[v]))

    def mask_weight(self, mask: int) -> int:
        return sum(self.weight[v] for v in _bits(mask))

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


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


@dataclass(frozen=True)
class Leaf:
    node: int


@dataclass(frozen=True, eq=False, repr=False)
class Query:
    """A query node. Equality, hashing and repr walk the strategy with an
    explicit stack, so they work on strategies taller than the recursion
    limit; they agree with what the dataclass would generate (value
    equality, equal hashes for equal trees, the same repr text)."""

    query: int
    no: Optional["DecisionNode"]   # NO branch: marked node outside T_query
    yes: Optional["DecisionNode"]  # YES branch: marked node inside T_query

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


@dataclass(frozen=True)
class NodePiece:
    """A connected set of instance nodes with a unique topmost node.

    This is the "remaining search space" at a decision-tree node: querying
    can only ever shrink the candidate set to such pieces.
    """

    nodes: frozenset[int]
    top: int
    mask: int

    @staticmethod
    def of(tree: InputTree, nodes: Iterable[int]) -> "NodePiece":
        ns = frozenset(nodes)
        if not ns:
            raise InvalidInstanceError("a NodePiece must be nonempty")
        mask = 0
        for v in ns:
            if not 0 <= v < tree.n:
                raise InvalidInstanceError(f"node {v} out of range")
            mask |= 1 << v
        tops = [v for v in ns if v == tree.root or tree.parent[v] not in ns]
        if len(tops) != 1:
            raise InvalidInstanceError(f"not a connected piece: {len(tops)} topmost nodes")
        top = tops[0]
        # Connectivity: everything must hang below top via parents inside ns.
        if mask & ~tree.subtree_mask[top]:
            raise InvalidInstanceError("piece contains nodes outside its top's subtree")
        for v in ns:
            if v != top and tree.parent[v] not in ns:
                raise InvalidInstanceError("piece is not connected")
        return NodePiece(ns, top, mask)

    @staticmethod
    def whole(tree: InputTree) -> "NodePiece":
        return NodePiece(frozenset(range(tree.n)), tree.root, tree.full_mask())


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


@dataclass
class Diagnostics:
    ok: bool
    violations: list[str]

    def raise_if_invalid(self):
        if not self.ok:
            raise InvalidDecisionTreeError(self.violations)


def validate(root: DecisionNode, tree: InputTree, piece: Optional[NodePiece] = None) -> Diagnostics:
    """Check that ``root`` is a valid decision tree for ``tree`` (or a piece of it).

    Properties checked: every internal node has both children; leaf
    assignments are a bijection onto the piece; and the search property --
    below a YES branch only nodes of the queried subtree may appear, below a
    NO branch none of them may.
    """
    if piece is None:
        piece = NodePiece.whole(tree)
    violations: list[str] = []
    seen: dict[int, int] = {}
    # stack entries: (node, allowed-mask of assignments permitted here)
    stack = [(root, piece.mask)]
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
            sub = tree.subtree_mask[q]
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


def cost(root: DecisionNode, tree: InputTree, piece: Optional[NodePiece] = None, check: bool = True) -> int:
    """Weighted external path length: sum over leaves of depth * weight.

    With ``check`` (the default) the tree is validated first and an
    ``InvalidDecisionTreeError`` carries the diagnostics.
    """
    if check:
        validate(root, tree, piece).raise_if_invalid()
    w = tree.weight
    return sum(d * w[n.node] for n, d in iter_nodes(root) if isinstance(n, Leaf))


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


def restrict(root: DecisionNode, tree: InputTree, piece: NodePiece) -> DecisionNode:
    """Prune a valid decision tree down to a strategy for ``piece``.

    A leaf survives iff its assignment is in the piece; an internal node
    whose pruned children leave only one side is replaced by that side.
    The result is a valid decision tree for the sub-instance induced by the
    piece, and each surviving leaf rises by exactly the number of ancestors
    whose query carried no information about the piece (see
    ``uninformative_ancestor_counts``).
    """
    validate(root, tree).raise_if_invalid()
    mask = piece.mask

    def prune(node: DecisionNode):
        if isinstance(node, Leaf):
            return node if mask >> node.node & 1 else None
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
