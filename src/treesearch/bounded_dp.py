"""Bounded-height dynamic program over extended search trees (ESTs).

An EST for a forest F is a binary tree whose nodes are assigned either to a
forest node, or to a BLOCKED / UNASSIGNED placeholder; every forest node
appears as exactly one leaf and one internal node, the search property holds
among assigned nodes, and placeholders have no right child. The DP solves
subproblems over (subforest, partial left path) pairs:

* subforests are either a whole subtree T_v, or the first f child subtrees
  of some node u (``("T", v)`` / ``("F", u, f)`` below);
* a partial left path (PLP) is a sequence of BLOCKED/UNASSIGNED cells which
  the EST's left path must match in length, respecting blocked cells.

Dispatch: a single-node tree is the base case (assign the first unassigned
cell, hang the leaf as its right child, cost i*w); a forest with f >= 2
splits the unassigned cells between its last tree and the rest and unions
the two solutions; a tree with children picks the cell i for the root query
and the level t of the root's leaf, solving the child forest on the prefix
path with i blocked plus t-i fresh cells. t ranges over [i, B]: t = i is the
degenerate placement with the leaf as the direct right child of its query
(the child forest then works entirely above the query), which cheaper ESTs
sometimes require.

Exactness: every decision tree has height <= n-1, so an optimal EST of
height <= n exists and running with B = n (or any B past the instance's
height bound) returns the exact optimum after conversion. The DP's work
grows like 3^B, so ``optimal_bounded`` first tries smaller budgets and keeps
one only when its cost is at most ``deep_cost_bound``, a lower bound on every
search tree too tall for that budget; such a result is exact as well.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from typing import Optional, Union

from .errors import InfeasibleError, InvalidDecisionTreeError, ResourceLimitError
from .model import DecisionNode, Diagnostics, InputTree, Leaf, Query, build_decision_tree, cost as dt_cost


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


BLOCKED = _Marker("BLOCKED")
UNASSIGNED = _Marker("UNASSIGNED")

Assignment = Union[int, _Marker]
PLP = tuple  # cells, each BLOCKED or UNASSIGNED
SubforestId = tuple  # ("T", v) or ("F", u, f)

# The DP's time grows about 2.5x per budget level (random n = 21 tree: 0.7 s
# at budget 10, 4.9 s at 12), so larger budgets are refused by default.
DEFAULT_HEIGHT_CAP = 12


@dataclass
class ESTNode:
    assignment: Assignment
    left: Optional["ESTNode"] = None
    right: Optional["ESTNode"] = None


def est_iter(root: Optional[ESTNode]):
    if root is None:
        return
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        yield node, d
        if node.left is not None:
            stack.append((node.left, d + 1))
        if node.right is not None:
            stack.append((node.right, d + 1))


def est_cost(root: ESTNode, tree: InputTree, forest_mask: Optional[int] = None) -> int:
    """Sum of depth * weight over leaves assigned into the forest."""
    if forest_mask is None:
        forest_mask = tree.full_mask()
    total = 0
    for node, d in est_iter(root):
        a = node.assignment
        if node.left is None and node.right is None and isinstance(a, int) and forest_mask >> a & 1:
            total += d * tree.weight[a]
    return total


def est_height(root: ESTNode) -> int:
    return max(d for _, d in est_iter(root))


def left_path(root: ESTNode) -> list[ESTNode]:
    out = []
    node = root
    while node is not None:
        out.append(node)
        node = node.left
    return out


def est_compatible(root: ESTNode, plp: PLP) -> bool:
    """Left-path length equals |P| and blocked cells of P are blocked in it."""
    lp = left_path(root)
    if len(lp) != len(plp):
        return False
    return all(node.assignment is BLOCKED for node, cell in zip(lp, plp) if cell is BLOCKED)


def forest_mask(tree: InputTree, fid: SubforestId) -> int:
    """Node-set mask of a subforest id."""
    if fid[0] == "T":
        return tree.subtree_mask[fid[1]]
    u, f = fid[1], fid[2]
    m = 0
    for c in tree.children[u][:f]:
        m |= tree.subtree_mask[c]
    return m


def validate_est(root: ESTNode, tree: InputTree, forest_mask: Optional[int] = None) -> Diagnostics:
    """Check EST properties: one leaf and one internal node per forest node,
    the search property among assigned nodes, and no right child under
    placeholders."""
    if forest_mask is None:
        forest_mask = tree.full_mask()
    violations = []
    leaves: dict[int, int] = {}
    internals: dict[int, int] = {}
    stack = [(root, forest_mask)]
    while stack:
        node, allowed = stack.pop()
        a = node.assignment
        is_leaf = node.left is None and node.right is None
        if isinstance(a, int):
            if not forest_mask >> a & 1:
                violations.append(f"assignment {a} outside the forest")
                continue
            if not allowed >> a & 1:
                violations.append(f"node assigned {a} violates the search property")
            if is_leaf:
                leaves[a] = leaves.get(a, 0) + 1
            else:
                internals[a] = internals.get(a, 0) + 1
            sub = tree.subtree_mask[a]
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


def _plp_to_bits(plp: PLP) -> tuple[int, int]:
    length = len(plp)
    blocked = 0
    for i, cell in enumerate(plp):
        if cell is BLOCKED:
            blocked |= 1 << i
        elif cell is not UNASSIGNED:
            raise ValueError(f"PLP cells must be BLOCKED or UNASSIGNED, got {cell!r}")
    return length, blocked


class _PBSolver:
    """Memoized solver for the (subforest, PLP) subproblems at a fixed height
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
                    result = self._case_tree(v, len(kids), length, blocked, un)
            else:
                result = self._case_forest(fid[1], fid[2], length, blocked, un)
        memo[key] = result
        return result

    def _case_tree(self, v: int, deg: int, length: int, blocked: int, un: int):
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


@dataclass
class PBSolution:
    cost: int
    est: ESTNode


def solve_pb(tree: InputTree, forest: SubforestId, plp: PLP, budget: int) -> Optional[PBSolution]:
    """Minimum-cost EST for the subforest, compatible with the PLP, height <= budget.

    Returns None when infeasible (no unassigned cell, or nothing fits)."""
    length, blocked = _plp_to_bits(plp)
    if length > budget:
        raise ValueError(f"|P| = {length} exceeds the height budget {budget}")
    if forest[0] == "F":
        u, f = forest[1], forest[2]
        if not 1 <= f <= len(tree.children[u]):
            raise ValueError(f"bad subforest: node {u} has {len(tree.children[u])} children, f={f}")
    solver = _PBSolver(tree, budget)
    entry = solver.solve(forest, length, blocked)
    if entry is None:
        return None
    est = _chain(solver.cells(forest, length, blocked))
    return PBSolution(entry[0], est)


def height_bound(tree: InputTree) -> int:
    """Height budget sufficient for exactness: some optimal search tree is
    strictly shorter than this.

    Instantiates the geometric-decrease argument with ratio 1/2 (so
    6*(max_children+1)+1 levels at least halve the optimal tree's remaining
    weight) plus the zero-weight completion bound (max_children+1)*log2(n),
    one level for the EST conversion and one for safety.
    """
    d1 = tree.max_children + 1
    logw = (tree.total_weight).bit_length()  # ceil(log2(w(T)+1)) for w(T)>=0
    logn = tree.n.bit_length()               # ceil(log2(n+1))
    return (6 * d1 + 1) * logw + d1 * logn + 2


def est_to_search_tree(est: ESTNode, tree: InputTree, check: bool = True) -> DecisionNode:
    """Convert an EST for the whole tree into a search tree: left-delete the
    internal node assigned to the root, right-delete every placeholder.

    The result costs at most est_cost - w(root); equality holds when the
    root's query is the EST root and no placeholder sits above an assigned
    leaf."""
    if check:
        validate_est(est, tree).raise_if_invalid()
    root_id = tree.root

    def convert(node: Optional[ESTNode]):
        while node is not None:
            a = node.assignment
            if a is BLOCKED or a is UNASSIGNED:
                node = node.left  # right deletion of a placeholder
            elif a == root_id and (node.left is not None or node.right is not None):
                node = node.right  # left deletion of the root's query
            else:
                break
        if node is None:
            return None
        if node.left is None and node.right is None:
            return Leaf(node.assignment)
        # A query with an empty side carries no information; it is spliced out.
        return node.assignment, node.left, node.right

    out = build_decision_tree(est, convert)
    if out is None:
        raise InvalidDecisionTreeError(["EST converts to an empty search tree"])
    if check:
        from .model import validate

        validate(out, tree).raise_if_invalid()
    return out


def search_tree_to_est(root: DecisionNode, tree: InputTree) -> ESTNode:
    """Round-trip helper: add the root's query above the root's leaf.

    The root's leaf is always the all-NO leaf of a valid search tree;
    replacing it with (query root -> YES: leaf root) yields an EST whose cost
    is exactly the search-tree cost plus w(root), one level taller at most.
    """
    def lift(node: DecisionNode) -> ESTNode:
        if isinstance(node, Query):
            return ESTNode(node.query)
        if node.node == tree.root:
            return ESTNode(tree.root, right=ESTNode(tree.root))
        return ESTNode(node.node)

    est = lift(root)
    todo = [(root, est)]  # ESTNodes are mutable, so children attach top-down
    while todo:
        node, lifted = todo.pop()
        if isinstance(node, Query):
            lifted.left, lifted.right = lift(node.no), lift(node.yes)
            todo += ((node.no, lifted.left), (node.yes, lifted.right))
    return est


def deep_cost_bound(tree: InputTree, height: int) -> int:
    """Lower bound on the cost of every search tree of height >= ``height``:
    w(T) + sum over s = 2..height of S(s), S(s) the sum of the s smallest
    weights.

    Such a tree has a root-to-leaf path of at least ``height`` queries. The
    piece at depth 0 on it is T, and the piece at depth k >= 1 still needs
    height - k more queries, so it has at least height - k + 1 nodes (a piece
    of p nodes is resolved within p - 1 queries) and weighs at least
    S(height - k + 1). A tree's cost is the sum of w(piece) over its
    internal nodes, and weights are non-negative.
    """
    smallest = list(itertools.accumulate(sorted(tree.weight)))  # smallest[s-1] = S(s)
    return tree.total_weight + sum(smallest[1:height])


def _solve_at(tree: InputTree, budget: int) -> Optional[tuple[int, DecisionNode]]:
    """The DP's search tree at one height budget, or None when none fits."""
    solution = solve_pb(tree, ("T", tree.root), (UNASSIGNED,) * budget, budget)
    if solution is None:
        return None
    out = est_to_search_tree(solution.est, tree)
    c = dt_cost(out, tree)
    assert c <= solution.cost - tree.weight[tree.root]
    return c, out


def optimal_bounded(
    tree: InputTree,
    budget: Optional[int] = None,
    cap: int = DEFAULT_HEIGHT_CAP,
) -> tuple[int, DecisionNode]:
    """Exact optimal search tree via the EST dynamic program.

    An explicit ``budget`` runs the DP once at that height; a too-small
    budget can make the problem infeasible. By default the budget is
    top = min(height_bound, n): both are sufficient for exactness and the
    memo is O(n * 2^B), so the smaller wins. Budgets above ``cap`` raise
    ResourceLimitError before any work (use greedy instead: the FPTAS runs
    the same budget).

    The default then deepens: it runs the DP at B = ceil(log2 n) + 1, ...,
    top - 1 (no search tree is shorter than ceil(log2 n)) and returns the
    first result whose cost c_B is at most LB(B) = ``deep_cost_bound(tree,
    B)``, falling back to the run at top. The certified result is optimal:

    * the DP at B costs no more than any search tree D of height <= B - 1:
      D lifts to an EST of height <= B costing cost(D) + w(root)
      (``search_tree_to_est``), and the DP's EST, costing no more, converts
      to a search tree cheaper than itself by at least w(root);
    * any search tree of height >= B has a root-to-leaf path of at least B
      queries, on which the piece at depth 0 is T and the piece at depth
      k >= 1 has at least B - k + 1 nodes; the cost of a tree is the sum of
      w(piece) over its internal nodes, so it costs >= LB(B) >= c_B.

    Weights are non-negative, so zero weights only weaken LB(B) and need no
    special case. The DP's work grows like 3^B, so when no smaller budget
    certifies, the runs below top together cost about half the run at top
    (more at small n, where fixed costs dominate).
    """
    deepen = range(0)
    if budget is None:
        budget = min(height_bound(tree), max(tree.n, 1))
        deepen = range((tree.n - 1).bit_length() + 1, budget)
    if budget > cap:
        raise ResourceLimitError(
            f"height budget {budget} exceeds the cap {cap}; use greedy"
        )
    for b in deepen:
        found = _solve_at(tree, b)
        if found is not None and found[0] <= deep_cost_bound(tree, b):
            return found
    found = _solve_at(tree, budget)
    if found is None:
        raise InfeasibleError(f"no search tree within height budget {budget}")
    return found
