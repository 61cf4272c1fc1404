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
sometimes require. Every case reads only subforests further down the tree,
so one postorder pass fills each subforest's table over all PLPs of length
<= B, 2^(B+1) cells, with no recursion.

Exactness: every decision tree has height <= n-1, so an optimal EST of
height <= n exists and running with B = n (or any B past the instance's
height bound) returns the exact optimum after conversion. The DP's work
grows like 3^B, so ``optimal_bounded`` first tries smaller budgets and keeps
one only when its cost is at most ``deep_cost_bound``, a lower bound on every
search tree too tall for that budget; such a result is exact as well. With
an accepted ratio above 1 it keeps the first budget whose cost that bound
certifies within the ratio of optimal, which is how the FPTAS stops early.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Optional, Union

from .bounds import tall_huffman
from .errors import InfeasibleError, InvalidDecisionTreeError, ResourceLimitError
from .model import (
    DecisionNode, Diagnostics, InputTree, Leaf, Query, _Record, build_decision_tree,
    cost as dt_cost, validate,
)

if TYPE_CHECKING:
    from fractions import Fraction


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name

    def __reduce__(self):
        # Pickled and copied by reference to the module-level name, so the
        # markers keep their identity and ``is BLOCKED`` tests still hold.
        return self._name


BLOCKED = _Marker("BLOCKED")
UNASSIGNED = _Marker("UNASSIGNED")

Assignment = Union[int, _Marker]
PLP = tuple  # cells, each BLOCKED or UNASSIGNED
SubforestId = tuple  # ("T", v) or ("F", u, f)

# The DP's time grows about 3x per budget level (random n = 21 tree: 0.14 s
# at budget 10, 1.0-1.3 s at 12), so larger budgets are refused.
HEIGHT_CAP = 12


class ESTNode(_Record):
    __slots__ = ("assignment", "left", "right")
    _defaults = (None, None)


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


def est_cost(root: ESTNode, tree: InputTree, forest: Optional[Collection[int]] = None) -> int:
    """Sum of depth * weight over leaves assigned into the forest, a set of
    node ids (the whole tree by default); ids outside 0..n-1 are outside it."""
    if forest is None:
        forest = range(tree.n)
    total = 0
    for node, d in est_iter(root):
        a = node.assignment
        is_leaf = node.left is None and node.right is None
        if is_leaf and a.__class__ is int and 0 <= a < tree.n and a in forest:
            total += d * tree.weight[a]
    return total


def validate_est(root: ESTNode, tree: InputTree, forest: Optional[Collection[int]] = None) -> Diagnostics:
    """Check EST properties: one leaf and one internal node per forest node,
    the search property among assigned nodes, and no right child under
    placeholders. The forest (a node set, the whole tree by default) is read
    once into a mask of preorder positions; ids outside 0..n-1 lie outside."""
    n, pre, size = tree.n, tree.pre, tree.size
    forest = (1 << n) - 1 if forest is None else sum(1 << pre[v] for v in range(n) if v in forest)
    violations = []
    leaves: dict[int, int] = {}
    internals: dict[int, int] = {}
    stack = [(root, forest)]
    while stack:
        node, allowed = stack.pop()
        a = node.assignment
        is_leaf = node.left is None and node.right is None
        if a.__class__ is int:  # not isinstance: True would pass as node 1
            if not (0 <= a < n and forest >> pre[a] & 1):
                violations.append(f"assignment {a} outside the forest")
                continue
            if not allowed >> pre[a] & 1:
                violations.append(f"node assigned {a} violates the search property")
            if is_leaf:
                leaves[a] = leaves.get(a, 0) + 1
            else:
                internals[a] = internals.get(a, 0) + 1
            sub = ((1 << size[a]) - 1) << pre[a]
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
    for v in range(n):
        if forest >> pre[v] & 1:
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
    """The (subforest, PLP) subproblems at a fixed height budget B, filled
    bottom-up in postorder with no recursion. A PLP of length l whose
    blocked cells form the mask b has the code 2^l + b. Each subforest keeps
    two lists indexed by code: the least cost, None where nothing fits, and
    the choice that reaches it: (cell, leaf level) for a tree with children,
    the cells given to the last tree for a forest. F(u, 1) shares the table
    of T(u's first child). Ties keep the first candidate with cells
    ascending, then leaf levels ascending, then submasks s -> (s - 1) & un."""

    def __init__(self, tree: InputTree, budget: int, fid: SubforestId):
        self.tree = tree
        self.B = budget
        self.trees: list[Optional[tuple[list, list]]] = [None] * tree.n
        self.forests: list[Optional[list[tuple[list, list]]]] = [None] * tree.n
        n, pre, size, post = tree.n, tree.pre, tree.size, tree.postorder
        for top in [fid[1]] if fid[0] == "T" else tree.children[fid[1]][:fid[2]]:
            end = n - pre[top]
            for v in post[end - size[top]:end]:
                self._fill_forests(v, len(tree.children[v]))
                self._fill_tree(v)
        if fid[0] == "F":
            self._fill_forests(fid[1], fid[2])

    def table(self, fid: SubforestId) -> tuple[list, list]:
        return self.trees[fid[1]] if fid[0] == "T" else self.forests[fid[1]][fid[2] - 1]

    def _fill_tree(self, v: int) -> None:
        """T_v on l cells is the better of T_v on the first l - 1 cells and,
        when cell l - 1 is unassigned, the root query there. A leaf node
        takes its first unassigned cell at cost (cell + 1) * w(v). Otherwise
        the query's leaf sits at level t, and F(v, deg) gets the cells
        before the query's, the query's cell blocked, and t - l fresh cells."""
        B, w = self.B, self.tree.weight[v]
        inner = self.forests[v][-1][0] if self.forests[v] else None
        cost, choice = [None] * (2 << B), [None] * (2 << B)
        for length in range(1, B + 1):
            half = 1 << (length - 1)  # the bit of cell l - 1, the query's
            for prev in range(half, 2 * half):  # the code of the first l - 1 cells
                if inner is None:
                    best, at = length * w, None
                else:
                    best = at = None
                    for t in range(length, B + 1):
                        if w and best is not None and t * w >= best:
                            break  # child costs are >= 0; deeper leaf levels only get worse
                        sub = inner[(1 << t) + prev]  # prev's cells, the query's blocked, fresh ones
                        if sub is not None and (best is None or sub + t * w < best):
                            best, at = sub + t * w, (length - 1, t)
                if best is None or cost[prev] is not None and cost[prev] <= best:
                    best, at = cost[prev], choice[prev]  # an earlier cell wins ties
                cost[prev + half], choice[prev + half] = best, at
                cost[prev + 2 * half], choice[prev + 2 * half] = cost[prev], choice[prev]  # cell l - 1 blocked
        self.trees[v] = cost, choice

    def _fill_forests(self, u: int, f: int) -> None:
        """F(u, 2..f): the last tree takes the unassigned cells s, the first
        f - 1 trees the others."""
        kids = self.tree.children[u]
        tables = self.forests[u] = [self.trees[kids[0]]] if f else []
        for last in kids[1:f]:
            last_cost, rest_cost = self.trees[last][0], tables[-1][0]
            cost, choice = [None] * (2 << self.B), [None] * (2 << self.B)
            for length in range(1, self.B + 1):
                closed = (2 << length) - 1  # all cells blocked; unassigned cells x give the code closed - x
                for code in range(1 << length, closed):
                    un = closed - code
                    best = None
                    s = (un - 1) & un  # proper nonempty submasks
                    while s:
                        a = last_cost[closed - s]
                        if a is not None:
                            b = rest_cost[code + s]
                            if b is not None and (best is None or a + b < best):
                                best, pick = a + b, s
                        s = (s - 1) & un
                    if best is not None:
                        cost[code], choice[code] = best, pick
            tables.append((cost, choice))

    def est(self, fid: SubforestId, length: int, blocked: int) -> ESTNode:
        """Rebuild the winning EST from its left path, one cell per node.
        Each subproblem writes only its own unassigned cells. A placement
        hands its inner forest the cells before its query's cell, shared,
        then that cell, blocked, then a fresh chain above the query's leaf."""
        children = self.tree.children
        path = _left_path([BLOCKED if blocked >> i & 1 else UNASSIGNED for i in range(length)])
        todo = [(fid, length, blocked, path)]
        while todo:
            fid, length, blocked, cells = todo.pop()
            if fid[0] == "F" and fid[2] == 1:
                fid = ("T", children[fid[1]][0])
            code = (1 << length) + blocked
            un = ~blocked & ((1 << length) - 1)
            if fid[0] == "F":
                u, f = fid[1], fid[2]
                s = self.forests[u][f - 1][1][code]
                todo.append((("T", children[u][f - 1]), length, blocked | (un ^ s), cells))
                todo.append((("F", u, f - 1), length, blocked | s, cells))
                continue
            v = fid[1]
            if not children[v]:
                pos = (un & -un).bit_length() - 1
                cells[pos].assignment, cells[pos].right = v, ESTNode(v)
                continue
            pos, t = self.trees[v][1][code]
            above = _left_path([UNASSIGNED] * (t - pos - 1) + [v])
            cells[pos].assignment, cells[pos].right = v, above[0]
            for i in range(pos + 1, length):
                if un >> i & 1:
                    cells[i].assignment = BLOCKED  # the outer left path below the query is padding
            bit = 1 << pos
            inner = cells[:pos] + [None] + above[:-1]  # None: the query's cell, blocked
            todo.append((("F", v, len(children[v])), t, (blocked & (bit - 1)) | bit, inner))
        return path[0]


def _left_path(assignments: list[Assignment]) -> list[ESTNode]:
    """ESTNodes with these assignments, top first, each the left child of
    the one before it."""
    nodes = [ESTNode(a) for a in assignments]
    for upper, lower in zip(nodes, nodes[1:]):
        upper.left = lower
    return nodes


class PBSolution(_Record):
    __slots__ = ("cost", "est")


def solve_pb(tree: InputTree, forest: SubforestId, plp: PLP, budget: int) -> Optional[PBSolution]:
    """Minimum-cost EST for the subforest, compatible with the PLP, height <= budget.

    Returns None when infeasible (no unassigned cell, or nothing fits). Each
    subforest's tables hold 2^(budget+1) cells, so a budget above
    ``HEIGHT_CAP`` raises ResourceLimitError before any table is filled."""
    length, blocked = _plp_to_bits(plp)
    if length > budget:
        raise ValueError(f"|P| = {length} exceeds the height budget {budget}")
    if forest[0] not in ("T", "F") or not 0 <= forest[1] < tree.n:
        raise ValueError(f"bad subforest {forest!r}: expected ('T', v) or ('F', u, f), 0 <= v, u < {tree.n}")
    if forest[0] == "F":
        u, f = forest[1], forest[2]
        if not 1 <= f <= len(tree.children[u]):
            raise ValueError(f"bad subforest: node {u} has {len(tree.children[u])} children, f={f}")
    if budget > HEIGHT_CAP:
        raise ResourceLimitError(f"height budget {budget} exceeds the cap {HEIGHT_CAP}")
    solver = _PBSolver(tree, budget, forest)
    best = solver.table(forest)[0][(1 << length) + blocked]
    return None if best is None else PBSolution(best, solver.est(forest, length, blocked))


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


def est_to_search_tree(est: ESTNode, tree: InputTree) -> DecisionNode:
    """Convert an EST for the whole tree into a search tree: left-delete the
    internal node assigned to the root, right-delete every placeholder. The
    EST and the result are both validated.

    The result costs at most est_cost - w(root); equality holds when the
    root's query is the EST root and no placeholder sits above an assigned
    leaf."""
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
    TH(height) = ``bounds.tall_huffman(weights, height)``. A search tree is a
    full binary tree with one leaf per node (see ``bounds``), so it costs at
    least its own shape with heavier weights on shallower leaves, which TH
    minimises over every shape that tall. No search tree is taller than
    n - 1, so a larger height raises ValueError, as ``tall_huffman`` does.
    """
    return tall_huffman(tree.weight, height)


def _solve_at(tree: InputTree, budget: int) -> Optional[tuple[int, DecisionNode]]:
    """The DP's search tree at one height budget, or None when none fits.

    A search tree has n leaves, and node v's leaf lies below one query per
    child of v, so no search tree is shorter than max(ceil(log2 n),
    max_children). Converting an EST never makes it taller, so a smaller
    budget fails before any table is filled."""
    if budget < max((tree.n - 1).bit_length(), tree.max_children):
        return None
    solution = solve_pb(tree, ("T", tree.root), (UNASSIGNED,) * budget, budget)
    if solution is None:
        return None
    out = est_to_search_tree(solution.est, tree)  # validated there
    c = dt_cost(out, tree, check=False)
    assert c <= solution.cost - tree.weight[tree.root]
    return c, out


def optimal_bounded(
    tree: InputTree,
    budget: Optional[int] = None,
    ratio: int | Fraction | float = 1,
) -> tuple[int, DecisionNode]:
    """Optimal search tree via the EST dynamic program, exact by default and
    within ``ratio`` of optimal when a ratio above 1 is accepted.

    An explicit ``budget`` runs the DP once at that height, or at n when it
    is larger (no search tree is taller than n - 1); a too-small budget can
    make the problem infeasible. By default the budget is
    top = min(height_bound, n): both are sufficient for exactness and each
    subforest's tables hold 2^(B+1) cells, so the smaller wins. Budgets
    above ``HEIGHT_CAP`` (12, a constant of this module) raise
    ResourceLimitError before any work (use greedy instead: the FPTAS runs
    the same budget).

    The default then deepens: it runs the DP at B = ceil(log2 n) + 1, ...,
    top - 1 (no search tree is shorter than ceil(log2 n)) and returns the
    first result whose certified ratio rho_B = c_B / min(c_B, LB(B)) is at
    most ``ratio``, where c_B is the result's cost and LB(B) =
    ``deep_cost_bound(tree, B)``; it falls back to the run at top, which is
    exact. The certificate holds because OPT >= min(c_B, LB(B)):

    * the DP at B costs no more than any search tree D of height <= B - 1:
      D lifts to an EST of height <= B costing cost(D) + w(root)
      (``search_tree_to_est``), and the DP's EST, costing no more, converts
      to a search tree cheaper than itself by at least w(root);
    * any search tree of height >= B costs at least LB(B):
      ``deep_cost_bound`` is TH(B), the tall-Huffman cost of the weights.

    With the default ``ratio`` 1 the stop is c_B <= LB(B), and the result is
    optimal. ``ratio`` is an int, ``Fraction`` or float p/q >= 1 (a float
    counts as its exact binary value), and the test
    q * c_B <= p * LB(B) stays in integers (for p >= q it also accepts every
    c_B <= LB(B)). Weights are non-negative, so zero weights only weaken
    LB(B) and need no special case. TH(B) is a DP over the weights, O(n^4)
    at worst, so it is evaluated only here, after the EST DP has run at B,
    and never for an explicit ``budget`` or a budget above the cap. The
    DP's work grows like 3^B, so when no smaller budget certifies, the runs
    below top together cost about half the run at top (more at small n,
    where fixed costs dominate).
    """
    p, q = ratio.as_integer_ratio()
    if p < q:
        raise ValueError(f"accepted ratio {ratio} is below 1")
    deepen = budget is None
    # No search tree is taller than n - 1, so a budget past n runs as n.
    budget = min(height_bound(tree) if deepen else budget, max(tree.n, 1))
    if budget > HEIGHT_CAP:
        raise ResourceLimitError(
            f"height budget {budget} exceeds the cap {HEIGHT_CAP}; use greedy"
        )
    for b in range((tree.n - 1).bit_length() + 1, budget) if deepen else ():
        found = _solve_at(tree, b)
        if found is not None and q * found[0] <= p * deep_cost_bound(tree, b):
            return found
    found = _solve_at(tree, budget)
    if found is None:
        raise InfeasibleError(f"no search tree within height budget {budget}")
    return found
