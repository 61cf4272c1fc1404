"""Constructive hardness reduction: Exact 3-Set Cover (multiplicity <= 3)
instances into tree-search instances, plus the realization machinery and the
cost-gap identities that certify the construction.

Ordering. Elements 0..n-1 carry their natural order; a set {x1<x2<x3}
precedes {y1<y2<y3} iff (x3,x2,x1) < (y3,y2,y1) lexicographically, and an
element u precedes a set iff u <= x3. The merged order Pi lists all elements
and sets; each set lands right after its maximum element, and multiplicity
<= 3 keeps runs of consecutive sets at length <= 3.

Construction. Each set i gets one gadget: a height-1 subtree with root r_i
and leaves t_i, s_i1, s_i2, s_i3 (s_ij stands for the j-th smallest element
of the set), plus four leaves a_i1..a_i4, all hung from a hub. The
diameter-4 tree T has a single hub, its root, holding every gadget; the
degree-16 tree T^b has one hub h_g per run of Pi-consecutive sets, and the
hubs hang from a spine z_1..z_p rooted at z_p. Weights (the same in both
trees) follow the recurrence along Pi:

    w(u_1) = 1
    w(u_j) = 1 + 6 * max(|T|^3 * w(u_{j-1}), W_{u_j})
    w(a_i*) = W_{u_i1} + W_{u_i2} + W_{u_i3} + sum_j gamma(i,j) * w(u_ij)
    w(t_i)  = w(a_i1) + w(X_i) / 2

with W_u the total leaf weight of the sets preceding u in Pi. w(X_i)/2 need
not be integral, so every stored weight is doubled (a global rescale; optima
and the decision threshold scale along).

A realization w.r.t. Y walks Pi right to left and stacks blocks: per set its
A-configuration (query r_i; YES side resolves t_i, s_i3.. s_i1; NO side runs
a_i1..a_i4) or, when the set is in Y, its B-configuration (query t_i, then
a_i1..a_i4); per element a run of queries for its still-unresolved s-leaves.
Zero-weight structural nodes are resolved at the bottom. One builder holds
that block order; ``realization`` turns it into a decision tree, and
``realization_cost`` folds it straight into the tree's cost, which is what
the 2^m sweep of ``decide_cover`` uses. The construction's guarantees
(gamma >= 3, the level-accounting gap identities, the cover threshold) are
all checkable and checked here.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import exact  # a lazy module: it runs only for decide_cover's small-tree cross-check
from .errors import DEFAULT_LIMIT, InvalidInstanceError, ResourceLimitError, TreeSearchError
from .model import DecisionNode, InputTree, Leaf, Query, _FrozenRecord, _Record, cost, query_depths


class X3CInstance(_FrozenRecord):
    """An Exact 3-Set Cover instance with multiplicity <= 3.

    Construction canonicalizes: each triple is sorted ascending and the
    family is sorted by the reverse-lexicographic set order, so ``sets[i]``
    is the i-th set in that order (displayed as X_{i+1}). Duplicates are
    kept; they end up adjacent.
    """

    __slots__ = ("universe_size", "sets")

    @staticmethod
    def of(universe_size: int, family: Iterable[Sequence[int]]) -> "X3CInstance":
        n = universe_size
        if n <= 0 or n % 3:
            raise InvalidInstanceError("universe size must be a positive multiple of 3")
        count: dict[int, int] = {}  # only the elements of the sets, however large n is
        for s in family:
            trip = tuple(sorted(int(e) for e in s))
            if len(trip) != 3 or len(set(trip)) != 3:
                raise InvalidInstanceError(f"not a 3-element set: {tuple(s)}")
            for e in trip:
                if not 0 <= e < n:
                    raise InvalidInstanceError(f"element {e} out of range 0..{n - 1}")
                count[e] = count.get(e, 0) + 1
        for e in sorted(count):
            if count[e] > 3:
                raise InvalidInstanceError(f"element {e} appears in {count[e]} > 3 sets")
        canon = sorted((tuple(sorted(s)) for s in family),
                       key=lambda t: (t[2], t[1], t[0]))
        return X3CInstance(n, tuple(canon))

    @property
    def m(self) -> int:
        return len(self.sets)


PiItem = tuple[str, int]  # ("u", element) or ("X", set index)


def pi_sequence(inst: X3CInstance) -> tuple[PiItem, ...]:
    """The merged order over elements and sets: each set follows its maximum."""
    by_max: dict[int, list[int]] = {}
    for i, s in enumerate(inst.sets):
        by_max.setdefault(s[2], []).append(i)
    out: list[PiItem] = []
    for j in range(inst.universe_size):
        out.append(("u", j))
        for i in by_max.get(j, ()):
            out.append(("X", i))
    return tuple(out)


def pi_names(inst: X3CInstance) -> list[str]:
    """Display names along Pi: letters a.. for small universes, X1..Xm for sets."""
    names = []
    for kind, idx in pi_sequence(inst):
        if kind == "u":
            names.append(chr(ord("a") + idx) if inst.universe_size <= 26 else f"u{idx + 1}")
        else:
            names.append(f"X{idx + 1}")
    return names


def gamma(inst: X3CInstance, i: int, j: int) -> int:
    """Level-accounting quantity gamma(i, j); i is a 0-based set index and
    j in {0,1,2} picks the j-th smallest element of the set. Always >= 3."""
    if not 0 <= i < inst.m:
        raise InvalidInstanceError(f"set index {i} out of range")
    if j not in (0, 1, 2):
        raise InvalidInstanceError(f"element position {j} must be 0, 1 or 2")
    return _gamma(inst, pi_sequence(inst), i, j)


def _gamma(inst: X3CInstance, pi: Sequence[PiItem], i: int, j: int) -> int:
    u = inst.sets[i][j]
    pos_u = pi.index(("u", u))
    pos_x = pi.index(("X", i))
    elems_between = sum(1 for kind, _ in pi[pos_u + 1:pos_x] if kind == "u")
    sets_upto = sum(1 for kind, _ in pi[pos_u + 1:pos_x + 1] if kind == "X")
    return (j + 1) - 5 + elems_between + 5 * sets_upto


class ReductionOutput(_Record):
    """A generated tree-search instance with its role bookkeeping.

    ``variant`` is "diam4" or "deg16". All weights stored on the instance
    are twice the recurrence's values, which keeps w(t_i) integral:
    ``element_weight`` holds the doubled w(u_j) and ``big_w`` the doubled
    W_{u_j}. Costs, gaps and the cover threshold scale by the same factor,
    so decisions are unchanged.
    """

    __slots__ = (
        "instance", "variant", "x3c", "pi", "root", "r_nodes", "t_nodes", "s_nodes", "a_nodes",
        "h_nodes", "z_nodes", "element_weight", "big_w", "gammas",
    )

    def set_weight(self, i: int) -> int:
        """Doubled w(X_i): total element weight of set i."""
        return sum(self.element_weight[u] for u in self.x3c.sets[i])


def _reduction_weights(inst: X3CInstance, tree_size: int):
    """Doubled weights along Pi: element weights, W_u, a- and t-weights."""
    n, m = inst.universe_size, inst.m
    cube = tree_size ** 3
    ew = [0] * n
    big_w = [0] * n
    wa = [0] * m
    wt = [0] * m
    pi = pi_sequence(inst)
    gammas = [tuple(_gamma(inst, pi, i, j) for j in range(3)) for i in range(m)]
    running = 0  # doubled total weight of the leaf sets placed so far
    for kind, idx in pi:
        if kind == "u":
            big_w[idx] = running
            ew[idx] = 2 if idx == 0 else 2 + 6 * max(cube * ew[idx - 1], running)
        else:
            u1, u2, u3 = inst.sets[idx]
            g = gammas[idx]
            wa[idx] = (big_w[u1] + big_w[u2] + big_w[u3]
                       + g[0] * ew[u1] + g[1] * ew[u2] + g[2] * ew[u3])
            wx = ew[u1] + ew[u2] + ew[u3]
            wt[idx] = wa[idx] + wx // 2  # wx is the doubled w(X_i), so wx//2 adds w(X_i)/2
            running += wt[idx] + wx + 4 * wa[idx]
    return ew, big_w, wa, wt, gammas


def pi_set_groups(inst: X3CInstance) -> list[list[int]]:
    """Maximal runs of Pi-consecutive sets (each has <= 3 sets)."""
    groups: list[list[int]] = []
    prev_was_set = False
    for kind, idx in pi_sequence(inst):
        if kind == "X":
            if prev_was_set:
                groups[-1].append(idx)
            else:
                groups.append([idx])
            prev_was_set = True
        else:
            prev_was_set = False
    return groups


def build(inst: X3CInstance, variant: str) -> ReductionOutput:
    """The reduction's instance: ``"diam4"`` for T, ``"deg16"`` for T^b, laid
    out as the module docstring says (in T the root is the one hub and is not
    listed in ``h_nodes``). Ids follow allocation: the spine from z_p down,
    then per group its hub and per set r, t, s x3, a x4. Both variants carry
    T's weights (the recurrence uses T's size).

    The weights' size is predicted before any work, from n = |U| and |T|:
    each w(u_j) is at least 6 |T|^3 times the one before, so the n element
    weights take about n^2/2 * log2(6 |T|^3) bits, and a prediction above
    ``WEIGHT_BITS_LIMIT`` raises ``ResourceLimitError``.

    ``inst`` must be as ``X3CInstance.of`` makes it (checked, canonical):
    the bare constructor checks nothing, and the sweep's step cap is sized
    for families with each element in at most three sets."""
    if X3CInstance.of(inst.universe_size, inst.sets) != inst:
        raise InvalidInstanceError("X3C instance is not in canonical order; make it with X3CInstance.of")
    n, m = inst.universe_size, inst.m
    bits = n * (n - 1) // 2 * ((6 * (1 + 9 * m) ** 3).bit_length() - 1)
    if bits > WEIGHT_BITS_LIMIT:
        raise ResourceLimitError(
            f"universe of {n} elements: its weights would take about {bits} bits, "
            f"above the limit {WEIGHT_BITS_LIMIT}")
    if variant == "diam4":
        groups, spine = [list(range(inst.m))], 0
    elif variant == "deg16":
        groups = pi_set_groups(inst)
        spine = len(groups)
        if not spine:
            raise InvalidInstanceError("the degree-16 tree needs at least one set")
    else:
        raise InvalidInstanceError(f"unknown reduction variant {variant!r}")
    ew, big_w, wa, wt, gammas = _reduction_weights(inst, 1 + 9 * m)
    parent: list[int] = []
    weight: list[int] = []

    def add(up: int, w: int = 0) -> int:
        parent.append(up)
        weight.append(w)
        return len(parent) - 1

    z_nodes = [0] * spine
    up = -1
    for g in reversed(range(spine)):
        up = z_nodes[g] = add(up)
    h_nodes = []
    r_nodes, t_nodes, s_nodes, a_nodes = [0] * m, [0] * m, [()] * m, [()] * m
    for g, members in enumerate(groups):
        h = add(z_nodes[g] if spine else -1)
        h_nodes.append(h)
        for i in members:
            r = r_nodes[i] = add(h)
            t_nodes[i] = add(r, wt[i])
            s_nodes[i] = tuple(add(r, ew[u]) for u in inst.sets[i])
            a_nodes[i] = tuple(add(h, wa[i]) for _ in range(4))
    return ReductionOutput(
        instance=InputTree(parent, weight),
        variant=variant,
        x3c=inst,
        pi=pi_sequence(inst),
        root=z_nodes[-1] if spine else h_nodes[0],
        r_nodes=tuple(r_nodes),
        t_nodes=tuple(t_nodes),
        s_nodes=tuple(s_nodes),
        a_nodes=tuple(a_nodes),
        h_nodes=tuple(h_nodes) if spine else (),
        z_nodes=tuple(z_nodes),
        element_weight=tuple(ew),
        big_w=tuple(big_w),
        gammas=tuple(gammas),
    )


def build_T(inst: X3CInstance) -> ReductionOutput:
    """The diameter-4 instance T: ``build(inst, "diam4")``."""
    return build(inst, "diam4")


def build_Tb(inst: X3CInstance) -> ReductionOutput:
    """The degree-<=16 instance T^b: ``build(inst, "deg16")``."""
    return build(inst, "deg16")


RealizationSpec = frozenset  # the sets realized in B-configuration


def _spec_bits(inst: X3CInstance, spec: Iterable[int]) -> int:
    """The B-configured sets in ``spec`` as a bit mask over set indices."""
    bits = 0
    for i in spec:
        if not 0 <= i < inst.m:
            raise InvalidInstanceError(f"set index {i} out of range")
        bits |= 1 << i
    return bits


def _realizer(red: ReductionOutput, leaf, query, run=None):
    """bits -> the realization of Pi w.r.t. the B-configured sets in the bit
    mask ``bits`` (``_spec_bits``), built from ``leaf(v)``,
    ``query(v, no, yes)`` and ``run(vs)``; the one place that knows the
    block order.

    ``run(vs)`` returns a function that isolates the nodes ``vs`` above a
    given node, ``vs[0]`` on top: each node v becomes
    ``query(v, <the rest>, leaf(v))``. By default it is built from ``leaf``
    and ``query``; a caller may pass one that folds a whole run at once.
    Every run that does not depend on the spec is made once per realizer,
    and an element's run once per subset of its chosen sets.

    Built bottom-up: the completion for zero-weight structural nodes, then
    one block per Pi item from first to last, so the last item ends up at
    the top. Within an element's block the pending s-leaves run in ascending
    set order from the bottom (their weights are equal, so the cost is
    order-free).
    """
    inst = red.x3c
    if run is None:
        def run(vs):
            def isolate_all(node):
                for v in reversed(vs):
                    node = query(v, node, leaf(v))
                return node
            return isolate_all

    # Zero-weight leftovers, deepest first so each query isolates a singleton:
    # r_i of B-configured sets (tagged with i), plus hubs and spine for the
    # bounded variant.
    tree = red.instance
    depth = [0] * tree.n
    for v in reversed(tree.postorder[:-1]):  # preorder after the root: parents first
        depth[v] = depth[tree.parent[v]] + 1
    structural = [(r, i) for i, r in enumerate(red.r_nodes)]
    structural += [(v, None) for v in red.h_nodes + red.z_nodes if v != red.root]
    structural.sort(key=lambda item: (-depth[item[0]], item[0]))
    # Per element, its (set, s-leaf) pairs from the top down (descending set
    # order), the mask of its sets, and its runs by chosen subset.
    by_element: list[list[tuple[int, int]]] = [[] for _ in range(inst.universe_size)]
    for i in reversed(range(inst.m)):
        for u, s in zip(inst.sets[i], red.s_nodes[i]):
            by_element[u].append((i, s))
    element_sets = [sum(1 << i for i, _ in pairs) for pairs in by_element]
    element_runs: list[dict] = [{} for _ in by_element]
    # A-configuration: query r_i, NO side a_i1..a_i4 above the rest, YES side
    # t_i, s_i3..s_i1 above r_i's leaf. B-configuration: t_i, then a_i1..a_i4.
    a_chain = [run(a) for a in red.a_nodes]
    right = [run((t, s3, s2, s1))(leaf(r))
             for r, t, (s1, s2, s3) in zip(red.r_nodes, red.t_nodes, red.s_nodes)]
    b_block = [run((t,) + a) for t, a in zip(red.t_nodes, red.a_nodes)]
    r_nodes = red.r_nodes

    def realize(bits: int):
        node = run([v for v, i in structural if i is None or bits >> i & 1])(leaf(red.root))
        for kind, idx in red.pi:
            if kind == "u":
                key = bits & element_sets[idx]
                if key:
                    runs = element_runs[idx]
                    step = runs.get(key)
                    if step is None:
                        step = runs[key] = run([s for i, s in by_element[idx] if key >> i & 1])
                    node = step(node)
            elif bits >> idx & 1:
                node = b_block[idx](node)
            else:
                node = query(r_nodes[idx], a_chain[idx](node), right[idx])
        return node

    return realize


def realization(red: ReductionOutput, spec: Iterable[int]) -> DecisionNode:
    """The realization of Pi w.r.t. the B-configured sets in ``spec``, as a
    decision tree."""
    return _realizer(red, Leaf, Query)(_spec_bits(red.x3c, spec))


def _cost_fold(red: ReductionOutput):
    """bits -> ``cost(realization(red, spec), red.instance)`` for the spec
    with those bits (``_spec_bits``), without building the tree: the same
    blocks fold into (cost, weight) pairs, a leaf v into (0, w(v)) and a
    query over its sides into
    (c_no + c_yes + W_no + W_yes, W_no + W_yes), since every leaf below a
    query sits one level deeper than below its side. A run that isolates
    w_1..w_k from the bottom up over (C, W) gives
    (C + k * W + sum of the prefix sums of w, W + sum of w), so each run
    costs O(1) integer steps once its two sums are known, and the sums of
    the spec-independent runs are taken once. Exact integers."""
    w = red.instance.weight

    def leaf(v: int) -> tuple[int, int]:
        return 0, w[v]

    def query(v: int, no: tuple[int, int], yes: tuple[int, int]) -> tuple[int, int]:
        weight = no[1] + yes[1]
        return no[0] + yes[0] + weight, weight

    def run(vs):
        k, added, extra = len(vs), 0, 0
        for v in reversed(vs):
            added += w[v]
            extra += added
        return lambda node: (node[0] + k * node[1] + extra, node[1] + added)

    realize = _realizer(red, leaf, query, run)
    return lambda bits: realize(bits)[0]


def realization_cost(red: ReductionOutput, spec: Iterable[int]) -> int:
    """``cost(realization(red, spec), red.instance)`` without building the
    tree, by the (cost, weight) fold that ``decide_cover`` sweeps."""
    return _cost_fold(red)(_spec_bits(red.x3c, spec))


def measured_level_drops(red: ReductionOutput, spec: frozenset, i: int,
                         levels_full: dict[int, int]) -> tuple[int, int, int]:
    """d^A_B per element position of set i: how much deeper each s_ij query
    sits in the realization w.r.t. ``spec`` than in the one w.r.t.
    ``spec - {i}``."""
    base = query_depths(realization(red, spec - {i}))
    return tuple(levels_full[red.s_nodes[i][j]] - base[red.s_nodes[i][j]] for j in range(3))


def cost_gap(red: ReductionOutput, spec: Iterable[int]) -> int:
    """cost(D^A) - cost(realization w.r.t. spec), computed directly, and
    cross-checked against two forms of the level accounting: one through the
    t-weights and W_u, one through the gamma terms, both using level
    differences measured from the constructed trees. Raises if either
    bookkeeping disagrees with the direct value."""
    chosen = frozenset(spec)
    tree = red.instance
    d_a = realization(red, frozenset())
    d_y = realization(red, chosen)
    direct = cost(d_a, tree) - cost(d_y, tree)

    levels_full = query_depths(d_y)
    inst = red.x3c
    eq1 = 0
    eq2 = 0
    for i in sorted(chosen):
        u1, u2, u3 = inst.sets[i]
        d = measured_level_drops(red, chosen, i, levels_full)
        ws = [red.element_weight[u] for u in (u1, u2, u3)]
        eq1 += (red.instance.weight[red.t_nodes[i]]
                - (red.big_w[u1] + red.big_w[u2] + red.big_w[u3])
                - sum(d[j] * ws[j] for j in range(3)))
        eq2 += red.set_weight(i) // 2 + sum(
            (red.gammas[i][j] - d[j]) * ws[j] for j in range(3))
    if not direct == eq1 == eq2:
        raise TreeSearchError(
            f"cost-gap bookkeeping mismatch: direct={direct} eq1={eq1} eq2={eq2}"
        )
    return direct


# Most integer steps decide_cover's sweep may take, predicted as
# 2^m * (m + |U|): each realization's fold walks every set and element once.
# Measured in-process (Python 3.11, 2-vCPU VM): 960 ns per step on 18
# cyclic sets over 18 elements (9.4e6 steps, 9.1 s), 118 ns per step on 16
# disjoint sets over 1002 elements (6.7e7 steps, 7.9 s), so the limit runs
# for 8 to 65 s (20 cyclic sets over 21 elements: 4.3e7 steps, about 35 s).
# The families of the tests and the benchmark predict at most 2^10 * 22
# steps. No cap on m is needed beside it: with multiplicity <= 3, 3m <= 3|U|,
# so m <= |U|, and from m = 21 on 2^m * (m + |U|) >= 2^21 * 42 = 88 080 384,
# above the limit.
SWEEP_STEPS_LIMIT = 2**26
# Most bits build lets the element weights take, as it predicts them (a lower
# bound on their true size). Measured in-process (Python 3.11, 2-vCPU VM): one set over n = 6000
# elements predicts 2.2e8 bits, and the recurrence then takes 0.18 s and
# peaks at 29 MiB; n = 9000 predicts 4.9e8 bits, 0.43 s and 66 MiB, and
# n = 3e6 exhausts a 1.5 GB address space. The families of the tests and the
# benchmark predict at most 5250 bits (21 sets over 21 elements).
WEIGHT_BITS_LIMIT = 2**28
BRUTE_LIMIT = 25  # most sets x3c_brute searches


def cover_threshold(red: ReductionOutput) -> int:
    """The doubled form of half the total element weight."""
    return sum(red.element_weight) // 2


def decide_cover(red: ReductionOutput) -> bool:
    """True iff the best realization's gap meets the cover threshold, i.e.
    iff the X3C instance has an exact cover.

    The sweep costs all 2^m realizations with the fold behind
    ``realization_cost``, which builds no tree and takes O(m + |U|) integer
    steps per realization over a universe U. Two trees are built and
    validated: D^A (the empty spec), whose cost must equal its fold, and the
    winning spec's, whose cost must equal the fold minimum; either mismatch
    raises ``TreeSearchError``. When the instance is small enough the
    minimum is also cross-checked against the exhaustive solver (optimal
    strategies are realizations): up to ``exact.DEFAULT_LIMIT`` nodes.

    Work is predicted before the sweep: 2^m folds of m + |U| steps each,
    so 2^m * (m + |U|) above ``SWEEP_STEPS_LIMIT`` is refused up front with
    ``ResourceLimitError``.
    Measured in-process (Python 3.11, 2-vCPU VM) on cyclic families
    {i, i+1, i+2} over 3 * ceil(m/3) elements, diam4 / deg16: 0.43 / 0.49 s
    at m = 14, 2.1 / 2.0 s at m = 16 and 8.2 / 8.7 s at m = 18, about x4.2
    per two sets; at the limit m = 20 that extrapolates to about 35 s."""
    m, n = red.x3c.m, red.x3c.universe_size
    if (1 << m) * (m + n) > SWEEP_STEPS_LIMIT:
        raise ResourceLimitError(f"{m} sets over {n} elements: 2^m realization sweep above the limit: "
                                 f"2^{m} * {m + n} steps, more than {SWEEP_STEPS_LIMIT}")
    tree = red.instance
    fold = _cost_fold(red)
    d_a_cost = cost(realization(red, frozenset()), tree)
    if fold(0) != d_a_cost:
        raise TreeSearchError(f"realization fold disagrees with cost(D^A) = {d_a_cost}")
    best = best_bits = None
    for bits in range(1 << m):
        c = fold(bits)
        if best is None or c < best:
            best, best_bits = c, bits
    winner = cost(realization(red, (i for i in range(m) if best_bits >> i & 1)), tree)
    if winner != best:
        raise TreeSearchError(
            f"realization fold minimum {best} disagrees with its tree's cost {winner}"
        )
    if tree.n <= DEFAULT_LIMIT:
        oracle_best, _ = exact.opt_cost(tree)
        if oracle_best != best:
            raise TreeSearchError(
                f"realization minimum {best} disagrees with the oracle {oracle_best}"
            )
    return d_a_cost - best >= cover_threshold(red)


def x3c_brute(inst: X3CInstance) -> bool:
    """Exhaustive exact-cover search (the independent referee for
    decide_cover), refused above ``BRUTE_LIMIT`` sets."""
    if inst.m > BRUTE_LIMIT:
        raise ResourceLimitError(f"{inst.m} sets exceed the brute-force limit {BRUTE_LIMIT}")
    n = inst.universe_size
    masks = []
    for s in inst.sets:
        m = 0
        for e in s:
            m |= 1 << e
        masks.append(m)
    full = (1 << n) - 1

    def dfs(covered: int) -> bool:
        if covered == full:
            return True
        # Branch on the smallest uncovered element.
        low = (~covered & full) & -(~covered & full)
        for m in masks:
            if m & low and not m & covered:
                if dfs(covered | m):
                    return True
        return False

    return dfs(0)
