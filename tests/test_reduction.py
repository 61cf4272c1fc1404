import inspect
import itertools
import random

import pytest

from treesearch import (
    InvalidInstanceError,
    ResourceLimitError,
    X3CInstance,
    build_T,
    build_Tb,
    cost,
    cost_gap,
    cover_threshold,
    decide_cover,
    format_decision_tree,
    format_instance,
    gamma,
    opt_cost,
    pi_names,
    pi_sequence,
    realization,
    realization_cost,
    tree_diameter,
    validate,
    x3c_brute,
)
from treesearch.model import DecisionNode, InputTree, Leaf, Query
from treesearch.reduction import (
    WEIGHT_BITS_LIMIT, ReductionOutput, _cost_fold, _reduction_weights, build, pi_set_groups,
)


@pytest.fixture(scope="module")
def example1():
    # U = {a..f}; family {a,b,c}, {b,c,d}, {d,e,f}, {b,e,f}.
    return X3CInstance.of(6, [(0, 1, 2), (1, 2, 3), (3, 4, 5), (1, 4, 5)])


@pytest.fixture(scope="module")
def m1():
    return X3CInstance.of(3, [(0, 1, 2)])


def unrooted_degrees(tree):
    return [len(tree.children[v]) + (0 if v == tree.root else 1) for v in range(tree.n)]


class TestOrdering:
    def test_example1_pi(self, example1):
        assert example1.sets == ((0, 1, 2), (1, 2, 3), (1, 4, 5), (3, 4, 5))
        assert " ".join(pi_names(example1)) == "a b c X1 d X2 e f X3 X4"

    def test_single_set(self, m1):
        assert " ".join(pi_names(m1)) == "a b c X1"

    def test_duplicate_sets_adjacent(self):
        inst = X3CInstance.of(3, [(0, 1, 2), (0, 1, 2)])
        assert [k for k, _ in pi_sequence(inst)] == ["u", "u", "u", "X", "X"]

    def test_run_length_at_most_three(self):
        rng = random.Random(21)
        for _ in range(30):
            n = 3 * rng.randint(1, 4)
            fam = []
            count = {e: 0 for e in range(n)}
            while len(fam) < rng.randint(1, 7):
                s = tuple(sorted(rng.sample(range(n), 3)))
                if all(count[e] < 3 for e in s):
                    fam.append(s)
                    for e in s:
                        count[e] += 1
            inst = X3CInstance.of(n, fam)
            run = longest = 0
            for kind, _ in pi_sequence(inst):
                run = run + 1 if kind == "X" else 0
                longest = max(longest, run)
            assert longest <= 3

    def test_multiplicity_guard(self):
        with pytest.raises(InvalidInstanceError):
            X3CInstance.of(6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)])

    def test_set_size_guard(self):
        with pytest.raises(InvalidInstanceError):
            X3CInstance.of(3, [(0, 1, 1)])

    def test_multiplicity_reports_the_smallest_element(self):
        fam = [(3, 4, 5), (0, 4, 5), (1, 4, 5), (2, 4, 5)]
        with pytest.raises(InvalidInstanceError, match="element 4 appears in 4 > 3 sets"):
            X3CInstance.of(6, fam)

    def test_huge_universe_costs_nothing_until_build_refuses_it(self):
        # Multiplicities are counted over the sets' elements only, and build
        # predicts the weights' size before it allocates anything of size n.
        for n, fam in ((999_999_999, []), (3_000_000, [(0, 1, 2)]), (9000, [(0, 1, 2)])):
            inst = X3CInstance.of(n, fam)
            for variant in ("diam4", "deg16"):
                with pytest.raises(ResourceLimitError, match="weights would take about"):
                    build(inst, variant)

    def test_weight_prediction_is_sound_and_leaves_room(self):
        # The prediction never exceeds the weights' true size, and the largest
        # families tested and benchmarked (21 sets over 21 elements, 10 over
        # 12) predict under 10^-4 of the bound; 6000 elements still pass.
        for n, m in ((21, 21), (12, 10), (6000, 1)):
            fam = [(3 * i % n, (3 * i + 1) % n, (3 * i + 2) % n) for i in range(m)]
            predicted = n * (n - 1) // 2 * ((6 * (1 + 9 * m) ** 3).bit_length() - 1)
            weights = _reduction_weights(X3CInstance.of(n, fam), 1 + 9 * m)[0]
            assert predicted <= sum(w.bit_length() for w in weights)
            assert predicted < WEIGHT_BITS_LIMIT // (1 if n > 21 else 10**4)


class TestGamma:
    def test_example1_values(self, example1):
        assert [gamma(example1, 0, j) for j in range(3)] == [3, 3, 3]
        assert gamma(example1, 3, 2) == 8
        assert gamma(example1, 3, 0) == 13

    def test_at_least_three_everywhere(self, example1, m1):
        for inst in (example1, m1):
            for i in range(inst.m):
                for j in range(3):
                    assert gamma(inst, i, j) >= 3


class TestWeights:
    def test_m1_fixture(self, m1):
        red = build_T(m1)
        assert red.instance.n == 10
        # Doubled values of 1, 6001, 36006001.
        assert red.element_weight == (2, 12002, 72012002)
        assert red.big_w == (0, 0, 0)
        assert red.gammas == ((3, 3, 3),)
        assert red.instance.weight[red.a_nodes[0][0]] == 2 * 108_036_009
        assert red.instance.weight[red.t_nodes[0]] == 252_084_021

    def test_only_leaves_weighted(self, example1):
        red = build_T(example1)
        assert red.instance.weight[red.root] == 0
        for r_i in red.r_nodes:
            assert red.instance.weight[r_i] == 0

    def test_fact1_weight_ordering(self, example1):
        # w(t_i) > w(a_i1) > w(t_i') + w(X_i') for every earlier set i'.
        red = build_T(example1)
        w = red.instance.weight
        for i in range(example1.m):
            assert w[red.t_nodes[i]] > w[red.a_nodes[i][0]]
            for ip in range(i):
                assert w[red.a_nodes[i][0]] > w[red.t_nodes[ip]] + red.set_weight(ip)

    def test_encoding_stays_polynomial(self, example1):
        red = build_T(example1)
        size = red.instance.n
        n, m = example1.universe_size, example1.m
        bits = max(red.instance.weight).bit_length()
        assert bits <= 3 * (n + m) * size.bit_length() + 16


class TestStructure:
    def test_diameter_four(self, example1):
        assert tree_diameter(build_T(example1).instance) == 4

    def test_m1_diameter_within_four(self, m1):
        assert tree_diameter(build_T(m1).instance) <= 4

    def test_tb_partition_and_degree(self, example1):
        assert pi_set_groups(example1) == [[0], [1], [2, 3]]
        red = build_Tb(example1)
        assert max(unrooted_degrees(red.instance)) <= 16
        assert len(red.h_nodes) == 3 and len(red.z_nodes) == 3
        assert red.instance.n == 9 * 4 + 2 * 3

    def test_tb_weights_match_t(self, example1):
        rt = build_T(example1)
        rb = build_Tb(example1)
        for i in range(example1.m):
            assert rb.instance.weight[rb.t_nodes[i]] == rt.instance.weight[rt.t_nodes[i]]
            assert rb.instance.weight[rb.a_nodes[i][0]] == rt.instance.weight[rt.a_nodes[i][0]]


class TestRealizations:
    def test_always_valid(self, example1):
        for build in (build_T, build_Tb):
            red = build(example1)
            for bits in range(16):
                spec = frozenset(i for i in range(4) if bits >> i & 1)
                diag = validate(realization(red, spec), red.instance)
                assert diag.ok, diag.violations

    def test_empty_spec_gap_zero(self, example1):
        assert cost_gap(build_T(example1), frozenset()) == 0

    def test_a_config_level_blocks(self, m1):
        # Each A-configuration contributes a five-level left-path block; the
        # closed-form accounting reproduces cost().
        red = build_T(m1)
        d_a = realization(red, frozenset())
        w = red.instance.weight
        expected = (
            2 * w[red.t_nodes[0]]
            + sum((3 + j) * w[red.s_nodes[0][2 - j]] for j in range(3))
            + sum((2 + k) * w[red.a_nodes[0][k]] for k in range(4))
        )
        assert cost(d_a, red.instance) == expected

    def test_d_a_closed_form_example1(self, example1):
        # Dual computation of cost(D^A): every configuration block spans five
        # levels, so the block of set i starts at 5 * (#sets after i).
        red = build_T(example1)
        w = red.instance.weight
        m = example1.m
        expected = 0
        for i in range(m):
            start = 5 * (m - 1 - i)
            expected += w[red.t_nodes[i]] * (start + 2)
            for j in range(3):
                expected += w[red.s_nodes[i][j]] * (start + 5 - j)
            expected += sum(w[a] * (start + 2 + k) for k, a in enumerate(red.a_nodes[i]))
        assert cost(realization(red, frozenset()), red.instance) == expected

    def test_exact_cover_gap_hits_threshold(self, m1):
        red = build_T(m1)
        assert cost_gap(red, {0}) == cover_threshold(red) == sum(red.element_weight) // 2

    def test_gap_identity_all_specs_both_variants(self, example1):
        for build in (build_T, build_Tb):
            red = build(example1)
            gaps = {}
            for bits in range(16):
                spec = frozenset(i for i in range(4) if bits >> i & 1)
                gaps[spec] = cost_gap(red, spec)  # raises on any bookkeeping drift
            # The exact cover {X1, X4} is the only spec reaching the threshold.
            best = max(gaps.values())
            assert gaps[frozenset({0, 3})] == best >= cover_threshold(red)
            for spec, g in gaps.items():
                if spec != frozenset({0, 3}):
                    assert g < cover_threshold(red)

    def test_double_cover_falls_short(self):
        inst = X3CInstance.of(6, [(0, 1, 2), (2, 3, 4), (1, 3, 5)])
        red = build_T(inst)
        for r in range(1, 4):
            for spec in itertools.combinations(range(3), r):
                assert cost_gap(red, frozenset(spec)) < cover_threshold(red)


class TestDecision:
    def test_m1_yes(self, m1):
        assert x3c_brute(m1) is True
        assert decide_cover(build_T(m1)) is True

    def test_overlap_no(self):
        inst = X3CInstance.of(6, [(0, 1, 2), (2, 3, 4), (1, 3, 5)])
        assert x3c_brute(inst) is False
        assert decide_cover(build_T(inst)) is False

    def test_partition_yes(self):
        inst = X3CInstance.of(6, [(0, 1, 2), (3, 4, 5)])
        assert x3c_brute(inst) is True
        assert decide_cover(build_T(inst)) is True

    def test_m1_realization_minimum_equals_oracle(self, m1):
        # decide_cover cross-checks this internally for n <= 20; make the
        # comparison explicit for the two realizations of the m=1 instance.
        red = build_T(m1)
        best = min(
            cost(realization(red, spec), red.instance)
            for spec in (frozenset(), frozenset({0}))
        )
        assert best == opt_cost(red.instance)[0]

    def test_brute_empty_family(self):
        assert x3c_brute(X3CInstance.of(3, [])) is False

    def test_build_refuses_unchecked_instances(self):
        # The bare constructor checks nothing: an element in five sets once
        # built a 46-node tree, and a family out of canonical order would
        # number its sets against Pi's order.
        with pytest.raises(InvalidInstanceError, match="appears in 5 > 3 sets"):
            build(X3CInstance(3, ((0, 1, 2),) * 5), "diam4")
        with pytest.raises(InvalidInstanceError, match="out of range"):
            build(X3CInstance(3, ((0, 1, 5),)), "deg16")
        with pytest.raises(InvalidInstanceError, match="canonical"):
            build(X3CInstance(6, ((3, 4, 5), (0, 1, 2))), "diam4")
        assert build(X3CInstance(6, ((0, 1, 2), (3, 4, 5))), "diam4").x3c == X3CInstance.of(6, [(3, 4, 5), (0, 1, 2)])


def _reference_realization(red: ReductionOutput, spec) -> DecisionNode:
    """The realization built directly from ``Leaf`` and ``Query``, with a
    scan of the chosen sets per element; ``realization`` must write the same
    strategies and ``realization_cost`` must fold their costs."""
    inst = red.x3c
    chosen = frozenset(spec)
    for i in chosen:
        if not 0 <= i < inst.m:
            raise InvalidInstanceError(f"set index {i} out of range")
    tree = red.instance

    def isolate(v: int, rest: DecisionNode) -> DecisionNode:
        return Query(v, no=rest, yes=Leaf(v))

    # Zero-weight leftovers, deepest first so each query isolates a singleton:
    # r_i of B-configured sets, plus hubs and spine for the bounded variant.
    leftovers = [red.r_nodes[i] for i in sorted(chosen)]
    leftovers += list(red.h_nodes) + [z for z in red.z_nodes if z != red.root]
    def depth(v: int) -> int:  # edges up to the root, counted along the parent links
        d = 0
        while tree.parent[v] != -1:
            v, d = tree.parent[v], d + 1
        return d

    leftovers.sort(key=lambda v: (-depth(v), v))
    node: DecisionNode = Leaf(red.root)
    for v in reversed(leftovers):
        node = isolate(v, node)

    for kind, idx in red.pi:
        if kind == "u":
            for i in sorted(i for i in chosen if idx in inst.sets[i]):
                j = inst.sets[i].index(idx)
                node = isolate(red.s_nodes[i][j], node)
        else:
            i = idx
            a1, a2, a3, a4 = red.a_nodes[i]
            a_chain = isolate(a1, isolate(a2, isolate(a3, isolate(a4, node))))
            t_i = red.t_nodes[i]
            if i in chosen:
                node = Query(t_i, no=a_chain, yes=Leaf(t_i))
            else:
                s1, s2, s3 = red.s_nodes[i]
                right = Query(t_i, yes=Leaf(t_i), no=Query(
                    s3, yes=Leaf(s3), no=Query(
                        s2, yes=Leaf(s2), no=Query(
                            s1, yes=Leaf(s1), no=Leaf(red.r_nodes[i])))))
                node = Query(red.r_nodes[i], no=a_chain, yes=right)
    return node


def seeded_family(seed: int, planted: bool, q: int = 4, m: int = 10) -> X3CInstance:
    """m distinct triples over 3q elements, each element in at most 3 of
    them; with ``planted`` the first q triples partition the universe."""
    rng = random.Random(seed)
    n = 3 * q
    fam = []
    if planted:
        elems = rng.sample(range(n), n)
        fam = [tuple(sorted(elems[3 * i:3 * i + 3])) for i in range(q)]
    count = [sum(e in t for t in fam) for e in range(n)]
    for _ in range(10_000):
        if len(fam) == m:
            return X3CInstance.of(n, fam)
        trip = tuple(sorted(rng.sample(range(n), 3)))
        if trip not in fam and all(count[e] < 3 for e in trip):
            fam.append(trip)
            for e in trip:
                count[e] += 1
    raise AssertionError(f"seed {seed} found no family of {m} sets")


GATE_FAMILIES = [
    (seed, planted, variant) for seed, (planted, variant) in enumerate(
        2 * list(itertools.product((True, False), ("diam4", "deg16"))), start=801)
]


class TestReferenceRealization:
    """Every spec of every gate instance: ``realization`` writes the
    reference's strategy text and ``realization_cost`` folds its cost."""

    @staticmethod
    def check(inst, variant):
        red = build(inst, variant)
        for bits in range(1 << inst.m):
            spec = frozenset(i for i in range(inst.m) if bits >> i & 1)
            tree = realization(red, spec)
            assert format_decision_tree(tree) == format_decision_tree(_reference_realization(red, spec))
            assert realization_cost(red, spec) == cost(tree, red.instance)
        assert decide_cover(red) == x3c_brute(inst)

    @pytest.mark.parametrize("variant", ["diam4", "deg16"])
    @pytest.mark.parametrize("name", ["example1", "m1"])
    def test_fixtures(self, request, name, variant):
        self.check(request.getfixturevalue(name), variant)

    @pytest.mark.parametrize("seed, planted, variant", GATE_FAMILIES)
    def test_seeded_families(self, seed, planted, variant):
        inst = seeded_family(seed, planted)
        assert inst.m == 10 and inst.universe_size == 12
        assert x3c_brute(inst) or not planted
        self.check(inst, variant)

    @pytest.mark.parametrize("variant", ["diam4", "deg16"])
    @pytest.mark.parametrize("q, m", [(2, 5), (3, 7), (4, 9)])
    def test_sweep_fold_on_every_spec(self, q, m, variant):
        # The fold that decide_cover's sweep builds once and feeds spec bit
        # masks, against the cost of each realization's tree.
        for planted in (True, False):
            inst = seeded_family(900 + q, planted, q, m)
            assert inst.m == m and inst.universe_size == 3 * q
            red = build(inst, variant)
            fold = _cost_fold(red)
            for bits in range(1 << m):
                spec = frozenset(i for i in range(m) if bits >> i & 1)
                assert fold(bits) == cost(realization(red, spec), red.instance), (q, planted, spec)


# The two builders as they stood before ``build`` held one layout for both
# variants; ``build`` must reproduce every node id, parent, weight and role.

def _reference_build_T(inst: X3CInstance) -> ReductionOutput:
    """The diameter-4 instance: per-set subtrees and a-leaves under one root."""
    n, m = inst.universe_size, inst.m
    size = 1 + 9 * m
    ew, big_w, wa, wt, gammas = _reduction_weights(inst, size)
    parent = [-1] * size
    weight = [0] * size
    r_nodes, t_nodes, s_nodes, a_nodes = [], [], [], []
    for i in range(m):
        base = 1 + 9 * i
        r_i, t_i = base, base + 1
        s_i = (base + 2, base + 3, base + 4)
        a_i = (base + 5, base + 6, base + 7, base + 8)
        parent[r_i] = 0
        parent[t_i] = r_i
        weight[t_i] = wt[i]
        for j in range(3):
            parent[s_i[j]] = r_i
            weight[s_i[j]] = ew[inst.sets[i][j]]
        for k in range(4):
            parent[a_i[k]] = 0
            weight[a_i[k]] = wa[i]
        r_nodes.append(r_i)
        t_nodes.append(t_i)
        s_nodes.append(s_i)
        a_nodes.append(a_i)
    return ReductionOutput(
        instance=InputTree(parent, weight),
        variant="diam4",
        x3c=inst,
        pi=pi_sequence(inst),
        root=0,
        r_nodes=tuple(r_nodes),
        t_nodes=tuple(t_nodes),
        s_nodes=tuple(s_nodes),
        a_nodes=tuple(a_nodes),
        h_nodes=(),
        z_nodes=(),
        element_weight=tuple(ew),
        big_w=tuple(big_w),
        gammas=tuple(gammas),
    )


def _reference_build_Tb(inst: X3CInstance) -> ReductionOutput:
    """The degree-<=16 instance: Pi-adjacent sets grouped under hubs h_i,
    hubs strung on a spine z_1..z_p rooted at z_p. Weights are those of the
    diameter-4 tree (the recurrence still uses that tree's size)."""
    m = inst.m
    size_T = 1 + 9 * m
    ew, big_w, wa, wt, gammas = _reduction_weights(inst, size_T)
    groups = pi_set_groups(inst)
    p = len(groups)
    size = 9 * m + 2 * p  # 9 nodes per set plus the hubs and the spine
    parent = [-1] * size
    weight = [0] * size
    z_nodes = [0] * p
    h_nodes = [0] * p
    r_nodes = [0] * m
    t_nodes = [0] * m
    s_nodes: list[tuple[int, int, int]] = [None] * m
    a_nodes: list[tuple[int, int, int, int]] = [None] * m
    nxt = 0

    def alloc() -> int:
        nonlocal nxt
        nxt += 1
        return nxt - 1

    # Root z_p first, then down the spine.
    z_nodes[p - 1] = alloc()
    for g in range(p - 2, -1, -1):
        z_nodes[g] = alloc()
        parent[z_nodes[g]] = z_nodes[g + 1]
    for g, members in enumerate(groups):
        h = alloc()
        h_nodes[g] = h
        parent[h] = z_nodes[g]
        for i in members:
            r_i = alloc()
            parent[r_i] = h
            t_i = alloc()
            parent[t_i] = r_i
            weight[t_i] = wt[i]
            s_i = []
            for j in range(3):
                s = alloc()
                parent[s] = r_i
                weight[s] = ew[inst.sets[i][j]]
                s_i.append(s)
            a_i = []
            for _ in range(4):
                a = alloc()
                parent[a] = h
                weight[a] = wa[i]
                a_i.append(a)
            r_nodes[i] = r_i
            t_nodes[i] = t_i
            s_nodes[i] = tuple(s_i)
            a_nodes[i] = tuple(a_i)
    assert nxt == size
    return ReductionOutput(
        instance=InputTree(parent, weight),
        variant="deg16",
        x3c=inst,
        pi=pi_sequence(inst),
        root=z_nodes[p - 1],
        r_nodes=tuple(r_nodes),
        t_nodes=tuple(t_nodes),
        s_nodes=tuple(s_nodes),
        a_nodes=tuple(a_nodes),
        h_nodes=tuple(h_nodes),
        z_nodes=tuple(z_nodes),
        element_weight=tuple(ew),
        big_w=tuple(big_w),
        gammas=tuple(gammas),
    )


def random_family(rng: random.Random) -> X3CInstance:
    """A family of 1..10 triples over 3..15 elements, duplicates allowed,
    each element in at most 3 of them."""
    n = 3 * rng.randint(1, 5)
    count = [0] * n
    fam = []
    for _ in range(rng.randint(1, 10)):
        trip = tuple(sorted(rng.sample(range(n), 3)))
        if rng.random() < 0.1 and fam:
            trip = rng.choice(fam)
        if all(count[e] < 3 for e in trip):
            fam.append(trip)
            for e in trip:
                count[e] += 1
    return X3CInstance.of(n, fam)


class TestReferenceBuilders:
    """``build`` writes the reference builders' instance text and every
    ``ReductionOutput`` field, for both variants."""

    def test_slots_name_every_field(self):
        # ``check`` compares the fields that ``__slots__`` names.
        fields = ReductionOutput.__slots__
        assert len(set(fields)) == 14 and fields == tuple(inspect.signature(ReductionOutput).parameters)

    @staticmethod
    def check(inst):
        for variant, reference in (("diam4", _reference_build_T), ("deg16", _reference_build_Tb)):
            got, want = build(inst, variant), reference(inst)
            assert format_instance(got.instance) == format_instance(want.instance)
            for name in ReductionOutput.__slots__:
                assert getattr(got, name) == getattr(want, name), (variant, name)

    @pytest.mark.parametrize("name", ["example1", "m1"])
    def test_fixtures(self, request, name):
        self.check(request.getfixturevalue(name))

    def test_seeded_families(self):
        rng = random.Random(901)
        sizes = set()
        for _ in range(300):
            inst = random_family(rng)
            sizes.add((inst.universe_size, inst.m))
            self.check(inst)
        assert len(sizes) > 30

    def test_bad_variant_and_empty_deg16(self):
        # With no sets T^b has no hub and no spine, so it is refused.
        with pytest.raises(InvalidInstanceError):
            build(X3CInstance.of(3, [(0, 1, 2)]), "deg8")
        with pytest.raises(InvalidInstanceError):
            build(X3CInstance.of(3, []), "deg16")
        assert build(X3CInstance.of(3, []), "diam4").instance.n == 1
