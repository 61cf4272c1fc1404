import json
import random
import sys

import pytest

from treesearch import (
    InputTree,
    InvalidDecisionTreeError,
    InvalidInstanceError,
    Leaf,
    Query,
    format_decision_tree,
    format_instance,
    format_x3c,
    greedy,
    parse_decision_tree,
    parse_instance,
    parse_x3c,
)
from treesearch.gen import random_tree
from treesearch.io import format_int, parse_int


def test_instance_round_trip_random():
    rng = random.Random(24)
    for _ in range(30):
        t = random_tree(rng.randint(1, 25), rng.randrange(10**6), (0, 99))
        assert parse_instance(format_instance(t)) == t


def test_long_integers_convert_in_pieces():
    # Past Python's default 4300-digit int-string limit, without touching it.
    rng = random.Random(25)
    for digits in (1, 639, 640, 641, 4300, 4301, 9000, 30_000):
        for v in (10 ** (digits - 1), 10 ** digits - 1, rng.randrange(10 ** (digits - 1), 10 ** digits)):
            text = format_int(v)
            assert len(text) == digits and text[0] != "0"
            assert parse_int(text) == v and parse_int("+00" + text) == v
            assert format_int(-v) == "-" + text and parse_int("-" + text) == -v
    assert format_int(10 ** 5000) == "1" + "0" * 5000
    for bad in ("1" * 5000 + "x", "--" + "1" * 5000, "1_0" * 2000, "١" * 5000):
        with pytest.raises(ValueError):
            parse_int(bad)
    with pytest.raises(InvalidInstanceError, match="line 3: expected integers"):
        parse_instance("2 0\n0 -1 1\n1 0 " + "9" * 5000 + "z\n")


def test_instance_round_trip_preserves_children_order():
    from treesearch import InputTree

    t = InputTree([-1, 0, 0], [1, 2, 3], [[2, 1], [], []])
    again = parse_instance(format_instance(t))
    assert again.children[0] == (2, 1)
    assert again == t


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InvalidInstanceError, match="line 3"):
        parse_instance("2 0\n0 -1 1\n1 9 1\n")
    with pytest.raises(InvalidInstanceError, match="line 2"):
        parse_instance("2 0\n0 -1 x\n1 0 1\n")


@pytest.mark.parametrize("root", [2, 7, -1, -3])
def test_root_id_out_of_range_rejected(root):
    with pytest.raises(InvalidInstanceError, match=f"line 1: root id {root} out of range 0..1"):
        parse_instance(f"2 {root}\n0 1 1\n1 0 1\n")


def test_duplicate_node_line_rejected():
    with pytest.raises(InvalidInstanceError, match="twice"):
        parse_instance("2 0\n0 -1 1\n0 -1 1\n")


def test_decision_tree_round_trip():
    rng = random.Random(25)
    for _ in range(20):
        t = random_tree(rng.randint(1, 20), rng.randrange(10**6), (0, 9))
        strategy = greedy(t)
        assert parse_decision_tree(format_decision_tree(strategy)) == strategy


def test_decision_tree_bad_keys_rejected():
    with pytest.raises(InvalidDecisionTreeError):
        parse_decision_tree('{"ask": 1}')


def _records(node):
    """The JSON object form of a strategy, built recursively (small trees only)."""
    if isinstance(node, Leaf):
        return {"leaf": node.node}
    return {"query": node.query, "no": _records(node.no), "yes": _records(node.yes)}


def _from_records(obj):
    if "leaf" in obj:
        return Leaf(obj["leaf"])
    return Query(obj["query"], _from_records(obj["no"]), _from_records(obj["yes"]))


def test_decision_tree_text_is_single_line_json():
    rng = random.Random(26)
    for _ in range(40):
        t = random_tree(rng.randint(1, 20), rng.randrange(10**6), (0, 9))
        strategy = greedy(t)
        assert format_decision_tree(strategy) == json.dumps(_records(strategy)) + "\n"


def test_decision_tree_reads_indented_json():
    rng = random.Random(27)
    for _ in range(40):
        t = random_tree(rng.randint(1, 20), rng.randrange(10**6), (0, 9))
        for text in (json.dumps(_records(greedy(t)), indent=2),
                     json.dumps(_records(greedy(t)), indent="\t", sort_keys=True) + "\r\n"):
            assert parse_decision_tree(text) == _from_records(json.loads(text))


def test_decision_tree_tall_round_trip(star1500, default_recursion_limit):
    _, strategy = star1500
    text = format_decision_tree(strategy)
    assert sys.getrecursionlimit() == default_recursion_limit
    assert len(text) < 64 * 1501  # O(n), not O(n * height)
    assert format_decision_tree(parse_decision_tree(text)) == text
    assert format_decision_tree(parse_decision_tree(text.replace(", ", ",\n    "))) == text
    assert sys.getrecursionlimit() == default_recursion_limit


def test_decision_tree_escaped_keys():
    text = '{"\\u0071uery": 1, "n\\u006F": {"leaf": 0}, "yes": {"l\\u0065af": 1}}'
    assert parse_decision_tree(text) == Query(1, Leaf(0), Leaf(1)) == _from_records(json.loads(text))
    with pytest.raises(InvalidDecisionTreeError, match="bad record keys"):
        parse_decision_tree('{"le\\naf": 1}')


def _reference_record(pairs):
    """``object_pairs_hook`` for ``json.loads``: a strategy record, whose keys
    are exactly ``{leaf}`` or ``{query, no, yes}``, none twice, with ids of
    type int (not bool or float) and records as values of no and yes."""
    fields = dict(pairs)
    if len(fields) == len(pairs) == 1 and type(fields.get("leaf")) is int:
        return Leaf(fields["leaf"])
    if (len(fields) == len(pairs) and fields.keys() == {"query", "no", "yes"} and type(fields["query"]) is int
            and all(isinstance(fields[key], (Leaf, Query)) for key in ("no", "yes"))):
        return Query(fields["query"], fields["no"], fields["yes"])
    raise ValueError(f"not a strategy record: {pairs}")


def _reference_parse(text):
    """The strategy that ``json.loads`` reads from ``text``, or None."""
    try:
        strategy = json.loads(text, object_pairs_hook=_reference_record)
    except ValueError:
        return None
    return strategy if isinstance(strategy, (Leaf, Query)) else None


def test_decision_tree_reader_matches_json_reference():
    """On writer output, indented and key-sorted dumps, and up to three
    edits of each, the reader accepts exactly the texts that the json
    reference reads, raises InvalidDecisionTreeError on the others, and
    reads the same tree. Edits insert, delete or replace JSON punctuation,
    digits, whitespace or a key, write one character as a \\u escape
    (inside a key, the same key), or repeat a stretch of the text."""
    rng = random.Random(28)
    pieces = [*'{}:,"-0123456789', " ", "\t", "\n", "\r", '"leaf"', '"query"', '"no"', '"yes"']
    accepted = 0
    for case in range(4000):
        strategy = greedy(random_tree(rng.randint(1, 12), rng.randrange(10**6), (0, 9)))
        text = (format_decision_tree(strategy), json.dumps(_records(strategy), indent=rng.choice([1, "\t"])),
                json.dumps(_records(strategy), indent=rng.choice([None, 2]), sort_keys=True))[case % 3]
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(text))
            edit = rng.randrange(5)
            if edit == 0:
                text = text[:i] + rng.choice(pieces) + text[i:]
            elif edit == 1:
                text = text[:i] + text[i + 1:]
            elif edit == 2:
                text = text[:i] + rng.choice(pieces) + text[i + 1:]
            elif edit == 3:
                text = text[:i] + f"\\u{ord(text[i]):04x}" + text[i + 1:]
            else:  # repeat a stretch that starts and ends at punctuation: a key or a record twice
                i, j = sorted(rng.choices([k for k, c in enumerate(text) if c in ",{}"] or [i], k=2))
                text = text[:j] + text[i:j] + text[j:]
        expected = _reference_parse(text)
        try:
            got = parse_decision_tree(text)
        except InvalidDecisionTreeError:
            got = None
        assert got == expected, text
        accepted += got is not None
    assert 1000 < accepted < 3000, accepted  # both outcomes are well represented


@pytest.mark.parametrize("text", [
    "", "{", "{}", "[]", '"leaf"', '{"leaf": 1} {"leaf": 1}', '{"leaf": 1,}', '{"leaf" 1}',
    '{"leaf": true}', '{"leaf": null}', '{"leaf": 1.0}', '{"leaf": 1e2}', '{"leaf": 01}',
    '{"leaf": "1"}', '{"leaf": 1, "leaf": 2}',
    pytest.param('{"leaf": ' + "1" * 5000 + "}", id="5000-digit-id"),
    '{"query": false, "no": {"leaf": 0}, "yes": {"leaf": 1}}',
    '{"query": 1, "no": 0, "yes": {"leaf": 1}}',
    '{"query": 1, "no": {"leaf": 0}}',
    '{"query": 1, "no": {"leaf": 0}, "yes": {"leaf": 1}, "leaf": 2}',
])
def test_decision_tree_malformed_rejected(text):
    with pytest.raises(InvalidDecisionTreeError):
        parse_decision_tree(text)


def test_x3c_round_trip():
    n, fam = 6, [(0, 1, 2), (3, 4, 5)]
    assert parse_x3c(format_x3c(n, fam)) == (n, [(0, 1, 2), (3, 4, 5)])


def test_x3c_bad_arity():
    with pytest.raises(InvalidInstanceError, match="exactly 3"):
        parse_x3c("6 1\n0 1\n")


def _reference_input_tree(parent, weight, children_order=None):
    """The fields ``InputTree`` derives, by the constructor as it was before
    its checks ran over whole columns: every check a Python loop over the
    nodes, in this order. Raises InvalidInstanceError as it did."""
    n = len(parent)
    if n == 0:
        raise InvalidInstanceError("instance must have at least one node")
    if len(weight) != n:
        raise InvalidInstanceError("parent and weight lengths differ")
    parent = tuple(parent)
    if set(map(type, parent)) != {int}:
        raise InvalidInstanceError("parent ids must be integers")
    roots = [v for v in range(n) if parent[v] == -1]
    if len(roots) != 1:
        raise InvalidInstanceError(f"expected exactly one root, found {len(roots)}")
    root = roots[0]
    for v, p in enumerate(parent):
        if v != root and not (0 <= p < n):
            raise InvalidInstanceError(f"node {v}: parent {p} out of range")
    for w in weight:
        if not isinstance(w, int) or isinstance(w, bool) or w < 0:
            raise InvalidInstanceError("weights must be nonnegative integers")
    weight = tuple(int(w) for w in weight)
    if children_order is None:
        kids = [[] for _ in range(n)]
        for v in range(n):
            if v != root:
                kids[parent[v]].append(v)
    else:
        kids = [list(c) for c in children_order]
        if len(kids) != n:
            raise InvalidInstanceError("children_order must cover every node")
        seen = set()
        for u in range(n):
            for c in kids[u]:
                if c.__class__ is not int or not 0 <= c < n:
                    raise InvalidInstanceError(f"children_order lists {c!r}, not a node id")
                if parent[c] != u:
                    raise InvalidInstanceError(f"node {c} listed under {u} but parent is {parent[c]}")
                if c in seen:
                    raise InvalidInstanceError(f"node {c} listed twice in children_order")
                seen.add(c)
        if len(seen) != n - 1:
            raise InvalidInstanceError("children_order must list every non-root node once")
    children = tuple(tuple(c) for c in kids)
    order, pre, stack = [], [0] * n, [root]
    while stack:
        u = stack.pop()
        pre[u] = len(order)
        order.append(u)
        stack.extend(children[u])
    if len(order) != n:
        raise InvalidInstanceError("parent links do not form a single tree")
    post = tuple(reversed(order))
    size = [1] * n
    for u in post:
        for c in children[u]:
            size[u] += size[c]
    return {"n": n, "root": root, "parent": parent, "children": children, "weight": weight,
            "pre": tuple(pre), "size": tuple(size), "postorder": post, "total_weight": sum(weight),
            "max_children": max(len(c) for c in children)}


def _reference_parse_instance(text):
    """``parse_instance`` as it was: the rows filtered first, then a loop
    over them, then ``_reference_input_tree``."""
    rows = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise InvalidInstanceError("empty instance file")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise InvalidInstanceError(f"line {lineno}: expected 'n root_id'")
    try:
        n, root = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInstanceError(f"line {lineno}: expected integers 'n root_id'") from None
    if n <= 0:
        raise InvalidInstanceError(f"line {lineno}: n must be positive")
    if not 0 <= root < n:
        raise InvalidInstanceError(f"line {lineno}: root id {root} out of range 0..{n - 1}")
    if len(rows) - 1 != n:
        raise InvalidInstanceError(f"expected {n} node lines, found {len(rows) - 1}")
    parent, weight, children = [None] * n, [0] * n, [[] for _ in range(n)]
    for lineno, ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise InvalidInstanceError(f"line {lineno}: expected 'id parent_id weight'")
        try:
            v, p, w = int(parts[0]), int(parts[1]), parse_int(parts[2])
        except ValueError:
            raise InvalidInstanceError(f"line {lineno}: expected integers 'id parent_id weight'") from None
        if not 0 <= v < n:
            raise InvalidInstanceError(f"line {lineno}: node id {v} out of range 0..{n - 1}")
        if parent[v] is not None:
            raise InvalidInstanceError(f"line {lineno}: node {v} defined twice")
        if w < 0:
            raise InvalidInstanceError(f"line {lineno}: negative weight")
        if p == -1:
            if v != root:
                raise InvalidInstanceError(f"line {lineno}: node {v} has parent -1 but root is {root}")
        else:
            if not 0 <= p < n:
                raise InvalidInstanceError(f"line {lineno}: parent id {p} out of range")
            children[p].append(v)
        parent[v] = p
        weight[v] = w
    if parent[root] != -1:
        raise InvalidInstanceError(f"root {root} must have parent -1")
    return _reference_input_tree(parent, weight, children)


def _tree_fields(tree):
    return {name: getattr(tree, name) for name in InputTree.__slots__}


def _outcome(f, *args):
    """The fields of the tree ``f`` builds, or the message it refuses with."""
    try:
        out = f(*args)
    except InvalidInstanceError as e:
        return "refused", str(e)
    return out if isinstance(out, dict) else _tree_fields(out)


def _double_star(n):
    """Two adjacent centers 0 and 1 with the other nodes shared out between them."""
    return [-1, 0] + [v % 2 for v in range(2, n)]


def _instance_texts(tree, rng):
    """``tree`` as the writer writes it, and as a file in id order with
    comments, blank lines and extra spaces, its children order kept."""
    yield format_instance(tree)
    order = {c: i for u in range(tree.n) for i, c in enumerate(tree.children[u])}
    lines = [f"# n = {tree.n}", f"{tree.n}   {tree.root}", ""]
    for v in sorted(range(tree.n), key=lambda v: order.get(v, -1)):
        lines.append(f"  {v} {tree.parent[v]}\t{tree.weight[v]}" + rng.choice(["", " ", "\n  # a comment", "\n"]))
    yield "\n".join(lines) + "\n"


def test_instance_reader_matches_reference():
    """On every shape with n <= 8, relabelled, with zero weights, children in
    id order and reversed, and on seeded 1200-node random, path, star and
    double-star trees, ``parse_instance`` builds the tree that the reader
    and constructor as they were build, field for field."""
    from treesearch.gen import all_tree_shapes, seeded_weights

    rng = random.Random(29)
    trees = []
    for n in range(1, 9):
        for parents in all_tree_shapes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            parent = [0] * n
            for v, p in enumerate(parents):
                parent[perm[v]] = -1 if p == -1 else perm[p]
            t = InputTree(parent, seeded_weights(n, len(trees), hi=3, lo=0))
            trees += [t, InputTree(t.parent, t.weight, [c[::-1] for c in t.children])]
    assert len(trees) == 2 * 200
    for shape in (lambda n: list(random_tree(n, 30).parent), lambda n: [-1] + list(range(n - 1)),
                  lambda n: [-1] + [0] * (n - 1), _double_star):
        parent = shape(1200)
        perm = list(range(1200))
        rng.shuffle(perm)
        relabelled = [0] * 1200
        for v, p in enumerate(parent):
            relabelled[perm[v]] = -1 if p == -1 else perm[p]
        trees.append(InputTree(relabelled, [rng.randint(0, 100) for _ in range(1200)]))
    for t in trees:
        for text in _instance_texts(t, rng):
            assert _outcome(parse_instance, text) == _outcome(_reference_parse_instance, text) == _tree_fields(t)


def test_instance_reader_refuses_as_reference():
    """Texts one to three edits away from small instances (numbers changed,
    lines dropped, repeated or swapped, tokens added or removed) are read or
    refused exactly as the reader and constructor as they were read or
    refuse them, message for message."""
    rng = random.Random(30)
    refused = 0
    for case in range(3000):
        t = random_tree(rng.randint(1, 7), rng.randrange(10**6), (0, 5))
        lines = format_instance(t).splitlines()
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines))
            edit = rng.randrange(6)
            if edit == 0:  # one number changed
                parts = lines[i].split()
                parts[rng.randrange(len(parts))] = rng.choice(["-2", "-1", "0", "1", "2", str(t.n), "x", "1.5"])
                lines[i] = " ".join(parts)
            elif edit == 1:
                del lines[i]
            elif edit == 2:
                lines.insert(i, lines[i])
            elif edit == 3:  # two lines' parents swapped: perhaps a cycle
                j = rng.randrange(len(lines))
                a, b = lines[i].split(), lines[j].split()
                if len(a) == len(b) == 3:
                    a[1], b[1] = b[1], a[1]
                    lines[i], lines[j] = " ".join(a), " ".join(b)
            elif edit == 4:
                lines[i] += rng.choice([" 7", " #", ""])
            else:
                lines[i] = " ".join(lines[i].split()[:-1])
            if not lines:
                break
        text = "\n".join(lines) + "\n"
        expected = _outcome(_reference_parse_instance, text)
        assert _outcome(parse_instance, text) == expected, text
        refused += isinstance(expected, tuple)
    assert 1000 < refused < 2900, refused


@pytest.mark.parametrize("parent, weight, order", [
    ([], [], None), ([-1], [1, 2], None), ([-1, 0.0], [1, 1], None), ([-1, -1], [1, 1], None),
    ([0, 1], [1, 1], None), ([-1, 2], [1, 1], None), ([-1, -2], [1, 1], None), ([-1, 0], [1, -1], None),
    ([-1, 0], [1, True], None), ([-1, 0], [1, 1.0], None), ([-1, 0], [1, "1"], None), ([-1, 0], [1, 1], [[1]]),
    ([-1, 0], [1, 1], [[True], []]), ([-1, 0], [1, 1], [[2], []]),
    ([-1, 0], [1, 1], [[], [1]]), ([-1, 0, 0], [1, 1, 1], [[1, 1], [], []]), ([-1, 0, 0], [1, 1, 1], [[1], [], []]),
    ([-1, 0, 0], [1, 1, 1], [[1], [2], []]), ([-1, 2, 1], [1, 1, 1], None), ([-1, 2, 1], [1, 1, 1], [[], [2], [1]]),
    ([-1, 0, 1], [1, 0, 2], [[1], [2], []]), ([-1, 0, 0], [0, 0, 0], [(2, 1), (), ()]),
])
def test_constructor_refuses_as_reference(parent, weight, order):
    """Each malformed column alone is refused with the message the
    constructor gave before its checks ran over whole columns, and a
    well-formed one is read the same. (Where one listing breaks two rules,
    a node listed twice and once under another parent, either message may
    come first.)"""
    assert _outcome(InputTree, parent, weight, order) == _outcome(_reference_input_tree, parent, weight, order)


@pytest.mark.parametrize("strategy", [
    Query(1, Leaf(0), "leaf"), Query(1, None, Leaf(0)), "leaf", None,
    Query(True, Leaf(0), Leaf(None)), Leaf(1.0), Leaf(False), Query(1.0, Leaf(0), Leaf(1)),
    Query(1, Leaf(0), Query(2, Leaf(1), Leaf("2"))),
], ids=["text-side", "missing-side", "text", "none",
        "bool-query-none-leaf", "float-leaf", "bool-leaf", "float-query", "text-leaf"])
def test_writer_refuses_what_is_not_a_strategy(strategy):
    # A text in a YES side was once copied into the output as it stood, and
    # ids that are not ints were written as text the reader refuses
    # (``{"leaf": 1.0}``, ``{"query": True, ...``) or reads as another id
    # (``Leaf("2")`` as ``{"leaf": 2}``).
    with pytest.raises(InvalidDecisionTreeError):
        format_decision_tree(strategy)


def test_strategy_writer_and_reader_match_reference():
    """On every shape with n <= 8 (weights 0..3) and on seeded 1200-node
    random, path, star and double-star trees, each with the strategy
    ``solve`` picks and the greedy one: the writer writes what ``json.dumps``
    of the records writes, and the reader reads back the strategy, as the
    ``json`` reference does. ``json`` recurses, so the recursion limit is
    raised for the tall strategies of the stars."""
    from treesearch import solve
    from treesearch.gen import all_tree_shapes, seeded_weights

    trees = [InputTree(parents, seeded_weights(n, n + len(parents), hi=3, lo=0))
             for n in range(1, 9) for parents in all_tree_shapes(n)]
    rng = random.Random(34)
    for parent in (random_tree(1200, 35).parent, [-1] + list(range(1199)), [-1] + [0] * 1199,
                   _double_star(1200)):
        trees.append(InputTree(parent, [rng.randint(0, 100) for _ in range(1200)]))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        for t in trees:
            for strategy in {solve(t)[1], greedy(t)}:
                text = format_decision_tree(strategy)
                assert text == json.dumps(_records(strategy)) + "\n"
                assert parse_decision_tree(text) == strategy == _reference_parse(text)
    finally:
        sys.setrecursionlimit(old)
