import json
import random
import sys

import pytest

from treesearch import (
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
