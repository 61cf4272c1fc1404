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


def test_instance_round_trip_random():
    rng = random.Random(24)
    for _ in range(30):
        t = random_tree(rng.randint(1, 25), rng.randrange(10**6), (0, 99))
        assert parse_instance(format_instance(t)) == t


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
