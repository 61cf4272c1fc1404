"""The general reader of strategy files: any JSON of the strategy records
(``{"query": v, "no": ..., "yes": ...}`` and ``{"leaf": v}``) in any key
order and whitespace, escaped keys and indented files included, one JSON
token per loop turn, with an explicit stack instead of recursion. Node ids
must be integer literals. ``io.parse_decision_tree`` reads the writer's own
spelling itself and comes here for any other text and for every error, so
a CLI child that reads what ``solve`` wrote does not compile this module."""

from __future__ import annotations

import re

from .errors import InvalidDecisionTreeError
from .io import _INT
from .model import DecisionNode, Leaf, Query

# One JSON token and the whitespace after it: punctuation, a key, an integer
# literal, or any other character (always an error where it appears).
_WS = r"[ \t\n\r]*"
_TOKEN = (
    r'(?:(?P<open>\{)|(?P<close>\})|(?P<colon>:)|(?P<comma>,)'
    r'|(?P<key>"(?:[^"\\\x00-\x1f]|\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4}))*")'
    rf"|(?P<int>{_INT})|(?P<other>[^ \t\n\r])){_WS}"
)


# The kinds of token that may come next at each point of a record.
_WANT_RECORD = ("open",)
_WANT_KEY = ("key",)
_WANT_COLON = ("colon",)
_WANT_ID = ("int",)
_WANT_AFTER_VALUE = ("comma", "close")
# What an error says was expected, for each kind of token.
_EXPECTED = {"open": "'{'", "close": "'}'", "colon": "':'", "comma": "','", "key": "a key",
             "int": "an integer node id"}
_QUERY_KEYS = frozenset(("query", "no", "yes"))  # built once: every query record is checked


def _unexpected(where: str, want: tuple[str, ...]) -> InvalidDecisionTreeError:
    what = " or ".join(_EXPECTED[kind] for kind in want)
    return InvalidDecisionTreeError([f"bad JSON at {where}: expected {what}"])


def _key(quoted: str) -> str:
    if "\\" in quoted:  # an escaped key: rare, so json is imported only here
        import json

        return json.loads(quoted)
    return quoted[1:-1]


def _node_id(key: str, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() accepts
        raise InvalidDecisionTreeError([f"{key} id is too long"]) from None


def _record(fields: dict) -> DecisionNode:
    if fields.keys() == _QUERY_KEYS:
        return Query(fields["query"], fields["no"], fields["yes"])
    if fields.keys() == {"leaf"}:
        return Leaf(fields["leaf"])
    raise InvalidDecisionTreeError([f"bad record keys {sorted(fields)}"])


def read_records(text: str) -> DecisionNode:
    """The strategy in ``text``; InvalidDecisionTreeError if it is not one."""
    tokens = re.finditer(_TOKEN, text)
    open_records: list[tuple[dict, str]] = []  # enclosing records, each with its key awaiting a record
    fields: dict = {}  # the record whose keys are being read
    key = ""
    want = _WANT_RECORD  # the kinds of token that may come next
    for m in tokens:
        kind = m.lastgroup
        if kind not in want:
            raise _unexpected(f"offset {m.start()}", want)
        if kind == "close":  # a record is complete
            node = _record(fields)
            if not open_records:  # it is the strategy
                if next(tokens, None) is not None:
                    raise InvalidDecisionTreeError(["extra data after the strategy"])
                return node
            fields, key = open_records.pop()
            fields[key] = node
            want = _WANT_AFTER_VALUE
        elif kind == "key":
            key = _key(m["key"])
            if key not in ("leaf", "query", "no", "yes") or key in fields:
                raise InvalidDecisionTreeError([f"bad record keys {sorted(fields) + [key]}"])
            want = _WANT_COLON
        elif kind == "colon":
            if key == "no" or key == "yes":
                open_records.append((fields, key))
                want = _WANT_RECORD
            else:
                want = _WANT_ID
        elif kind == "int":
            fields[key] = _node_id(key, m["int"])
            want = _WANT_AFTER_VALUE
        else:  # '{' or ','
            if kind == "open":
                fields = {}
            want = _WANT_KEY
    raise _unexpected("the end", want)


