"""Text formats for instances, decision trees, and X3C families.

Instance files: first line ``n root_id``, then one ``id parent_id weight``
line per node with ``parent_id = -1`` for the root; children order is the
order child lines appear. Decision trees are JSON with records
``{"query": v, "no": ..., "yes": ...}`` and ``{"leaf": v}``, written on a
single line; both the writer and the reader walk the records with an
explicit stack, so strategies of any height round-trip. The reader takes
records in the writer's key order as record-sized tokens of one regular
expression, and reads other key orders, indented files and escaped keys a
single JSON token at a time in the same loop. X3C files:
first line ``n m``, then m lines of three 0-based element indices.

Weights and costs can be far longer than the 4300 decimal digits to which
Python limits ``int``/``str`` conversions by default (the reduction's
weights reach that size), so they go through ``parse_int`` and
``format_int``, which convert long numbers in pieces short enough that the
limit never applies and leave the interpreter-global limit as it is.
"""

from __future__ import annotations

import re
import sys
from typing import TYPE_CHECKING

from .errors import InvalidDecisionTreeError, InvalidInstanceError
from .model import DecisionNode, InputTree, Leaf, Query

if TYPE_CHECKING:
    from fractions import Fraction


# Up to this many digits a conversion is never checked against the limit
# (the limit cannot be set below it).
_SHORT = sys.int_info.str_digits_check_threshold
_SHORT_BOUND = 10 ** _SHORT
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """``int(text)`` for decimal text of any length, raising ValueError on
    bad text as ``int`` does; text past the unchecked length must be ASCII
    digits after an optional sign. Long text is read in halves."""
    if len(text) <= _SHORT:
        return int(text)
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"invalid decimal integer of {len(text)} characters")
    if text[0] in "+-":
        value = parse_int(text[1:])
        return -value if text[0] == "-" else value
    k = len(text) // 2
    return parse_int(text[:-k]) * 10 ** k + parse_int(text[-k:])


def format_int(value: int) -> str:
    """``str(value)`` for an int of any size; long values are written in
    halves split at a power of ten."""
    if -_SHORT_BOUND < value < _SHORT_BOUND:
        return str(value)
    if value < 0:
        return "-" + format_int(-value)
    k = value.bit_length() * 3 // 20  # about half its digits: log10(2) > 0.3
    high, low = divmod(value, 10 ** k)
    return format_int(high) + format_int(low).zfill(k)


def _parse_eps(eps: Fraction | int | str) -> Fraction:
    """``Fraction(eps)``, refused with ValueError unless positive. ``Fraction``
    computes 10 ** |exponent| of a text before any check, so a text whose
    exponent is ``_SHORT`` or more is refused first."""
    from fractions import Fraction  # imported here: only fptas and bench read an epsilon

    if isinstance(eps, str):
        exponent = re.search(r"[eE][-+]?([0-9_]+)\s*$", eps)  # compiled on first use, not per import
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(_SHORT)) or int(digits or 0) >= _SHORT:
            raise ValueError(f"bad epsilon {eps!r}; its exponent must be below {_SHORT}")
    try:
        value = Fraction(eps)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad epsilon {eps!r}; use p/q or a decimal") from None
    if value <= 0:
        raise ValueError("epsilon must be positive")
    return value


def parse_instance(text: str) -> InputTree:
    lines = [ln for ln in text.splitlines()]
    rows: list[tuple[int, str]] = [
        (i + 1, ln) for i, ln in enumerate(lines) if ln.strip() and not ln.lstrip().startswith("#")
    ]
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
    parent = [None] * n
    weight = [0] * n
    children = [[] for _ in range(n)]
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
    return InputTree(parent, weight, children)


def format_instance(tree: InputTree) -> str:
    out = [f"{tree.n} {tree.root}"]
    # Preorder emission keeps each node's children in children-order, so the
    # file round-trips exactly.
    stack = [tree.root]
    while stack:
        v = stack.pop()
        out.append(f"{v} {tree.parent[v]} {format_int(tree.weight[v])}")
        for c in reversed(tree.children[v]):
            stack.append(c)
    return "\n".join(out) + "\n"


def format_decision_tree(root: DecisionNode) -> str:
    """The strategy as one line of JSON (``json.dumps`` of its records with
    default separators), written from an explicit stack so that the text and
    the time grow as O(n) at any height."""
    out: list[str] = []
    todo: list = [root]  # decision nodes, and literal text to emit as is
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Leaf):
            out.append(f'{{"leaf": {node.node}}}')
        elif isinstance(node, Query):
            if node.no is None or node.yes is None:
                raise InvalidDecisionTreeError([f"query {node.query} is missing a child"])
            out.append(f'{{"query": {node.query}, "no": ')
            todo += ("}", node.yes, ', "yes": ', node.no)
        else:
            raise InvalidDecisionTreeError([f"unexpected node {node!r}"])
    return "".join(out) + "\n"


# One token and the whitespace after it. The first three alternatives are
# record-sized, in the writer's key order and exact spacing: a whole leaf
# record, a query record up to its NO value, and the YES key between a
# query's two values. Each spans exactly the single tokens the later
# alternatives would give, so records in any other key order, spacing or
# with escaped keys are read a single token at a time: punctuation, a key,
# an integer literal, or any other character (always an error where it
# appears). The pattern stays a string, compiled on first use through re's
# cache: of the CLI's subcommands only eval reads strategies.
_WS = r"[ \t\n\r]*"
_INT = r"-?(?:0|[1-9][0-9]*)"
_TOKEN = (
    rf'(?:\{{"leaf": (?P<leaf>{_INT})\}}'
    rf'|\{{"query": (?P<query>{_INT}), "no":'
    r'|(?P<yes>, "yes":)'
    r'|(?P<open>\{)|(?P<close>\})|(?P<colon>:)|(?P<comma>,)'
    r'|(?P<key>"(?:[^"\\\x00-\x1f]|\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4}))*")'
    rf"|(?P<int>{_INT})|(?P<other>[^ \t\n\r])){_WS}"
)


# The kinds of token that may come next at each point of a record.
_WANT_RECORD = ("leaf", "query", "open")
_WANT_KEY = ("key",)
_WANT_COLON = ("colon",)
_WANT_ID = ("int",)
_WANT_AFTER_VALUE = ("comma", "close", "yes")
# What an error says was expected, for each kind of single token.
_EXPECTED = {"open": "'{'", "close": "'}'", "colon": "':'", "comma": "','", "key": "a key",
             "int": "an integer node id"}
_QUERY_KEYS = frozenset(("query", "no", "yes"))  # built once: every query record is checked


def _unexpected(where: str, want: tuple[str, ...]) -> InvalidDecisionTreeError:
    what = " or ".join(_EXPECTED[kind] for kind in want if kind in _EXPECTED)
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


def parse_decision_tree(text: str) -> DecisionNode:
    """Read a strategy written by ``format_decision_tree``, or any JSON of
    the same records in any key order and whitespace (indented files
    included), with an explicit stack instead of recursion. Node ids must
    be integer literals. Each loop turn reads one token: records as the
    writer spells them come as record-sized tokens (a query takes three
    turns, a leaf one), and anything else as single JSON tokens."""
    tokens = re.finditer(_TOKEN, text)
    open_records: list[tuple[dict, str]] = []  # enclosing records, each with its key awaiting a record
    fields: dict = {}  # the record whose keys are being read
    key = ""
    want = _WANT_RECORD  # the kinds of token that may come next
    for m in tokens:
        kind = m.lastgroup
        if kind not in want:
            raise _unexpected(f"offset {m.start()}", want)
        if kind == "query":  # '{"query": v, "no":', so a record comes next
            open_records.append(({"query": _node_id("query", m["query"])}, "no"))
        elif kind == "leaf" or kind == "close":  # a record is complete
            node = Leaf(_node_id("leaf", m["leaf"])) if kind == "leaf" else _record(fields)
            if not open_records:  # it is the strategy
                if next(tokens, None) is not None:
                    raise InvalidDecisionTreeError(["extra data after the strategy"])
                return node
            fields, key = open_records.pop()
            fields[key] = node
            want = _WANT_AFTER_VALUE
        elif kind == "yes" or kind == "key":  # ', "yes":' comes with its colon
            key = "yes" if kind == "yes" else _key(m["key"])
            if key not in ("leaf", "query", "no", "yes") or key in fields:
                raise InvalidDecisionTreeError([f"bad record keys {sorted(fields) + [key]}"])
            if kind == "yes":
                open_records.append((fields, key))
                want = _WANT_RECORD
            else:
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


def parse_x3c(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    rows = [
        (i + 1, ln) for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not rows:
        raise InvalidInstanceError("empty X3C file")
    lineno, header = rows[0]
    try:
        n, m = (int(x) for x in header.split())
    except ValueError:
        raise InvalidInstanceError(f"line {lineno}: expected 'n m'") from None
    if len(rows) - 1 != m:
        raise InvalidInstanceError(f"expected {m} set lines, found {len(rows) - 1}")
    fam = []
    for lineno, ln in rows[1:]:
        try:
            trip = tuple(int(x) for x in ln.split())
        except ValueError:
            raise InvalidInstanceError(f"line {lineno}: expected three element indices") from None
        if len(trip) != 3:
            raise InvalidInstanceError(f"line {lineno}: a set must have exactly 3 elements")
        for e in trip:
            if not 0 <= e < n:
                raise InvalidInstanceError(f"line {lineno}: element {e} out of range 0..{n - 1}")
        fam.append(trip)
    return n, fam


def format_x3c(n: int, sets) -> str:
    out = [f"{n} {len(sets)}"]
    for s in sets:
        out.append(" ".join(str(e) for e in s))
    return "\n".join(out) + "\n"
