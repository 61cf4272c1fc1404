"""Text formats for instances, decision trees, and X3C families.

Instance files: first line ``n root_id``, then one ``id parent_id weight``
line per node with ``parent_id = -1`` for the root; children order is the
order child lines appear. Decision trees are JSON with records
``{"query": v, "no": ..., "yes": ...}`` and ``{"leaf": v}``, written on a
single line; both the writer and the reader walk the records with an
explicit stack, so strategies of any height round-trip, and indented files
of the same records parse too. X3C files:
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

from .errors import InvalidDecisionTreeError, InvalidInstanceError
from .model import DecisionNode, InputTree, Leaf, Query


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


# One JSON token after optional whitespace: punctuation, a string, an integer
# literal, or any other character (always an error where it appears).
_TOKEN = re.compile(
    r'[ \t\n\r]*(?:([{}:,])|("(?:[^"\\\x00-\x1f]|\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4}))*")'
    r"|(-?(?:0|[1-9][0-9]*))|([^ \t\n\r]))"
)


def _record(fields: dict) -> DecisionNode:
    if fields.keys() == {"leaf"}:
        return Leaf(fields["leaf"])
    if fields.keys() == {"query", "no", "yes"}:
        return Query(fields["query"], fields["no"], fields["yes"])
    raise InvalidDecisionTreeError([f"bad record keys {sorted(fields)}"])


def parse_decision_tree(text: str) -> DecisionNode:
    """Read a strategy written by ``format_decision_tree``, or any JSON of
    the same records in any key order and whitespace (indented files
    included), with an explicit stack instead of recursion. Node ids must
    be integer literals."""
    tokens = _TOKEN.finditer(text)

    def take(group: int, punct: str = "") -> str:
        """The next token, which must match ``group`` (1 punctuation, 2 a
        string, 3 an integer) and, for punctuation, be one of ``punct``."""
        m = next(tokens, None)
        if m is None or m[group] is None or (punct and m[group] not in punct):
            where = "the end" if m is None else f"offset {m.start(m.lastindex)}"
            what = {2: "a key", 3: "an integer node id"}.get(group) or " or ".join(map(repr, punct))
            raise InvalidDecisionTreeError([f"bad JSON at {where}: expected {what}"])
        return m[group]

    take(1, "{")
    open_records: list[tuple[dict, str]] = []  # enclosing records, each with its key awaiting a value
    fields: dict = {}
    while True:
        key = take(2)
        if "\\" in key:  # an escaped key: rare, so json is imported only here
            import json

            key = json.loads(key)
        else:
            key = key[1:-1]
        if key not in ("leaf", "query", "no", "yes") or key in fields:
            raise InvalidDecisionTreeError([f"bad record keys {sorted(fields) + [key]}"])
        take(1, ":")
        if key in ("no", "yes"):
            take(1, "{")
            open_records.append((fields, key))
            fields = {}
            continue
        try:
            fields[key] = int(take(3))
        except ValueError:  # more digits than int() accepts
            raise InvalidDecisionTreeError([f"{key} id is too long"]) from None
        # After a value: ',' starts the next key; each '}' closes a record.
        while take(1, ",}") == "}":
            node = _record(fields)
            if not open_records:
                if next(tokens, None) is not None:
                    raise InvalidDecisionTreeError(["extra data after the strategy"])
                return node
            fields, key = open_records.pop()
            fields[key] = node


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
