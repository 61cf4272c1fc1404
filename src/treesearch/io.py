"""Text formats for instances, decision trees, and X3C families.

Instance files: first line ``n root_id``, then one ``id parent_id weight``
line per node with ``parent_id = -1`` for the root; children order is the
order child lines appear. Decision trees are JSON with records
``{"query": v, "no": ..., "yes": ...}`` and ``{"leaf": v}``, written on a
single line; both the writer and the reader walk the records with an
explicit stack, so strategies of any height round-trip. The reader takes
text in the writer's spelling one strategy node per loop turn, and leaves
other key orders, indented files and escaped keys, and every error, to
``jsontokens``, which reads a JSON token at a time. X3C files:
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
from operator import methodcaller
from typing import TYPE_CHECKING

from .errors import InvalidDecisionTreeError, InvalidInstanceError
from .model import DecisionNode, InputTree, Leaf, Query

if TYPE_CHECKING:
    from fractions import Fraction


# Up to this many digits a conversion is never checked against the limit
# (the limit cannot be set below it).
_SHORT = sys.int_info.str_digits_check_threshold
_SHORT_BOUND = 10 ** _SHORT
_DECIMAL = r"[+-]?[0-9]+"  # compiled on first use: only weights past _SHORT digits need it


def parse_int(text: str) -> int:
    """``int(text)`` for decimal text of any length, raising ValueError on
    bad text as ``int`` does; text past the unchecked length must be ASCII
    digits after an optional sign. Long text is read in halves."""
    if len(text) <= _SHORT:
        return int(text)
    if not re.fullmatch(_DECIMAL, text):
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
    """The instance in ``text``. Each line is split once, as it is read; the
    reader checks what needs a line number (syntax, id and parent ranges,
    repeated ids, the root) and builds the parent, weight and children
    columns that ``InputTree`` takes, which checks the tree they form. The
    rows keep their lines unsplit: a million lists of parts, held at once,
    cost more memory and garbage-collector passes than splitting saves."""
    rows = [(i, line) for i, line in enumerate(text.splitlines(), 1) if (head := line.lstrip()) and head[0] != "#"]
    if not rows:
        raise InvalidInstanceError("empty instance file")
    lineno, line = rows[0]
    parts = line.split()
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
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise InvalidInstanceError(f"line {lineno}: expected 'id parent_id weight'")
        v, p, w = parts
        try:
            v, p, w = int(v), int(p), int(w) if len(w) <= _SHORT else parse_int(w)
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
        elif 0 <= p < n:
            children[p].append(v)
        else:
            raise InvalidInstanceError(f"line {lineno}: parent id {p} out of range")
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
    the time grow as O(n) at any height. Each node is one loop turn: a query
    writes its record up to its NO value, and a leaf writes its record, the
    braces of the queries whose YES side it ends, and the YES key that
    follows them, the spelling ``_read_written`` reads. A node that is not a
    leaf or a query with an ``int`` id (``True`` and ``1.0`` are not) raises
    ``InvalidDecisionTreeError``, as the reader would refuse its text."""
    out: list[str] = []
    todo: list = [(root, 0, "")]  # a node, the queries its text ends, and the YES key if one follows
    while todo:
        node, closes, yes = todo.pop()
        if isinstance(node, Leaf) and node.node.__class__ is int:  # the reader takes integer ids alone
            out.append(f'{{"leaf": {node.node}}}' + "}" * closes + yes)
        elif isinstance(node, Query) and node.query.__class__ is int:
            if node.no is None or node.yes is None:
                raise InvalidDecisionTreeError([f"query {node.query} is missing a child"])
            out.append(f'{{"query": {node.query}, "no": ')
            todo += ((node.yes, closes + 1, yes), (node.no, 0, ', "yes": '))
        else:
            raise InvalidDecisionTreeError([f"unexpected node {node!r}"])
    return "".join(out) + "\n"


# The writer's spelling, one piece per strategy node in preorder: a query
# record up to its NO value, or a leaf record with the braces that close the
# queries it ends and the YES key that may follow them. Any other character
# is a piece of its own, with no id. The pattern stays a string, compiled on
# first use through re's cache: of the CLI's subcommands only eval reads
# strategies.
_INT = r"-?(?:0|[1-9][0-9]*)"
_WRITTEN = rf'\{{"query": ({_INT}), "no": |\{{"leaf": ({_INT})\}}(\}}*)(, "yes": )?|[\s\S]'


def _read_written(text: str) -> DecisionNode | None:
    """The strategy in ``text`` if ``format_decision_tree`` would write it so,
    else None. One loop turn per strategy node, each with a piece of
    ``_WRITTEN``: a query id waits on ``stack`` until its NO side is built,
    which then waits above it until each closing brace joins the pair and
    the node built last into a query."""
    pieces = map(methodcaller("groups", ""), re.finditer(_WRITTEN, text.rstrip(" \t\n\r")))  # never one list
    stack: list = []
    try:
        for query, leaf, closes, yes in pieces:
            if query:
                stack.append(int(query))
                continue
            node = Leaf(int(leaf))  # a ValueError if the piece is another character
            for _ in closes:
                if not stack or stack[-1].__class__ is int:  # no query has its NO side built
                    return None
                no = stack.pop()
                node = Query(stack.pop(), no, node)
            if not yes:  # the strategy ends here
                return node if not stack and next(pieces, None) is None else None
            if not stack or stack[-1].__class__ is not int:  # no query waits for its NO side
                return None
            stack.append(node)
    except ValueError:  # another character, or more digits than int() accepts
        return None
    return None


def parse_decision_tree(text: str) -> DecisionNode:
    """Read a strategy written by ``format_decision_tree``, or any JSON of
    the same records in any key order and whitespace (indented files
    included), with an explicit stack instead of recursion. Node ids must
    be integer literals. Text spelled as the writer spells it is read by
    ``_read_written``; any other text, and any text with an error, by
    ``jsontokens.read_records``, one JSON token at a time, which gives the
    errors."""
    strategy = _read_written(text)
    if strategy is None:
        from .jsontokens import read_records  # imported here: the writer's spelling never needs it

        strategy = read_records(text)
    return strategy


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
