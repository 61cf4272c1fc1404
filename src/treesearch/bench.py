"""The ``bench`` subcommand: every solver on every instance of a directory,
as a table and, with ``--json``, a report. It lives apart from ``cli`` so
that the other subcommands' children do not compile it, and it takes the
CLI's readers and writers as arguments: under ``python -m treesearch.cli``
the CLI runs as ``__main__``, and an import of ``treesearch.cli`` would run
a second copy whose errors its ``main`` does not catch."""

from __future__ import annotations

import time
from pathlib import Path

from . import io as tio, solve
from .errors import InvalidInstanceError, ResourceLimitError, TreeSearchError

_BENCH_ALGS = ("exact", "greedy", "dp", "fptas")


def _cell(value) -> str:
    """A bench table cell; ints of any length go through ``format_int``."""
    return "skipped" if value is None else tio.format_int(value) if isinstance(value, int) else str(value)


def _json_cost(value):
    """A cost as a JSON number, or as its decimal string when it is longer than
    ``io._SHORT`` digits (sys.int_info.str_digits_check_threshold): past that length ``json.dumps``
    and ``json.loads`` may refuse to convert it, depending on the interpreter's int-string limit."""
    if value is None:
        return None
    text = tio.format_int(value)
    return value if len(text) <= tio._SHORT else text


def bench(args, read, say, write) -> bool:
    """Print the table with ``say``, write the report with ``write``; True if an instance failed."""
    suite = Path(args.suite)
    if not suite.is_dir():
        raise InvalidInstanceError(f"{args.suite} is not a directory")
    files = sorted(p for p in suite.iterdir() if p.is_file())
    if not files:
        raise InvalidInstanceError(f"no instances in {args.suite}")
    rows, failed = [], False
    for path in files:
        row = {"instance": path.name}
        try:
            tree = tio.parse_instance(read(path))
            row["n"] = tree.n
            for alg in _BENCH_ALGS:
                t0 = time.perf_counter()
                try:
                    row[alg], _, _ = solve(tree, alg, eps=args.eps, limit=args.limit)
                except ResourceLimitError:
                    row[alg] = None
                    continue
                row[f"{alg}_time"] = round(time.perf_counter() - t0, 4)
                if alg in ("greedy", "fptas") and row["exact"]:
                    row[f"{alg}_ratio"] = round(row[alg] / row["exact"], 4)
        except TreeSearchError as e:
            row["error"] = str(e)
            failed = True
        rows.append(row)
    cols = ["instance", "n", "exact", "greedy", "greedy_ratio", "dp", "fptas", "fptas_ratio", "error"]
    say("  ".join(f"{c:>12}" for c in cols),
        *("  ".join(f"{_cell(row.get(c, '')):>12}" for c in cols) for row in rows))
    if args.json:
        import json  # imported here: only this report writes JSON

        report = [{k: _json_cost(v) if k in _BENCH_ALGS else v for k, v in row.items()} for row in rows]
        write(args.json, json.dumps({"eps": str(args.eps), "rows": report}, indent=2) + "\n")
    return failed
