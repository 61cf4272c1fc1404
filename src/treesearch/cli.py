"""Command-line surface: instance I/O, solving (through the library's
``solve``), evaluation, reduction generation, and benchmarking.

Exit codes: 0 ok, 1 usage, 2 validation/parse failure, 3 resource cap.
Payload output (trees, instances) goes to --out when given, else stdout;
human-readable stats always go to stdout.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import io as tio, reduction, solve
from .errors import (
    DEFAULT_LIMIT,
    InfeasibleError,
    InvalidDecisionTreeError,
    InvalidInstanceError,
    ResourceLimitError,
    TreeSearchError,
)
from .model import cost, tree_height, tree_size, validate

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_OK, EXIT_USAGE, EXIT_INVALID, EXIT_RESOURCE = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InvalidInstanceError(f"cannot read {path}: {e}") from None


class _UnwritableError(Exception):
    """An output path cannot be written: a usage error, not a bad instance."""


def _write(path: str, payload: str) -> None:
    try:
        Path(path).write_text(payload)
    except OSError as e:
        raise _UnwritableError(f"cannot write {path}: {e}") from None


def _emit(payload: str, out: str | None) -> None:
    if out:
        _write(out, payload)
    else:
        sys.stdout.write(payload)


def _parse_eps(text: str) -> Fraction:
    from fractions import Fraction  # imported here: only fptas and bench read --eps

    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad epsilon {text!r}; use p/q or a decimal") from None
    if eps <= 0:
        raise argparse.ArgumentTypeError("epsilon must be positive")
    return eps


def _parse_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}; expected an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"bad value {text!r}; must be non-negative")
    return value


def _parse_weight_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split("..", 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad weight range {text!r}; expected lo..hi") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"bad weight range {text!r}; need 0 <= lo <= hi")
    return lo, hi


def cmd_solve(args) -> int:
    if args.alg == "fptas" and args.eps is None:
        args.usage_error("--alg fptas requires --eps")
    tree = tio.parse_instance(_read(args.input))
    t0 = time.perf_counter()
    c, strategy, alg = solve(tree, args.alg, eps=args.eps, height=args.height, limit=args.limit)
    elapsed = time.perf_counter() - t0
    _emit(tio.format_decision_tree(strategy), args.out)
    print(f"alg {alg}")
    print(f"cost {tio.format_int(c)}")
    print(f"height {tree_height(strategy)}")
    print(f"nodes {tree_size(strategy)}")
    print(f"time {elapsed:.3f}s")
    return EXIT_OK


def cmd_eval(args) -> int:
    tree = tio.parse_instance(_read(args.instance))
    strategy = tio.parse_decision_tree(_read(args.tree))
    diag = validate(strategy, tree)
    if not diag.ok:
        print("invalid")
        for v in diag.violations:
            print(f"violation: {v}")
        return EXIT_INVALID
    print("valid")
    print(f"cost {tio.format_int(cost(strategy, tree, check=False))}")
    print(f"height {tree_height(strategy)}")
    return EXIT_OK


def cmd_gen(args) -> int:
    from . import gen  # imported here: no other subcommand needs it

    lo, hi = args.weights
    if args.kind == "random":
        tree = gen.random_tree(args.n, args.seed, (lo, hi))
    else:
        weights = gen.seeded_weights(args.n, args.seed, hi, lo)
        if args.kind == "complete-d-ary":
            tree = gen.complete_dary_tree(args.n, args.arity, weights)
        else:
            tree = (gen.path_tree if args.kind == "path" else gen.star_tree)(args.n, weights)
    _emit(tio.format_instance(tree), args.out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    n, fam = tio.parse_x3c(_read(args.x3c))
    inst = reduction.X3CInstance.of(n, fam)
    red = reduction.build(inst, args.variant)
    _emit(tio.format_instance(red.instance), args.out)
    print("pi " + " ".join(reduction.pi_names(inst)))
    print(f"nodes {red.instance.n}")
    print(f"max-weight-bits {max(red.instance.weight).bit_length()}")
    return EXIT_OK


def cmd_verify_lemma2(args) -> int:
    n, fam = tio.parse_x3c(_read(args.x3c))
    inst = reduction.X3CInstance.of(n, fam)
    red = reduction.build(inst, args.variant)
    via_tree = reduction.decide_cover(red)
    via_brute = reduction.x3c_brute(inst)
    print(f"decide-cover {'yes' if via_tree else 'no'}")
    print(f"x3c-brute {'yes' if via_brute else 'no'}")
    print("agreement " + ("ok" if via_tree == via_brute else "MISMATCH"))
    return EXIT_OK if via_tree == via_brute else EXIT_INVALID


_BENCH_ALGS = ("exact", "greedy", "dp", "fptas")


def _cell(value) -> str:
    """A bench table cell; ints of any length go through ``format_int``."""
    if value is None:
        return "skipped"
    return tio.format_int(value) if isinstance(value, int) else str(value)


def _json_cost(value):
    """A cost as a JSON number, or as its decimal string when it is longer
    than sys.int_info.str_digits_check_threshold digits: past that length
    ``json.dumps`` and ``json.loads`` may refuse to convert it, depending on
    the interpreter's int-string limit."""
    if value is None:
        return None
    text = tio.format_int(value)
    return value if len(text) <= sys.int_info.str_digits_check_threshold else text


def cmd_bench(args) -> int:
    suite = Path(args.suite)
    if not suite.is_dir():
        raise InvalidInstanceError(f"{args.suite} is not a directory")
    files = sorted(p for p in suite.iterdir() if p.is_file())
    if not files:
        raise InvalidInstanceError(f"no instances in {args.suite}")
    rows = []
    failed = False
    for path in files:
        row = {"instance": path.name}
        try:
            tree = tio.parse_instance(_read(path))
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
    print("  ".join(f"{c:>12}" for c in cols))
    for row in rows:
        print("  ".join(f"{_cell(row.get(c, '')):>12}" for c in cols))
    if args.json:
        import json  # imported here: only this report writes JSON

        report = [{k: _json_cost(v) if k in _BENCH_ALGS else v for k, v in row.items()} for row in rows]
        _write(args.json, json.dumps({"eps": str(args.eps), "rows": report}, indent=2) + "\n")
    return EXIT_INVALID if failed else EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="treesearch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve an instance")
    sp.add_argument("input")
    sp.add_argument("--alg", choices=["greedy", "exact", "dp", "fptas", "auto"], default="auto")
    sp.add_argument("--eps", type=_parse_eps, default=None, help="epsilon for fptas, as p/q or decimal")
    sp.add_argument("--height", type=_parse_count, default=None, help="explicit EST height budget for dp")
    sp.add_argument("--limit", type=_parse_count, default=DEFAULT_LIMIT,
                    help=f"exact-solver node cap (default: {DEFAULT_LIMIT})")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve, usage_error=sp.error)

    ep = sub.add_parser("eval", help="validate and cost a strategy file")
    ep.add_argument("instance")
    ep.add_argument("tree")
    ep.set_defaults(func=cmd_eval)

    gp = sub.add_parser("gen", help="generate an instance")
    gp.add_argument("kind", choices=["random", "path", "star", "complete-d-ary"])
    gp.add_argument("n", type=int)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--arity", type=int, default=2)
    gp.add_argument("--weights", type=_parse_weight_range, default=(1, 10), help="lo..hi")
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=cmd_gen)

    rp = sub.add_parser("reduce", help="build a tree-search instance from an X3C family")
    rp.add_argument("--variant", choices=["diam4", "deg16"], default="diam4")
    rp.add_argument("--x3c", required=True)
    rp.add_argument("--out", default=None)
    rp.set_defaults(func=cmd_reduce)

    vp = sub.add_parser("verify-lemma2", help="compare the reduction decision with brute force")
    vp.add_argument("--x3c", required=True)
    vp.add_argument("--variant", choices=["diam4", "deg16"], default="diam4")
    vp.set_defaults(func=cmd_verify_lemma2)

    bp = sub.add_parser("bench", help="run all algorithms over a directory of instances")
    bp.add_argument("suite")
    bp.add_argument("--eps", type=_parse_eps, default="1/2")
    bp.add_argument("--limit", type=_parse_count, default=DEFAULT_LIMIT,
                    help=f"exact-solver node cap (default: {DEFAULT_LIMIT})")
    bp.add_argument("--json", default=None,
                    help="also write a structured report; a cost longer than "
                         "sys.int_info.str_digits_check_threshold digits is written as a decimal string")
    bp.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UnwritableError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidInstanceError, InvalidDecisionTreeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (ResourceLimitError, InfeasibleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
