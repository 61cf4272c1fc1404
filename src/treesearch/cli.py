"""Command-line surface: instance I/O, solver dispatch, evaluation,
reduction generation, and benchmarking.

Exit codes: 0 ok, 1 usage, 2 validation/parse failure, 3 resource cap.
Payload output (trees, instances) goes to --out when given, else stdout;
human-readable stats always go to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import diameter, exact, gen, io as tio
from .bounded_dp import DEFAULT_HEIGHT_CAP, optimal_bounded
from .fptas import fptas
from .greedy import greedy
from .errors import (
    InfeasibleError,
    InvalidDecisionTreeError,
    InvalidInstanceError,
    ResourceLimitError,
    TreeSearchError,
)
from .model import cost, tree_height, tree_size, validate
from .reduction import X3CInstance, build, decide_cover, pi_names, x3c_brute

EXIT_OK, EXIT_USAGE, EXIT_INVALID, EXIT_RESOURCE = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise InvalidInstanceError(f"cannot read {path}: {e}") from None


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _parse_eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad epsilon {text!r}; use p/q or a decimal") from None
    if eps <= 0:
        raise argparse.ArgumentTypeError("epsilon must be positive")
    return eps


def _parse_height(text: str) -> int:
    try:
        height = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad height {text!r}; expected an integer") from None
    if height < 0:
        raise argparse.ArgumentTypeError("height must be non-negative")
    return height


def _parse_weight_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split("..", 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad weight range {text!r}; expected lo..hi") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"bad weight range {text!r}; need 0 <= lo <= hi")
    return lo, hi


def _run(alg: str, tree, args):
    """(cost, strategy) of one named algorithm under the solve options."""
    if alg == "exact":
        return exact.opt_cost(tree, limit=args.limit)
    if alg == "greedy":
        strategy = greedy(tree)
        return cost(strategy, tree, check=False), strategy
    if alg == "dp":
        return optimal_bounded(tree, budget=args.height, cap=args.cap)
    if alg == "fptas":
        if args.eps is None:
            raise InvalidInstanceError("--alg fptas requires --eps")
        strategy, c = fptas(tree, args.eps, cap=args.cap)
        return c, strategy
    if alg == "diam3":
        return diameter.solve_diam3(tree)
    raise InvalidInstanceError(f"unknown algorithm {alg}")  # pragma: no cover - argparse checks


def cmd_solve(args) -> int:
    tree = tio.parse_instance(_read(args.input))
    t0 = time.perf_counter()
    alg = args.alg
    if alg == "auto":
        # The oracle's states are connected pieces (< 2^n) and the DP's work
        # at budget B is ~3^B with B up to n: below its limit the oracle wins.
        if diameter.tree_diameter(tree) <= 3:
            alg = "diam3"
        elif tree.n <= args.limit:
            alg = "exact"
        else:
            alg = "dp"
    try:
        c, strategy = _run(alg, tree, args)
    except ResourceLimitError:
        if args.alg != "auto":
            raise
        alg = "greedy"  # the DP refuses a budget above --cap before any work
        c, strategy = _run(alg, tree, args)
    elapsed = time.perf_counter() - t0
    _emit(tio.format_decision_tree(strategy), args.out)
    print(f"alg {alg}")
    print(f"cost {c}")
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
    print(f"cost {cost(strategy, tree, check=False)}")
    print(f"height {tree_height(strategy)}")
    return EXIT_OK


def cmd_gen(args) -> int:
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
    inst = X3CInstance.of(n, fam)
    red = build(inst, args.variant)
    _emit(tio.format_instance(red.instance), args.out)
    print("pi " + " ".join(pi_names(inst)))
    print(f"nodes {red.instance.n}")
    print(f"max-weight-bits {max(red.instance.weight).bit_length()}")
    return EXIT_OK


def cmd_verify_lemma2(args) -> int:
    n, fam = tio.parse_x3c(_read(args.x3c))
    inst = X3CInstance.of(n, fam)
    red = build(inst, args.variant)
    via_tree = decide_cover(red)
    via_brute = x3c_brute(inst)
    print(f"decide-cover {'yes' if via_tree else 'no'}")
    print(f"x3c-brute {'yes' if via_brute else 'no'}")
    print("agreement " + ("ok" if via_tree == via_brute else "MISMATCH"))
    return EXIT_OK if via_tree == via_brute else EXIT_INVALID


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
            tree = tio.parse_instance(path.read_text())
            row["n"] = tree.n
            for alg in ("exact", "greedy", "dp", "fptas"):
                t0 = time.perf_counter()
                try:
                    row[alg], _ = _run(alg, tree, args)
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
    header = "  ".join(f"{c:>12}" for c in cols)
    print(header)
    for row in rows:
        print("  ".join(
            f"{('skipped' if row.get(c, '') is None else row.get(c, '')):>12}" for c in cols))
    if args.json:
        Path(args.json).write_text(json.dumps({"eps": str(args.eps), "rows": rows}, indent=2) + "\n")
    return EXIT_INVALID if failed else EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="treesearch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve an instance")
    sp.add_argument("input")
    sp.add_argument("--alg", choices=["greedy", "exact", "dp", "fptas", "auto"], default="auto")
    sp.add_argument("--eps", type=_parse_eps, default=None, help="epsilon for fptas, as p/q or decimal")
    sp.add_argument("--height", type=_parse_height, default=None, help="explicit EST height budget for dp")
    sp.add_argument("--limit", type=int, default=exact.DEFAULT_LIMIT, help="exact-solver node cap")
    sp.add_argument("--cap", type=int, default=DEFAULT_HEIGHT_CAP, help="dp height-budget cap")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_solve)

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
    bp.add_argument("--eps", type=_parse_eps, default=Fraction(1, 2))
    bp.add_argument("--limit", type=int, default=exact.DEFAULT_LIMIT)
    bp.add_argument("--cap", type=int, default=DEFAULT_HEIGHT_CAP)
    bp.add_argument("--json", default=None, help="also write a structured report")
    bp.set_defaults(func=cmd_bench, height=None)  # _run's dp then picks its own budget
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInstanceError, InvalidDecisionTreeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (ResourceLimitError, InfeasibleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
