import ast
import contextlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import treesearch
from treesearch import (
    InputTree, NodePiece, X3CInstance, bounded_dp, exact, format_instance, model, parse_decision_tree,
    parse_instance,
)
from treesearch.cli import main
from treesearch.gen import path_tree, random_tree, seeded_weights, star_tree
from treesearch.io import format_int, parse_int

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


PATH3 = "3 0\n0 -1 1\n1 0 1\n2 1 1\n"
PATH5 = "5 0\n0 -1 3\n1 0 1\n2 1 4\n3 2 1\n4 3 5\n"  # diameter 4
ZERO_PATH21 = format_instance(path_tree(21, [0] * 21))  # every strategy costs 0


@pytest.fixture
def path3_file(tmp_path):
    p = tmp_path / "path3.txt"
    p.write_text(PATH3)
    return str(p)


class TestSolve:
    def test_exact_prints_cost(self, capsys, tmp_path, path3_file):
        out_file = tmp_path / "strategy.json"
        code, out, _ = run(capsys, "solve", path3_file, "--alg", "exact", "--out", str(out_file))
        assert code == 0
        assert "cost 5" in out
        strategy = parse_decision_tree(out_file.read_text())
        assert strategy.query == 1

    def test_fptas_star(self, capsys, tmp_path):
        star = tmp_path / "star.txt"
        star.write_text("4 0\n0 -1 0\n1 0 3\n2 0 2\n3 0 1\n")
        code, out, _ = run(capsys, "solve", str(star), "--alg", "fptas", "--eps", "1/2",
                           "--out", str(tmp_path / "s.json"))
        assert code == 0
        assert "cost 10" in out

    def test_fptas_requires_eps(self, capsys, path3_file):
        # A usage error, caught before the instance is read.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "/nonexistent/instance.txt", "--alg", "fptas"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage: treesearch solve" in err and "--alg fptas requires --eps" in err

    def test_all_algorithms_agree_on_fixture(self, capsys, tmp_path, path3_file):
        for alg in ("exact", "greedy", "dp", "auto"):
            code, out, _ = run(capsys, "solve", path3_file, "--alg", alg,
                               "--out", str(tmp_path / f"{alg}.json"))
            assert code == 0 and "cost 5" in out

    @pytest.mark.parametrize("text, extra, alg", [
        (PATH5, [], "exact"),
        (PATH5, ["--limit", "4"], "greedy"),
        ("4 0\n0 -1 0\n1 0 3\n2 0 2\n3 0 1\n", [], "diam3"),
        (format_instance(random_tree(40, 1, (1, 5))), [], "greedy"),
        (format_instance(random_tree(21, 1)), [], "greedy"),
        (ZERO_PATH21, [], "greedy"),
    ], ids=["path5", "path5-limit4", "star", "random40", "random21", "path21-zero"])
    def test_auto_routing(self, capsys, tmp_path, text, extra, alg):
        inst, out = tmp_path / "inst.txt", tmp_path / "s.json"
        inst.write_text(text)
        code, stdout, _ = run(capsys, "solve", str(inst), "--alg", "auto", "--out", str(out), *extra)
        assert code == 0
        assert f"alg {alg}" in stdout.splitlines()
        printed = next(line for line in stdout.splitlines() if line.startswith("cost "))
        code, evaluated, _ = run(capsys, "eval", str(inst), str(out))
        assert code == 0
        assert printed in evaluated.splitlines()
        if text == PATH5:
            assert printed == "cost 32"
        if text == ZERO_PATH21:
            assert printed == "cost 0"
        # The library's solve routes as the CLI does, to the same strategy.
        options = {"limit": int(extra[1])} if extra else {}
        c, strategy, ran = treesearch.solve(parse_instance(text), **options)
        assert (ran, f"cost {format_int(c)}") == (alg, printed)
        assert out.read_text() == treesearch.format_decision_tree(strategy)

    def test_malformed_parent_id(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 0\n0 -1 1\n1 7 1\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("root", [7, -3])
    def test_root_id_out_of_range(self, capsys, tmp_path, root):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"2 {root}\n0 1 1\n1 0 1\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "line 1" in err and "Traceback" not in err

    @pytest.mark.parametrize("weight, printed", [
        ("9" * 4300, "4" + "9" * 4299 + "5"),  # 5 * (10^4300 - 1)
        ("1" + "0" * 4400, "5" + "0" * 4400),
    ], ids=["4300-digit-weights", "4401-digit-weights"])
    def test_weights_past_the_int_string_limit(self, capsys, tmp_path, weight, printed):
        # Python converts at most 4300 digits between int and str by default;
        # the optimum on a unit-shaped path3 costs 5 times the weight.
        inst, out = tmp_path / "inst.txt", tmp_path / "s.json"
        inst.write_text(f"3 0\n0 -1 {weight}\n1 0 {weight}\n2 1 {weight}\n")
        code, stdout, err = run(capsys, "solve", str(inst), "--alg", "exact", "--out", str(out))
        assert code == 0, err
        assert f"cost {printed}" in stdout.splitlines()
        code, evaluated, err = run(capsys, "eval", str(inst), str(out))
        assert code == 0, err
        assert evaluated.splitlines()[:2] == ["valid", f"cost {printed}"]

    def test_resource_cap(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        for n in (21, 40):
            big.write_text(format_instance(random_tree(n, 1, (1, 5))))
            code, _, err = run(capsys, "solve", str(big), "--alg", "dp")
            assert code == 3
            assert "cap" in err

    def test_height_past_n_runs_as_n(self, capsys, tmp_path):
        # No strategy is taller than n - 1, so a budget past n, even one
        # past the DP's cap, solves as the budget n does.
        inst = tmp_path / "inst.txt"
        inst.write_text(PATH5)
        results = []
        for height in ("99", "5"):
            out = tmp_path / f"h{height}.json"
            code, stdout, err = run(capsys, "solve", str(inst), "--alg", "dp", "--height", height, "--out", str(out))
            assert code == 0, err
            results.append(([line for line in stdout.splitlines() if not line.startswith("time ")], out.read_text()))
        assert results[0] == results[1]

    def test_usage_error_exit_code(self, capsys, path3_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", path3_file, "--alg", "nonsense"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "x.txt", "--eps", "abc"],
        ["solve", "x.txt", "--eps", "0"],
        ["solve", "x.txt", "--eps", "1e-999999999"],
        ["bench", "suite", "--eps=-1/2"],
        ["gen", "path", "3", "--weights", "abc"],
        ["gen", "path", "3", "--weights", "5..3"],
        ["gen", "random", "3", "--weights=-1..3"],
        ["solve", "x.txt", "--height", "-1"],
        ["solve", "x.txt", "--limit", "-1"],
        ["bench", "suite", "--limit", "-1"],
    ], ids=["eps-abc", "eps-0", "eps-huge-exponent", "eps-negative", "weights-abc", "weights-reversed",
            "weights-negative", "height-negative", "limit-negative", "bench-limit-negative"])
    def test_bad_option_value_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["solve", "x.txt", "--cap", "5"], ["bench", "suite", "--cap", "5"]],
                             ids=["solve", "bench"])
    def test_height_cap_is_not_an_option(self, capsys, argv):
        # The DP's height cap is a constant of bounded_dp, not a setting.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


def _reference_parser():
    """The argparse parser that read the CLI's arguments before its table
    reader, kept as the reference the reader is compared against."""
    import argparse

    from treesearch import cli

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(1)

    p = Parser(prog="treesearch", description=cli.__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve an instance")
    sp.add_argument("input")
    sp.add_argument("--alg", choices=["greedy", "exact", "dp", "fptas", "auto"], default="auto")
    sp.add_argument("--eps", type=cli._parse_eps, default=None, help="epsilon for fptas, as p/q or decimal")
    sp.add_argument("--height", type=cli._parse_count, default=None, help="explicit EST height budget for dp")
    sp.add_argument("--limit", type=cli._parse_count, default=cli.DEFAULT_LIMIT,
                    help=f"exact-solver node cap (default: {cli.DEFAULT_LIMIT})")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cli.cmd_solve, usage_error=sp.error)

    ep = sub.add_parser("eval", help="validate and cost a strategy file")
    ep.add_argument("instance")
    ep.add_argument("tree")
    ep.set_defaults(func=cli.cmd_eval)

    gp = sub.add_parser("gen", help="generate an instance")
    gp.add_argument("kind", choices=["random", "path", "star", "complete-d-ary"])
    gp.add_argument("n", type=int)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--arity", type=int, default=2)
    gp.add_argument("--weights", type=cli._parse_weight_range, default=(1, 10), help="lo..hi")
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=cli.cmd_gen)

    rp = sub.add_parser("reduce", help="build a tree-search instance from an X3C family")
    rp.add_argument("--variant", choices=["diam4", "deg16"], default="diam4")
    rp.add_argument("--x3c", required=True)
    rp.add_argument("--out", default=None)
    rp.set_defaults(func=cli.cmd_reduce)

    vp = sub.add_parser("verify-lemma2", help="compare the reduction decision with brute force")
    vp.add_argument("--x3c", required=True)
    vp.add_argument("--variant", choices=["diam4", "deg16"], default="diam4")
    vp.set_defaults(func=cli.cmd_verify_lemma2)

    bp = sub.add_parser("bench", help="run all algorithms over a directory of instances")
    bp.add_argument("suite")
    bp.add_argument("--eps", type=cli._parse_eps, default="1/2")
    bp.add_argument("--limit", type=cli._parse_count, default=cli.DEFAULT_LIMIT,
                    help=f"exact-solver node cap (default: {cli.DEFAULT_LIMIT})")
    bp.add_argument("--json", default=None,
                    help="also write a structured report; a cost longer than "
                         "sys.int_info.str_digits_check_threshold digits is written as a decimal string")
    bp.set_defaults(func=cli.cmd_bench)
    return p


def _outcome(read, argv):
    """``(handler, values)`` for an argv that ``read`` accepts, "help" for one
    that prints help and exits 0, "error" for a usage error (exit 1, with the
    usage line and the error on stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return read(list(argv))
    except SystemExit as e:
        if e.code == 0:
            assert out.getvalue().startswith("usage: treesearch") and not err.getvalue(), argv
            return "help"
        assert e.code == 1 and not out.getvalue(), argv
        assert err.getvalue().startswith("usage: treesearch") and "\nerror: " in err.getvalue(), argv
        return "error"


def _read_with_reference(parser):
    def read(argv):
        args = vars(parser.parse_args(argv))
        return args.pop("func"), {k: v for k, v in args.items() if k != "usage_error"}
    return read


def _read_with_table(argv):
    from treesearch import cli

    handler, args = cli._parse(argv)
    return handler, {k: v for k, v in vars(args).items() if k != "usage_error"}


# Tokens each subcommand's random argvs are drawn from: its options whole, by
# prefix, ambiguous and with "=", good and bad values, negative numbers,
# "--", help, unknown options and stray positionals.
_COMMON_TOKENS = ["--", "-h", "--help", "--h", "--help=x", "-", "-3", "-1.5", "-.5", "-1/2", "-x", "--cap", "5",
                  "a b", "-x y", "--out", "--ou=o.txt", "o.txt"]
_TOKENS = {
    "solve": ["x.txt", "--alg", "exact", "fptas", "nonsense", "--al=dp", "--a", "--eps", "1/2", "0.25", "abc",
              "--eps=0", "--eps=-1/2", "--height", "3", "-1", "--he", "--hei=2", "--limit", "--lim=30"],
    "eval": ["i.txt", "t.json", "--instance"],
    "gen": ["path", "random", "complete-d-ary", "cycle", "7", "abc", "--seed", "-2", "--s=7", "--arity", "3",
            "--weights", "1..10", "5..3", "--w=0..0", "-1..3", "--weights=-1..3"],
    "reduce": ["--x3c", "f.x3c", "--x=g.x3c", "--variant", "deg16", "diam5", "--v=diam4", "--var"],
    "verify-lemma2": ["--x3c", "f.x3c", "--x=g.x3c", "--variant", "deg16", "diam5", "--v=diam4", "--var"],
    "bench": ["suite", "--eps", "1/2", "0", "abc", "--eps=-1/2", "--e=1/3", "--limit", "-1", "--lim=7",
              "--json", "r.json", "--j="],
}
_READER_CASES = [
    [], ["nosuch"], ["nosuch", "x.txt"], ["sol", "x.txt"], ["-h"], ["--help"], ["--he"], ["--help=x"],
    ["--", "solve", "x.txt"], ["-x", "solve", "x.txt"], ["-x", "-h"], ["-3", "solve"],
    ["solve", "x.txt"], ["solve", "x.txt", "--alg", "exact"], ["solve", "x.txt", "--alg=exact"],
    ["solve", "--al", "exact", "x.txt"], ["solve", "x.txt", "--alg", "dp", "--alg", "greedy"],
    ["solve", "x.txt", "--eps", "1/2", "--eps=0.25"], ["solve", "x.txt", "--eps", "-1/2"],
    ["solve", "x.txt", "--eps=-1/2"], ["solve", "x.txt", "--height", "-1"], ["solve", "-3"],
    ["solve", "--", "-3"], ["solve", "--", "--alg"], ["solve", "x.txt", "--", "--alg", "exact"],
    ["solve", "x.txt", "--out", "--", "o.json"], ["solve", "x.txt", "--out", "--"], ["solve", "x.txt", "--out"],
    ["solve", "x.txt", "--out", "-h"], ["solve", "x.txt", "--he", "3"], ["solve", "x.txt", "--hel"],
    ["solve", "-h", "--eps", "abc"], ["solve", "--eps", "abc", "-h"], ["solve", "x.txt", "--cap", "5"],
    ["solve", "--cap", "5", "x.txt"], ["solve", "x.txt", "y.txt"], ["solve"], ["solve", "x.txt", "--out="],
    ["eval", "i.txt", "t.json"], ["eval", "i.txt"], ["eval", "-", "-"], ["eval", "-3", "--", "--"],
    ["gen", "path", "5"], ["gen", "--seed", "3", "path", "--arity", "4", "5", "--out", "p.txt"],
    ["gen", "path", "-3", "--seed", "-2"], ["gen", "star", "5", "--weights", "2..9"], ["gen", "cycle", "5"],
    ["gen", "path", "five"], ["gen", "path", "5", "--weights", "-1..3"], ["gen", "path", "5", "--w=0..0"],
    ["reduce", "--x3c", "f.x3c"], ["reduce", "--x3c=f.x3c", "--variant=deg16", "--out", "r.txt"],
    ["reduce"], ["reduce", "--variant", "deg16"], ["reduce", "--x3c", "f.x3c", "--variant", "diam5"],
    ["verify-lemma2", "--x3c", "f.x3c"], ["verify-lemma2", "--x", "f.x3c", "--v", "deg16"],
    ["verify-lemma2", "--x3c", "f.x3c", "--x3c", "g.x3c"], ["verify-lemma2"], ["verify-lemma2", "f.x3c"],
    ["bench", "suite"], ["bench", "suite", "--eps", "1/3", "--limit", "7", "--json", "r.json"],
    ["bench", "--json=r.json", "suite", "--e=0.5"], ["bench", "suite", "--lim", "-1"], ["bench"],
    ["solve", "x.txt", "--eps", "abc"], ["solve", "x.txt", "--eps", "0"], ["bench", "suite", "--eps=-1/2"],
    ["gen", "path", "3", "--weights", "abc"], ["gen", "path", "3", "--weights", "5..3"],
    ["gen", "random", "3", "--weights=-1..3"], ["solve", "x.txt", "--limit", "-1"],
    ["bench", "suite", "--limit", "-1"],
]


def test_reader_matches_the_reference_parser():
    """Where the argparse parser the CLI used before accepts an argv, the table
    reader gives the same handler and values; where it prints help, so does the
    reader; where it refuses one, the reader exits 1 with its usage line and an
    error. Listed cases first, then seeded random argvs per subcommand.

    One difference is kept on purpose: when a "--" after the first one is a
    positional's whole value (``eval -3 -- --``), argparse drops it too and
    gives that positional [], which no handler can read; the reader keeps "--"."""
    import random

    reference = _read_with_reference(_reference_parser())
    rng = random.Random(23)
    cases = list(_READER_CASES)
    for command, tokens in _TOKENS.items():
        pool = tokens + _COMMON_TOKENS
        cases += [[command, *rng.choices(pool, k=rng.randint(0, 6))] for _ in range(400)]
    outcomes = {"help": 0, "error": 0, "values": 0}
    for argv in cases:
        expected = _outcome(reference, argv)
        if isinstance(expected, tuple) and [] in expected[1].values():
            expected = expected[0], {k: "--" if v == [] else v for k, v in expected[1].items()}
        assert _outcome(_read_with_table, argv) == expected, argv
        outcomes[expected if isinstance(expected, str) else "values"] += 1
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["solve", "--help"], ["gen", "path", "-h"]],
                         ids=["help", "h", "solve-help", "gen-h"])
def test_help_names_every_option(argv):
    """Help exits 0 and prints the usage line of its subcommand, or of all of
    them, naming each of its options and positionals in the table."""
    from treesearch.cli import _COMMANDS

    done = _cli(*argv)
    assert done.returncode == 0 and not done.stderr, done.stderr
    lines = done.stdout.splitlines()
    commands = [argv[0]] if argv[0] in _COMMANDS else list(_COMMANDS)
    assert len(lines) == len(commands) + (len(commands) > 1)
    for command in commands:
        line, = (line for line in lines if line.startswith(f"usage: treesearch {command} [-h]"))
        _, positionals, options = _COMMANDS[command]
        words = {word.strip("[]") for word in line.split()}
        assert {*options, *positionals} <= words, line


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["nosuch", "x.txt"]],
                         ids=["no-arguments", "unknown-subcommand", "unknown-subcommand-with-argument"])
def test_missing_or_unknown_subcommand_is_usage_error(argv):
    done = _cli(*argv)
    assert done.returncode == 1 and not done.stdout
    assert done.stderr.startswith("usage: treesearch [-h]") and "\nerror: " in done.stderr
    assert "Traceback" not in done.stderr


class TestEval:
    def test_valid_fixture(self, capsys, tmp_path, path3_file):
        tree_file = tmp_path / "t.json"
        tree_file.write_text('{"query": 1, "no": {"leaf": 0}, "yes": {"query": 2, "no": {"leaf": 1}, "yes": {"leaf": 2}}}')
        code, out, _ = run(capsys, "eval", path3_file, str(tree_file))
        assert code == 0
        assert "cost 5" in out

    def test_swapped_leaves(self, capsys, tmp_path, path3_file):
        tree_file = tmp_path / "t.json"
        tree_file.write_text('{"query": 1, "no": {"leaf": 1}, "yes": {"query": 2, "no": {"leaf": 0}, "yes": {"leaf": 2}}}')
        code, out, _ = run(capsys, "eval", path3_file, str(tree_file))
        assert code == 2
        assert "violation" in out

    @pytest.mark.parametrize("text", [
        '{"query": 1, "no": {"leaf": 0}, "yes": {"leaf": true}}',
        '{"query": true, "no": {"leaf": 0}, "yes": {"leaf": 1}}',
    ], ids=["leaf-true", "query-true"])
    def test_boolean_node_id_rejected(self, capsys, tmp_path, text):
        path2 = tmp_path / "path2.txt"
        path2.write_text("2 0\n0 -1 1\n1 0 1\n")
        tree_file = tmp_path / "t.json"
        tree_file.write_text(text)
        code, _, err = run(capsys, "eval", str(path2), str(tree_file))
        assert code == 2
        assert "integer" in err

    def test_missing_file(self, capsys, path3_file):
        code, _, err = run(capsys, "eval", path3_file, "/nonexistent/tree.json")
        assert code == 2


def _spider(legs):
    """A center with a path of each length in ``legs`` hanging from it."""
    parent = [-1]
    for length in legs:
        parent += [0] + list(range(len(parent), len(parent) + length - 1))
    return InputTree(parent, [1] * len(parent))


def _cli(*argv, address_space=None, timeout=120, stdout=subprocess.PIPE):
    """The CLI in a fresh interpreter, at its default recursion limit; with
    ``address_space`` (bytes) the child alone runs under that RLIMIT_AS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    limit = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    return subprocess.run([sys.executable, "-m", "treesearch.cli", *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=timeout, preexec_fn=limit)


class TestTallStrategies:
    @pytest.mark.parametrize("make, alg, height", [
        (lambda: star_tree(10_000, seeded_weights(10_000, 3)), "diam3", 9999),
        (lambda: InputTree([-1, 0] + [0] * 600 + [1] * 600, seeded_weights(1202, 4)), "diam3", None),
        (lambda: _spider([2, 2] + [1] * 1495), "greedy", 1497),
        (lambda: path_tree(10_000, seeded_weights(10_000, 5)), "greedy", None),
        (lambda: random_tree(10_000, 6), "greedy", None),
        (lambda: InputTree([-1, 0] + [0] * 49_999 + [1] * 49_999, seeded_weights(100_000, 7)),
         "diam3", None),
    ], ids=["star-10000", "double-star-1202", "spider-1500", "path-10000", "random-10000",
            "double-star-100000"])
    def test_solve_eval_round_trip(self, tmp_path, make, alg, height):
        inst, out = tmp_path / "inst.txt", tmp_path / "s.json"
        inst.write_text(format_instance(make()))
        solved = _cli("solve", str(inst), "--out", str(out))
        assert solved.returncode == 0, solved.stderr
        lines = solved.stdout.splitlines()
        assert f"alg {alg}" in lines
        if height is not None:
            assert f"height {height}" in lines
        printed = next(line for line in lines if line.startswith("cost "))
        evaluated = _cli("eval", str(inst), str(out))
        assert evaluated.returncode == 0, evaluated.stderr
        assert evaluated.stdout.splitlines()[:2] == ["valid", printed]


class TestGen:
    def test_path_canonical_fixture(self, capsys, tmp_path):
        out = tmp_path / "p.txt"
        code, _, _ = run(capsys, "gen", "path", "3", "--weights", "1..1", "--out", str(out))
        assert code == 0
        assert out.read_text() == PATH3

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "gen", "random", "12", "--seed", "5", "--out", str(a))
        run(capsys, "gen", "random", "12", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_round_trips(self, capsys, tmp_path):
        out = tmp_path / "r.txt"
        run(capsys, "gen", "random", "9", "--seed", "3", "--out", str(out))
        tree = parse_instance(out.read_text())
        assert format_instance(tree) == out.read_text()

    @pytest.mark.parametrize("kind", ["path", "star", "complete-d-ary", "random"])
    def test_weights_within_range(self, capsys, kind):
        code, out, _ = run(capsys, "gen", kind, "8", "--weights", "7..9", "--seed", "1")
        assert code == 0
        assert set(parse_instance(out).weight) <= {7, 8, 9}

    def test_n_zero_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "path", "0")
        assert code == 2

    def test_payload_past_a_pipe_buffer_arrives_whole(self):
        # The child ends with os._exit, which flushes nothing itself: about 250 KB must still
        # reach the pipe, byte for byte.
        done = _cli("gen", "random", "20000", "--seed", "1")
        assert done.returncode == 0, done.stderr
        assert done.stdout == format_instance(random_tree(20000, 1, (1, 10)))

    def test_huge_n_refused_before_allocating(self):
        # A billion nodes would take hundreds of GB; the child stays inside 1 GiB.
        done = _cli("gen", "path", "1000000000", address_space=2**30, timeout=20)
        assert done.returncode == 3, done.stderr
        assert "Traceback" not in done.stderr and "above the generator limit" in done.stderr


class TestReduce:
    def test_example1_pi_line(self, capsys, tmp_path):
        x3c = tmp_path / "ex1.x3c"
        x3c.write_text("6 4\n0 1 2\n1 2 3\n3 4 5\n1 4 5\n")
        out = tmp_path / "inst.txt"
        code, stdout, _ = run(capsys, "reduce", "--x3c", str(x3c), "--out", str(out))
        assert code == 0
        assert "pi a b c X1 d X2 e f X3 X4" in stdout
        inst = parse_instance(out.read_text())
        assert inst.n == 37

    def test_verify_lemma2(self, capsys, tmp_path):
        x3c = tmp_path / "m1.x3c"
        x3c.write_text("3 1\n0 1 2\n")
        code, out, _ = run(capsys, "verify-lemma2", "--x3c", str(x3c))
        assert code == 0
        assert "decide-cover yes" in out and "x3c-brute yes" in out

    def test_verify_lemma2_no_instance(self, capsys, tmp_path):
        x3c = tmp_path / "no.x3c"
        x3c.write_text("6 3\n0 1 2\n2 3 4\n1 3 5\n")
        code, out, _ = run(capsys, "verify-lemma2", "--x3c", str(x3c))
        assert code == 0
        assert "decide-cover no" in out and "agreement ok" in out

    @pytest.mark.parametrize("text, variant, cover", [
        ("12 10\n1 2 5\n1 3 5\n1 3 7\n2 4 7\n2 8 9\n4 6 10\n6 8 10\n0 7 11\n4 9 11\n9 10 11\n",
         "diam4", "yes"),
        ("12 10\n1 4 5\n1 2 7\n5 6 7\n0 2 8\n1 6 8\n0 5 10\n3 9 10\n2 3 11\n0 6 11\n3 9 11\n",
         "deg16", "no"),
    ], ids=["planted-diam4", "unplanted-deg16"])
    def test_verify_lemma2_ten_sets(self, capsys, tmp_path, text, variant, cover):
        x3c = tmp_path / "q4m10.x3c"
        x3c.write_text(text)
        code, out, _ = run(capsys, "verify-lemma2", "--x3c", str(x3c), "--variant", variant)
        assert code == 0
        assert f"decide-cover {cover}" in out and "agreement ok" in out

    def test_verify_lemma2_refuses_sweep_above_limit(self, capsys, tmp_path):
        # 21 cyclic triples {i, i+1, i+2}: every element is in 3 sets.
        x3c = tmp_path / "m21.x3c"
        x3c.write_text("21 21\n" + "".join(f"{i} {(i + 1) % 21} {(i + 2) % 21}\n" for i in range(21)))
        t0 = time.perf_counter()
        code, _, err = run(capsys, "verify-lemma2", "--x3c", str(x3c))
        assert code == 3
        assert "realization sweep above the limit" in err
        assert time.perf_counter() - t0 < 1.0


    def test_weights_past_the_int_string_limit_round_trip(self, capsys, tmp_path):
        # One set at the end of a 1140-element universe: the largest weight
        # has 14,299 bits, about 4300 decimal digits.
        x3c, inst, out = tmp_path / "x.x3c", tmp_path / "inst.txt", tmp_path / "s.json"
        x3c.write_text("1140 1\n1137 1138 1139\n")
        code, stdout, err = run(capsys, "reduce", "--x3c", str(x3c), "--out", str(inst))
        assert code == 0, err
        assert "max-weight-bits 14299" in stdout.splitlines()
        code, stdout, err = run(capsys, "solve", str(inst), "--out", str(out))
        assert code == 0, err
        printed = next(line for line in stdout.splitlines() if line.startswith("cost "))
        code, evaluated, err = run(capsys, "eval", str(inst), str(out))
        assert code == 0, err
        assert evaluated.splitlines()[:2] == ["valid", printed]
        assert format_instance(parse_instance(inst.read_text())) == inst.read_text()
    def test_verify_lemma2_refuses_long_sweep_up_front(self, tmp_path):
        # 18 disjoint sets over 1500 elements: 2^18 folds of 18 + 1500 steps
        # each, about 4.0e8 steps against SWEEP_STEPS_LIMIT = 2^26, would run
        # for about a minute.
        x3c = tmp_path / "m18.x3c"
        x3c.write_text("1500 18\n" + "".join(f"{3 * i} {3 * i + 1} {3 * i + 2}\n" for i in range(18)))
        t0 = time.perf_counter()
        done = _cli("verify-lemma2", "--x3c", str(x3c), timeout=20)
        assert done.returncode == 3, done.stderr
        assert "18 sets over 1500 elements" in done.stderr and "Traceback" not in done.stderr
        assert time.perf_counter() - t0 < 10

    @pytest.mark.parametrize("command", ["reduce", "verify-lemma2"])
    @pytest.mark.parametrize("text", ["999999999 0\n", "3000000 1\n0 1 2\n"], ids=["no-sets", "one-set"])
    def test_huge_universe_refused_up_front(self, tmp_path, command, text):
        # The element weights would take about n^2/2 * log2(6|T|^3) bits, so
        # build refuses them before it allocates anything of size n; they
        # once ended in a MemoryError traceback under this limit.
        x3c = tmp_path / "huge.x3c"
        x3c.write_text(text)
        t0 = time.perf_counter()
        done = _cli(command, "--x3c", str(x3c), address_space=2**30)
        assert done.returncode == 3, done.stderr
        assert "weights would take about" in done.stderr and "Traceback" not in done.stderr
        assert time.perf_counter() - t0 < 10


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["solve", "{path3}", "--out", "{missing}/s.json"],
        ["solve", "{path3}", "--out", "{tmp}"],
        ["gen", "path", "3", "--out", "{missing}/p.txt"],
        ["reduce", "--x3c", "{x3c}", "--out", "{missing}/inst.txt"],
        ["bench", "{suite}", "--json", "{missing}/report.json"],
    ], ids=["solve-missing-dir", "solve-into-directory", "gen", "reduce", "bench-json"])
    def test_usage_error_without_traceback(self, tmp_path, path3_file, argv):
        (tmp_path / "suite").mkdir()
        (tmp_path / "suite" / "p3.txt").write_text(PATH3)
        (tmp_path / "m1.x3c").write_text("3 1\n0 1 2\n")
        names = {"path3": path3_file, "missing": tmp_path / "missing", "tmp": tmp_path,
                 "x3c": tmp_path / "m1.x3c", "suite": tmp_path / "suite"}
        done = _cli(*(a.format(**names) for a in argv))
        assert done.returncode == 1
        assert "error: cannot write" in done.stderr
        assert "Traceback" not in done.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["gen", "solve", "eval", "help"])
    def test_stdout_that_cannot_be_written(self, tmp_path, path3_file, command):
        strategy = tmp_path / "s.json"
        assert _cli("solve", path3_file, "--out", str(strategy)).returncode == 0
        argv = {"gen": ["gen", "path", "5"], "solve": ["solve", path3_file],
                "eval": ["eval", path3_file, str(strategy)], "help": ["-h"]}[command]
        with open("/dev/full", "w") as full:
            done = _cli(*argv, stdout=full)
        assert done.returncode == 1
        assert "error: cannot write stdout" in done.stderr
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["solve", "eval", "bench", "reduce", "verify-lemma2"])
def test_non_utf8_input_exits_2_without_traceback(tmp_path, path3_file, command):
    bad = tmp_path / "suite" / "bad.txt"
    bad.parent.mkdir()
    bad.write_bytes(b"\xff\xfe3 0\n")
    (tmp_path / "suite" / "p3.txt").write_text(PATH3)
    argv = {"solve": ["solve", str(bad)],
            "eval": ["eval", path3_file, str(bad)],
            "bench": ["bench", str(bad.parent)],
            "reduce": ["reduce", "--x3c", str(bad)],
            "verify-lemma2": ["verify-lemma2", "--x3c", str(bad)]}[command]
    done = _cli(*argv)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    if command == "bench":  # the bad file is its row's error; the other rows still print
        rows = {line.split()[0]: line for line in done.stdout.splitlines()[1:]}
        assert "cannot read" in rows["bad.txt"] and "skipped" not in rows["p3.txt"]
    else:
        assert f"error: cannot read {bad}" in done.stderr.splitlines()[-1]


class TestBench:
    def test_table_and_report(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "p3.txt").write_text(PATH3)
        (suite / "star.txt").write_text("4 0\n0 -1 0\n1 0 3\n2 0 2\n3 0 1\n")
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "bench", str(suite), "--json", str(report))
        assert code == 0
        rows = json.loads(report.read_text())["rows"]
        assert {r["instance"] for r in rows} == {"p3.txt", "star.txt"}
        assert all(r["greedy_ratio"] <= 2.0 for r in rows)

    def test_costs_past_the_int_string_limit(self, capsys, tmp_path):
        # Weights of 4300 nines: each cost is longer than Python's default
        # int-string limit, so neither str() nor json.dumps converts it.
        w = format_int(10 ** 4300 - 1)
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "p3.txt").write_text(f"3 0\n0 -1 {w}\n1 0 {w}\n2 1 {w}\n")
        code, out, _ = run(capsys, "solve", str(suite / "p3.txt"), "--alg", "exact")
        assert code == 0
        solved = parse_int(next(ln for ln in out.splitlines() if ln.startswith("cost ")).split()[1])
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "bench", str(suite), "--json", str(report))
        assert code == 0 and "Traceback" not in err
        assert format_int(solved) in out
        (row,) = json.loads(report.read_text())["rows"]
        assert all(parse_int(row[alg]) == solved for alg in ("exact", "dp"))
        assert parse_int(row["greedy"]) >= solved and row["greedy_ratio"] <= 2.0

    def test_empty_suite_errors(self, capsys, tmp_path):
        suite = tmp_path / "empty"
        suite.mkdir()
        code, _, err = run(capsys, "bench", str(suite))
        assert code == 2

    def test_oversized_row_skipped(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "p3.txt").write_text(PATH3)
        (suite / "big.txt").write_text(format_instance(random_tree(50, 2, (1, 5))))
        code, out, _ = run(capsys, "bench", str(suite))
        assert code == 0
        assert "skipped" in out

    def test_broken_row_reported_nonzero(self, capsys, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "p3.txt").write_text(PATH3)
        (suite / "broken.txt").write_text("not an instance\n")
        code, out, _ = run(capsys, "bench", str(suite))
        assert code == 2
        assert "broken.txt" in out


def test_cli_import_graph():
    """Importing the CLI loads neither ``dataclasses`` nor ``inspect`` nor
    ``fractions`` with its ``decimal`` nor ``argparse`` with its ``gettext``
    and ``locale`` (each costs milliseconds of every child's start-up) nor
    ``json`` and ``gen`` (only a few paths use them), but does load every
    module that the benchmark's traced replay wraps right after that import."""
    replay = ROOT / "perfbench" / "replay.py"
    spec = importlib.util.spec_from_file_location("_replay", replay)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Only the modules this import adds: the interpreter's own start-up may
    # load others, depending on the installation.
    code = "import sys; old = set(sys.modules); import treesearch.cli; print(*set(sys.modules) - old)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert not {"argparse", "dataclasses", "decimal", "fractions", "gettext", "inspect", "json", "locale",
                "treesearch.gen"} & loaded
    assert {f"treesearch.{name}" for name in module.SPANS} <= loaded


# Prints, after the CLI's output, the solver modules whose code has run. A
# module registered but not yet run is not a plain ModuleType; reading any
# attribute of it would run it, so only its type is looked at.
_RAN = """
import sys, types
from treesearch.cli import main
code = main(sys.argv[1:])
print("ran", *(m for m in ("bench", "bounded_dp", "bounds", "diameter", "exact", "fptas", "greedy", "jsontokens",
                          "reduction") if type(sys.modules.get(f"treesearch.{m}")) is types.ModuleType))
sys.exit(code)
"""


@pytest.mark.parametrize("command, ran, not_ran", [
    ("eval", set(), {"bench", "bounded_dp", "diameter", "exact", "fptas", "greedy", "jsontokens", "reduction"}),
    ("solve-exact", {"exact"}, {"bench", "bounded_dp", "fptas", "greedy", "jsontokens", "reduction"}),
    ("verify-lemma2", {"reduction"}, {"bench", "bounded_dp", "fptas", "greedy"}),
    ("solve-auto-greedy", {"diameter", "greedy"},
     {"bench", "bounded_dp", "bounds", "exact", "fptas", "reduction"}),
    ("reduce", {"reduction"}, {"bounded_dp", "bounds", "exact", "fptas", "greedy"}),
    ("verify-lemma2-m3", {"reduction"}, {"bounds", "exact", "fptas", "greedy"}),
], ids=["eval", "solve-exact", "verify-lemma2", "solve-auto-greedy", "reduce", "verify-lemma2-m3"])
def test_subcommands_run_only_the_modules_they_use(capsys, tmp_path, command, ran, not_ran):
    inst, strategy, x3c = tmp_path / "p5.txt", tmp_path / "s.json", tmp_path / "m1.x3c"
    path25 = tmp_path / "p25.txt"  # past the default --limit, so auto routes it to greedy
    inst.write_text(PATH5)
    x3c.write_text("3 1\n0 1 2\n")
    x3c_m3 = tmp_path / "m3.x3c"  # its diam4 tree has 28 nodes, past the oracle's cross-check
    x3c_m3.write_text("9 3\n0 1 2\n3 4 5\n6 7 8\n")
    path25.write_text(format_instance(path_tree(25, seeded_weights(25, 1, 9))))
    assert run(capsys, "solve", str(inst), "--alg", "greedy", "--out", str(strategy))[0] == 0
    argv = {"eval": ["eval", str(inst), str(strategy)],
            "solve-exact": ["solve", str(inst), "--alg", "exact", "--out", str(tmp_path / "e.json")],
            "verify-lemma2": ["verify-lemma2", "--x3c", str(x3c)],
            "solve-auto-greedy": ["solve", str(path25), "--alg", "auto",
                                  "--out", str(tmp_path / "g.json")],
            "reduce": ["reduce", "--x3c", str(x3c), "--out", str(tmp_path / "r.txt")],
            "verify-lemma2-m3": ["verify-lemma2", "--x3c", str(x3c_m3)]}[command]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _RAN, *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    executed = set(done.stdout.splitlines()[-1].split()[1:])
    assert ran <= executed and not executed & not_ran, executed


def _call_sites(wanted):
    """The scopes in ``src/treesearch`` (module, then classes and functions)
    that name ``wanted``, as a call, an attribute or an import."""
    sites = []
    for path in sorted((SRC / "treesearch").glob("*.py")):
        scopes = []

        def visit(node):
            named = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            if named:
                scopes.append(node.name)
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name == wanted or isinstance(node, ast.alias) and node.name == wanted:
                sites.append(".".join([path.stem] + scopes))
            for child in ast.iter_child_nodes(node):
                visit(child)
            if named:
                scopes.pop()

        visit(ast.parse(path.read_text()))
    return sites


def test_recursion_limit_call_sites():
    """No library call raises the interpreter's recursion limit, a global
    side effect: the EST DP fills its tables bottom-up and the exact oracle
    searches on explicit lists. Any new caller of ``setrecursionlimit`` in
    the library fails here."""
    assert _call_sites("setrecursionlimit") == []


def test_one_process_exit():
    """Only the program entry ends the process with ``os._exit``, and both
    ``python -m treesearch.cli`` and the ``treesearch`` script reach it."""
    assert _call_sites("_exit") == ["cli.entry"]
    cli = ast.parse((SRC / "treesearch" / "cli.py").read_text())
    assert ast.unparse(cli.body[-1]) == "if __name__ == '__main__':\n    entry()"
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["treesearch", "=", '"treesearch.cli:entry"']


def test_records_state_their_fields_once():
    """Each record class's ``__init__`` is written from its ``__slots__`` by
    ``_Record.__init_subclass__``, the library's one ``exec``; no record class
    in the library writes its own."""
    assert _call_sites("exec") == ["model._Record.__init_subclass__"]
    classes = [node for path in sorted((SRC / "treesearch").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)]
    records = {"_Record"}
    while True:  # add the classes derived from a record until none is left
        found = {c.name for c in classes if {getattr(b, "id", None) for b in c.bases} & records} - records
        if not found:
            break
        records |= found
    assert {"Leaf", "Query", "NodePiece", "Diagnostics", "ESTNode", "PBSolution", "X3CInstance",
            "ReductionOutput"} < records
    assert not [c.name for c in classes if c.name in records and any(
        isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in c.body)]


def test_no_argparse():
    """The CLI reads its arguments through its own table: no module of the
    library imports ``argparse``, whose import costs every child start-up time."""
    assert _call_sites("argparse") == []


def test_exact_needs_no_greedy_bound():
    """The oracle searches each piece under w(piece) * (|piece| - 1) + 1, so
    no scope of ``exact`` names ``greedy``."""
    assert not [site for site in _call_sites("greedy") if site.split(".")[0] == "exact"]


def test_cli_keeps_no_solver_logic():
    """The CLI, and the ``bench`` subcommand's module, call the library's
    ``solve``, which alone holds the ``auto`` rule and the dispatch over the
    named solvers."""
    for name in ("opt_cost", "optimal_bounded", "solve_diam3", "tree_diameter", "greedy", "fptas",
                 "_run", "_limit"):
        assert not [site for site in _call_sites(name) if site.split(".")[0] in ("cli", "bench")], name
    assert "cli.cmd_solve" in _call_sites("solve") and "bench.bench" in _call_sites("solve")


def test_solve_and_eval_walk_each_strategy_once():
    """``cmd_solve`` and ``cmd_eval`` read the cost, the height and the node
    count (and ``eval`` the violations) from one ``measure`` walk each, and
    ``solve``'s greedy branch takes the cost that ``greedy_cost`` sums while
    it builds: no separate walk for each figure."""
    sites = _call_sites("measure")
    assert sites.count("cli.cmd_solve") == 1 and sites.count("cli.cmd_eval") == 1, sites
    for name in ("cost", "validate", "tree_height", "tree_size", "iter_nodes"):
        assert not [site for site in _call_sites(name) if site.split(".")[0] == "cli"], name
    assert "__init__.solve" not in _call_sites("cost") and "__init__.solve" in _call_sites("greedy_cost")


# The modules that ``import treesearch.cli`` runs, so every CLI child compiles
# them whenever no bytecode is cached (PYTHONDONTWRITEBYTECODE=1, as the
# benchmark's children may run).
_EAGER_MODULES = ("__init__", "errors", "io", "model", "cli")
_EAGER_AST_NODES = 8044


def test_eager_compile_budget():
    """Compiling these modules from source costs 1.1 to 2.2 ms per 1000 AST
    nodes, as the host's load varies (``compile`` of their text, median of
    60, Python 3.11 on a shared 2-vCPU VM): in one run 11.0 ms for 8147
    nodes, against 11.9 ms for 8874 when ``bench``'s table and the JSON
    token reader were in ``cli`` and ``io``. They hold 8044 since the model
    dropped the members that only tests called (``InputTree.in_subtree``,
    ``subtree_nodes``, ``NodePiece.whole``).
    Code that a ``solve`` or ``eval`` child does not run belongs in a module
    that it does not import, so the sum of their ``ast.walk`` node counts
    may not grow."""
    total = sum(sum(1 for _ in ast.walk(ast.parse((SRC / "treesearch" / f"{name}.py").read_text())))
                for name in _EAGER_MODULES)
    assert total <= _EAGER_AST_NODES, total


def test_subtree_mask_call_sites():
    """The n-bit subtree masks take O(n^2) bits, so only the exact oracle,
    whose n is capped by its node limit, builds them; the polynomial solvers
    and validation use preorder intervals."""
    assert _call_sites("_subtree_masks") == ["exact._Oracle.__init__"]


def test_height_cap_and_test_only_helpers_call_sites():
    """The DP's height cap is decided in bounded_dp alone, and the library
    keeps none of the searches and helpers that only tests call. ``k`` is
    looked up on ``X3CInstance`` itself, as loop variables share its name."""
    sites = _call_sites("HEIGHT_CAP")
    assert sites and {site.split(".")[0] for site in sites} == {"bounded_dp"}, sites
    for name in ("enumerate_decision_trees", "optimal_first_queries", "est_compatible", "est_height",
                 "left_delete", "right_delete", "DEFAULT_HEIGHT_CAP", "forest_nodes",
                 "in_subtree", "subtree_nodes", "_check_node", "whole"):
        assert _call_sites(name) == [], name
    assert not hasattr(X3CInstance, "k")


def test_id_mask_call_sites():
    """Node sets are id-bit integers only inside the exact oracle, whose n is
    capped by its node limit; the model, the EST helpers and the polynomial
    solvers take node sets, and only the oracle reads a piece's weights."""
    for name in ("full_mask", "mask_weight", "_bits", "forest_mask"):
        assert _call_sites(name) == [], name
        assert not any(hasattr(module, name) for module in (treesearch, bounded_dp, exact, model)), name
    sites = _call_sites("_piece_weights")
    assert sites and {site.split(".")[0] for site in sites} == {"exact"}, sites
    assert NodePiece.__slots__ == ("nodes", "top")
    assert not hasattr(InputTree, "full_mask") and not hasattr(InputTree, "mask_weight")
