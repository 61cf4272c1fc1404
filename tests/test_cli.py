import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treesearch import InputTree, format_instance, parse_decision_tree, parse_instance
from treesearch.cli import main
from treesearch.gen import path_tree, random_tree, seeded_weights, star_tree

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


PATH3 = "3 0\n0 -1 1\n1 0 1\n2 1 1\n"
PATH5 = "5 0\n0 -1 3\n1 0 1\n2 1 4\n3 2 1\n4 3 5\n"  # diameter 4


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
        code, _, err = run(capsys, "solve", path3_file, "--alg", "fptas")
        assert code == 2
        assert "eps" in err

    def test_all_algorithms_agree_on_fixture(self, capsys, tmp_path, path3_file):
        for alg in ("exact", "greedy", "dp", "auto"):
            code, out, _ = run(capsys, "solve", path3_file, "--alg", alg,
                               "--out", str(tmp_path / f"{alg}.json"))
            assert code == 0 and "cost 5" in out

    @pytest.mark.parametrize("text, extra, alg", [
        (PATH5, [], "exact"),
        (PATH5, ["--limit", "4"], "dp"),
        ("4 0\n0 -1 0\n1 0 3\n2 0 2\n3 0 1\n", [], "diam3"),
        (format_instance(random_tree(40, 1, (1, 5))), [], "greedy"),
        (format_instance(random_tree(21, 1)), [], "greedy"),  # the DP's budget 21 is over the cap
    ], ids=["path5", "path5-limit4", "star", "random40", "random21"])
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

    def test_malformed_parent_id(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 0\n0 -1 1\n1 7 1\n")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert "line 3" in err

    def test_resource_cap(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        for n in (21, 40):
            big.write_text(format_instance(random_tree(n, 1, (1, 5))))
            code, _, err = run(capsys, "solve", str(big), "--alg", "dp")
            assert code == 3
            assert "cap" in err

    def test_usage_error_exit_code(self, capsys, path3_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", path3_file, "--alg", "nonsense"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "x.txt", "--eps", "abc"],
        ["solve", "x.txt", "--eps", "0"],
        ["bench", "suite", "--eps=-1/2"],
        ["gen", "path", "3", "--weights", "abc"],
        ["gen", "path", "3", "--weights", "5..3"],
        ["gen", "random", "3", "--weights=-1..3"],
        ["solve", "x.txt", "--height", "-1"],
    ], ids=["eps-abc", "eps-0", "eps-negative", "weights-abc", "weights-reversed", "weights-negative",
            "height-negative"])
    def test_bad_option_value_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error: argument" in capsys.readouterr().err


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


def _cli(*argv):
    """The CLI in a fresh interpreter, at its default recursion limit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "treesearch.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestTallStrategies:
    @pytest.mark.parametrize("tree, alg, height", [
        (star_tree(10_000, seeded_weights(10_000, 3)), "diam3", 9999),
        (InputTree([-1, 0] + [0] * 600 + [1] * 600, seeded_weights(1202, 4)), "diam3", None),
        (_spider([2, 2] + [1] * 1495), "greedy", 1497),
        (path_tree(10_000, seeded_weights(10_000, 5)), "greedy", None),
        (random_tree(10_000, 6), "greedy", None),
    ], ids=["star-10000", "double-star-1202", "spider-1500", "path-10000", "random-10000"])
    def test_solve_eval_round_trip(self, tmp_path, tree, alg, height):
        inst, out = tmp_path / "inst.txt", tmp_path / "s.json"
        inst.write_text(format_instance(tree))
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
