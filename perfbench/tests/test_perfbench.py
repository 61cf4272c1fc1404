"""Self-tests of the benchmark: the correctness gate, failure and timeout
accounting, metric-name completeness and the refusal to run without the
library's sources.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def inv(stdout: str, code: int = 0, stderr: str = "") -> run.Invocation:
    return run.Invocation(["solve"], 0.1, code, stdout, stderr)


SOLVE_OK = "alg dp\ncost 10\nheight 3\nnodes 7\ntime 0.001s\n"
EVAL_OK = "valid\ncost 10\nheight 3\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    p = smoke(workload, trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_metric_names_match_the_declaration():
    s = spec()
    assert [m["name"] for m in s["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"] for m in s["per_layer"]} == set(run.per_layer_units())
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)


def test_injected_wrong_cost_fails_the_run(monkeypatch, capsys):
    build = workloads.build

    def wrong_reference(*args, **kwargs):
        plan, sizes = build(*args, **kwargs)
        for r in plan:
            if "opt" in r.ref:
                r.ref["opt"] += 1
        return plan, sizes

    monkeypatch.setattr(workloads, "build", wrong_reference)
    code = run.main(["--workload", "small", "--seed", "3", "--seconds", "0.1",
                     "--trace", "0", "--smoke"])
    out = capsys.readouterr()
    assert code == 1
    assert "WRONG ANSWER" in out.err
    assert json.loads(out.out.strip().splitlines()[-1])["correct"] is False


def test_gate_rejects_wrong_answers():
    req = workloads.Request("auto-n6", "solve", "t.txt", ref={"opt": 10})
    assert run.check_solve(req, inv(SOLVE_OK), inv(EVAL_OK))["cost"] == 10
    with pytest.raises(run.WrongAnswer, match="eval computed 11"):
        run.check_solve(req, inv(SOLVE_OK), inv("valid\ncost 11\nheight 3\n"))
    with pytest.raises(run.WrongAnswer, match="rejects the strategy"):
        run.check_solve(req, inv(SOLVE_OK), inv("invalid\nviolation: x\n", code=2))
    with pytest.raises(run.WrongAnswer, match="differs from the optimum"):
        run.check_solve(workloads.Request("a", "solve", "t.txt", ref={"opt": 9}),
                        inv(SOLVE_OK), inv(EVAL_OK))
    fptas = workloads.Request("f", "solve", "t.txt", ref={"opt": 6, "eps": "1/2"})
    with pytest.raises(run.WrongAnswer, match="exceeds"):
        run.check_solve(fptas, inv(SOLVE_OK.replace("dp", "fptas")), inv(EVAL_OK))
    cover = workloads.Request("v", "verify", "f.x3c", ref={"cover": True})
    with pytest.raises(run.WrongAnswer, match="planted"):
        run.check_verify(cover, inv("decide-cover no\nx3c-brute no\nagreement ok\n"))
    with pytest.raises(run.WrongAnswer, match="MISMATCH"):
        run.check_verify(cover, inv("decide-cover no\nx3c-brute yes\nagreement MISMATCH\n", 2))


def test_failures_are_classified():
    assert inv("", code=1, stderr="Traceback (most recent call last):\n").failure() == "tracebacks"
    assert inv("", code=1, stderr="usage: treesearch").failure() == "exit_other"
    assert inv("", code=2).failure() == "exit_invalid"
    assert inv("", code=3).failure() == "exit_resource"
    assert run.Invocation([], 1.0, None, "", "").failure() == "timeouts"


def test_timeout_is_counted_at_the_cap(tmp_path):
    plan, _ = workloads.build("small", 3, tmp_path, smoke=True)
    outcome = run.run_request(plan[0], tmp_path, cap_s=0.01)
    assert outcome.failure == "timeouts"
    assert outcome.latency() >= 0.01 + outcome.invocations[0].wall_s


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a, _ = workloads.build(workload, 5, tmp_path / "a", smoke=True)
        b, _ = workloads.build(workload, 5, tmp_path / "b", smoke=True)
        assert [Path(r.path).read_text() for r in a] == [Path(r.path).read_text() for r in b]
        assert [r.ref for r in a] == [r.ref for r in b]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = smoke("small", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_scaling_leaves_the_failure_penalty_alone():
    req = workloads.Request("a", "solve", "t.txt")
    ok = run.Outcome(req, 0.4, 0.0, None, [])
    failed = run.Outcome(req, 1.0, run.REQUEST_CAP_S, "tracebacks", [])
    assert ok.latency(0.5) == 0.2
    assert failed.latency(0.5) == run.REQUEST_CAP_S + 0.5
    m = run.end_to_end_metrics([ok, failed], 1.4, [0.2], scale=0.5, setup_scale=2.0)
    assert m["ok_per_s"] == 1 / 0.7
    assert m["setup_s"] == 0.4
    assert m["request_p50_s"] == (0.2 + run.REQUEST_CAP_S + 0.5) / 2
