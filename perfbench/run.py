"""End-to-end benchmark of the treesearch CLI.

    python3 perfbench/run.py --workload small|scale \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root (any checkout with ``src/treesearch``). The
benchmark writes the workload's instance and X3C files under
``.perfbench-work/`` from the seed, then drives the real CLI the way a user
does: every request is a fresh ``python -m treesearch.cli`` child with
``PYTHONPATH=src``, in a closed loop with one client and one child at a
time. A request is ``solve`` followed by ``eval`` on the strategy file it
wrote, or one ``verify-lemma2``. After one untimed warm-up request, the
workload's round of requests repeats, whole, until about S seconds have
passed.

Every answer is checked: ``eval`` must accept the strategy and report the
cost ``solve`` printed, exact algorithms must match the reference optimum
computed at set-up, ``fptas`` must stay within (1+eps) of it, and
``verify-lemma2`` must agree with brute force and with the planted or
absent cover. A wrong answer ends the run with exit 1. Failures (non-zero
exits, tracebacks, timeouts, exit-3 refusals) are counted, not fatal.

Times are reported at a reference speed. Before each request and around
each set-up the benchmark times a fixed pure-Python loop in its own process
(``reference_loop``), and every end-to-end time is scaled by
``REFERENCE_S`` / the median loop time of its phase (set-up or requests). The host's speed drifts by a
fifth or more over minutes on a shared VM; the scaling cancels most of that
drift and leaves the program's own work. The unscaled timings are in the
provenance line and, with ``--trace 1``, in the ``host.*`` metrics.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the first round is also replayed
under ``replay.py`` (one fresh interpreter per CLI invocation, spans around
each module's public functions) and the last line holds the per-layer
metrics. A provenance line precedes it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads
from replay import PEAK_SPANS, SPANS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Each request may take this long; a failed or timed-out request counts as
# the cap plus the time it ran, so it sits above every successful request
# (fixing it can never worsen a percentile) without every failure reading
# the same constant.
REQUEST_CAP_S = 10.0
# setup_s is the median of at least three set-ups, more while they are
# cheap, so that a set-up of a few milliseconds is not one noisy sample.
SETUP_REPEATS = (3, 9)
SETUP_BUDGET_S = 2.0
# Whatever happens, a run must end well inside three minutes.
RUN_DEADLINE_S = 165.0
# The median time of reference_loop on a 2-vCPU Intel Xeon VM (Python
# 3.11), so that scaled times read close to raw seconds on such a machine.
REFERENCE_S = 0.0175

END_TO_END_UNITS = {
    "ok_per_s": "1/s",
    "request_p50_s": "s",
    "request_p90_s": "s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SPAN_NAMES = ["cli.import"] + [f"{m}.{f}" for m, funcs in SPANS.items() for f in funcs]
FAILURE_KINDS = ("exit_invalid", "exit_resource", "tracebacks", "timeouts", "exit_other")


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPAN_NAMES:
        units.update({f"{span}.self_s": "s", f"{span}.share": "share",
                      f"{span}.calls": "count", f"{span}.failed": "count"})
    units.update({f"{span}.peak_mb": "MB" for span in PEAK_SPANS})
    units.update({f"{m}.recursionlimit_raises": "count" for m in SPANS})
    units.update({
        "bounded_dp.budget": "levels",
        "bounded_dp.budget_slack": "levels",
        "diameter.states": "count",
        "io.strategy_bytes": "B",
        "model.strategy_nodes": "count",
        "model.strategy_height": "levels",
        "reduction.realizations": "count",
        "fptas.cost_ratio_max": "ratio",
    })
    units.update({f"cli.{k}": "count" for k in FAILURE_KINDS})
    units.update({"cli.failed_share": "share", "trace.total_s": "s", "trace.e2e_total_s": "s",
                  "trace.overhead": "share", "trace.alg_mismatches": "count"})
    units.update({"host.reference_loop_s": "s", "host.time_scale": "ratio", "host.setup_time_scale": "ratio",
                  "host.ok_per_s": "1/s", "host.request_p50_s": "s", "host.request_p90_s": "s",
                  "host.setup_s": "s"})
    return units


def reference_loop() -> float:
    """Time a fixed piece of pure-Python work (integer arithmetic and dict
    stores, about 17 ms); the benchmark's measure of the host's speed."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for k in range(100_000):
        acc += k * k
        table[k & 1023] = acc
    return time.perf_counter() - t0


class WrongAnswer(Exception):
    """The CLI returned an answer that the correctness gate rejects."""


@dataclass
class Invocation:
    argv: list[str]
    wall_s: float
    code: int | None  # None: killed at the time cap
    stdout: str
    stderr: str

    def failure(self) -> str | None:
        if self.code is None:
            return "timeouts"
        if self.code == 0:
            return None
        if self.code == 1 and "Traceback" in self.stderr:
            return "tracebacks"
        return {2: "exit_invalid", 3: "exit_resource"}.get(self.code, "exit_other")

    def fields(self) -> dict[str, str]:
        out = {}
        for line in self.stdout.splitlines():
            key, _, value = line.partition(" ")
            out.setdefault(key, value.strip())
        return out


@dataclass
class Outcome:
    request: workloads.Request
    elapsed_s: float
    penalty_s: float  # the time cap for a failed request, else 0
    failure: str | None
    invocations: list[Invocation]
    info: dict = field(default_factory=dict)

    def latency(self, scale: float = 1.0) -> float:
        """The request's latency with its measured time multiplied by
        ``scale``; the penalty is a constant and is not scaled."""
        return self.elapsed_s * scale + self.penalty_s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(args: list[str], cap_s: float) -> Invocation:
    argv = [sys.executable, "-m", "treesearch.cli", *args]
    t0 = time.perf_counter()
    try:
        p = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                           timeout=max(cap_s, 0.001))
    except subprocess.TimeoutExpired as e:
        return Invocation(args, time.perf_counter() - t0, None, _text(e.stdout), _text(e.stderr))
    return Invocation(args, time.perf_counter() - t0, p.returncode, p.stdout, p.stderr)


def _text(data) -> str:
    return data.decode(errors="replace") if isinstance(data, bytes) else (data or "")


def _int_field(inv: Invocation, key: str, what: str) -> int:
    try:
        return int(inv.fields()[key])
    except (KeyError, ValueError):
        raise WrongAnswer(f"{what}: no '{key}' line in output {inv.stdout!r}") from None


def check_solve(req: workloads.Request, solve: Invocation, ev: Invocation) -> dict:
    """Correctness gate for a solve+eval pair that both exited 0; returns
    what the request reported."""
    what = f"{req.label} ({req.path})"
    if ev.stdout.startswith("invalid"):
        raise WrongAnswer(f"{what}: eval rejects the strategy solve wrote: {ev.stdout.strip()}")
    alg = solve.fields().get("alg")
    cost = _int_field(solve, "cost", f"{what} solve")
    if not ev.stdout.startswith("valid"):
        raise WrongAnswer(f"{what}: eval did not report 'valid': {ev.stdout!r}")
    eval_cost = _int_field(ev, "cost", f"{what} eval")
    if eval_cost != cost:
        raise WrongAnswer(f"{what}: solve printed cost {cost}, eval computed {eval_cost}")
    opt = req.ref.get("opt")
    info = {"alg": alg, "cost": cost}
    if opt is None:
        return info
    if cost < opt:
        raise WrongAnswer(f"{what}: cost {cost} is below the optimum {opt}")
    if alg == "fptas":
        eps = Fraction(req.ref["eps"])
        if cost > (1 + eps) * opt:
            raise WrongAnswer(f"{what}: fptas cost {cost} exceeds (1+{eps}) * {opt}")
        info["ratio"] = cost / opt
    elif alg == "greedy":
        if cost > 2 * opt:
            raise WrongAnswer(f"{what}: greedy cost {cost} exceeds 2 * {opt}")
    elif cost != opt:
        raise WrongAnswer(f"{what}: {alg} cost {cost} differs from the optimum {opt}")
    return info


def check_verify(req: workloads.Request, inv: Invocation) -> None:
    """Correctness gate for a verify-lemma2 run that exited 0 or reported a
    mismatch."""
    what = f"{req.label} ({req.path})"
    got = inv.fields()
    if got.get("agreement") != "ok":
        raise WrongAnswer(f"{what}: verify-lemma2 reports agreement {got.get('agreement')!r}")
    expect = "yes" if req.ref["cover"] else "no"
    for key in ("decide-cover", "x3c-brute"):
        if got.get(key) != expect:
            raise WrongAnswer(f"{what}: {key} says {got.get(key)!r}, the family has "
                              f"{'a planted' if req.ref['cover'] else 'no'} cover")


def run_request(req: workloads.Request, workdir: Path, cap_s: float = REQUEST_CAP_S) -> Outcome:
    t0 = time.perf_counter()
    invs: list[Invocation] = []

    def done(failure: str | None, info: dict | None = None) -> Outcome:
        elapsed = time.perf_counter() - t0
        return Outcome(req, elapsed, 0.0 if failure is None else cap_s, failure, invs, info or {})

    if req.kind == "verify":
        inv = run_cli(["verify-lemma2", "--x3c", req.path, *req.args], cap_s)
        invs.append(inv)
        if inv.code == 0 or "agreement MISMATCH" in inv.stdout:
            check_verify(req, inv)
        return done(inv.failure())

    strategy = workdir / (Path(req.path).stem + "-" + req.label + ".json")
    strategy.unlink(missing_ok=True)
    solve = run_cli(["solve", req.path, *req.args, "--out", str(strategy)], cap_s)
    invs.append(solve)
    if solve.failure():
        return done(solve.failure())
    if not strategy.is_file():
        raise WrongAnswer(f"{req.label} ({req.path}): solve exited 0 without writing {strategy}")
    info = {"bytes": strategy.stat().st_size,
            "nodes": _int_field(solve, "nodes", f"{req.label} solve"),
            "height": _int_field(solve, "height", f"{req.label} solve")}
    ev = run_cli(["eval", req.path, str(strategy)], cap_s - (time.perf_counter() - t0))
    invs.append(ev)
    if ev.stdout.startswith("invalid") or ev.code == 0:
        info.update(check_solve(req, solve, ev))
    return done(ev.failure(), info)


def closed_loop(reqs: list[workloads.Request], seconds: float, workdir: Path, hard_stop: float,
                rounds: list[list[Outcome]], refs: list[float]) -> float:
    """Run the round of requests again and again, appending each round's
    outcomes to ``rounds`` and the reference loop timed before each request
    to ``refs``, until the next round would end more than half a round after
    ``seconds``; return the wall time spent in requests. Every round is the
    same, so a run's mix of requests does not depend on how many rounds fit."""
    start = time.perf_counter()
    in_refs = 0.0
    while True:
        outcomes: list[Outcome] = []
        rounds.append(outcomes)
        for req in reqs:
            if rounds[0] and time.perf_counter() > hard_stop:
                break
            refs.append(reference_loop())
            in_refs += refs[-1]
            outcomes.append(run_request(req, workdir))
        now = time.perf_counter()
        per_round = (now - start) / len(rounds)
        if len(outcomes) < len(reqs) or now - start + per_round / 2 >= seconds:
            return now - start - in_refs


def quantile(values: list[float], q: int) -> float:
    """The q-th decile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end_metrics(outcomes: list[Outcome], wall_s: float, setup: list[float],
                       scale: float = 1.0, setup_scale: float = 1.0) -> dict:
    """The end-to-end metrics, with the requests' measured times multiplied
    by ``scale`` and the set-up time by ``setup_scale``."""
    lat = [o.latency(scale) for o in outcomes]
    ok = sum(o.failure is None for o in outcomes)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "ok_per_s": ok / (wall_s * scale),
        "request_p50_s": quantile(lat, 5),
        "request_p90_s": quantile(lat, 9),
        "ok_share": ok / len(outcomes),
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(setup) * setup_scale,
    }


def host_metrics(raw: dict, refs: list[float], scale: float, setup_scale: float) -> dict:
    """The unscaled timings and the reference loop, for the per-layer run."""
    return {"host.reference_loop_s": statistics.median(refs), "host.time_scale": scale,
            "host.setup_time_scale": setup_scale,
            **{f"host.{k}": raw[k] for k in ("ok_per_s", "request_p50_s", "request_p90_s", "setup_s")}}


def _median(values: list, default=0):
    return statistics.median(values) if values else default


def replay(inv: Invocation, mode: str, workdir: Path, cap_s: float,
           deadline: float) -> tuple[dict | None, float]:
    """Replay one invocation in a fresh interpreter; returns its record
    (None if it did not finish by the cap or the run's deadline) and its
    wall time."""
    out = workdir / "replay.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "replay.py"), str(out), mode, *inv.argv]
    t0 = time.perf_counter()
    try:
        subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                       timeout=max(min(cap_s, deadline - t0), 0.001))
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    return (json.loads(out.read_text()) if out.exists() else None), wall


def per_layer_metrics(rounds: list[list[Outcome]], workdir: Path, deadline: float) -> dict:
    """Replay the first round traced, then each request class's first
    solve or verify under tracemalloc, and fold in the end-to-end counters."""
    all_outcomes = [o for r in rounds for o in r]
    first = rounds[0]
    m: dict[str, float] = {name: 0 for name in per_layer_units()}

    self_s: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
    total_self: dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
    budgets, slacks, states, realizations = [], [], [], []
    traced_total = e2e_total = 0.0
    skipped = 0
    for o in first:
        for inv in o.invocations:
            if time.perf_counter() > deadline:
                skipped += 1
                continue
            res, wall = replay(inv, "time", workdir, REQUEST_CAP_S, deadline)
            traced_total += wall
            e2e_total += inv.wall_s
            if res is None:
                m["trace.alg_mismatches"] += 1
                continue
            if res["exit"] != inv.code or res["alg"] != inv.fields().get("alg"):
                m["trace.alg_mismatches"] += 1
            self_s["cli.import"].append(res["import_s"])
            total_self["cli.import"] += res["import_s"]
            for span in res["spans"]:
                self_s[span["name"]].append(span["self_s"])
                total_self[span["name"]] += span["self_s"]
                m[span["name"] + ".failed"] += span["failed"]
            for module, k in res["raises"].items():
                m[f"{module}.recursionlimit_raises"] += k
            c = res["counters"]
            budgets += c.get("bounded_dp.budget", [])
            if "hstar" in o.request.ref:
                slacks += [b - (o.request.ref["hstar"] + 1) for b in c.get("bounded_dp.budget_direct", [])]
            states += c.get("diameter.states", [])
            realizations += c.get("reduction.realizations", [])
    if skipped:
        print(f"warning: run deadline reached, {skipped} invocations not replayed", file=sys.stderr)
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = _median(self_s[name])
        m[f"{name}.calls"] = len(self_s[name])
        m[f"{name}.share"] = total_self[name] / traced_total if traced_total else 0
    m["bounded_dp.budget"] = _median(budgets)
    m["bounded_dp.budget_slack"] = _median(slacks)
    m["diameter.states"] = max(states, default=0)
    m["reduction.realizations"] = max(realizations, default=0)
    m["trace.total_s"] = traced_total
    m["trace.e2e_total_s"] = e2e_total
    m["trace.overhead"] = traced_total / e2e_total - 1 if e2e_total else 0

    seen = set()
    peaks: dict[str, int] = {}
    for o in first:
        if o.request.label in seen or time.perf_counter() > deadline:
            continue
        seen.add(o.request.label)
        # tracemalloc slows allocation-heavy solvers by up to 25 times.
        res, _ = replay(o.invocations[0], "mem", workdir, 6 * REQUEST_CAP_S, deadline)
        for span in (res or {}).get("spans", []):
            if span["name"] in PEAK_SPANS:
                peaks[span["name"]] = max(peaks.get(span["name"], 0), span["peak_b"])
    for name, b in peaks.items():
        m[f"{name}.peak_mb"] = b / 2 ** 20

    infos = [o.info for o in all_outcomes if o.info]
    m["io.strategy_bytes"] = max((i["bytes"] for i in infos), default=0)
    m["model.strategy_nodes"] = max((i["nodes"] for i in infos), default=0)
    m["model.strategy_height"] = max((i["height"] for i in infos), default=0)
    m["fptas.cost_ratio_max"] = max((i["ratio"] for i in infos if "ratio" in i), default=0)
    for o in all_outcomes:
        if o.failure:
            m[f"cli.{o.failure}"] += 1
    m["cli.failed_share"] = sum(o.failure is not None for o in all_outcomes) / len(all_outcomes)
    return m


def provenance(args, sizes: dict, rounds: int, wall_s: float, raw: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src" / "treesearch").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload, "why": workloads.WHY[args.workload], "seed": args.seed,
        "sizes": sizes, "smoke": args.smoke, "seconds": args.seconds, "rounds": rounds,
        "measured_s": round(wall_s, 3), "request_cap_s": REQUEST_CAP_S,
        "reference_s": REFERENCE_S, "unscaled": raw,
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree, read without
    starting git (its children would count in peak_rss_mb)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = p.parse_args(argv)
    started = time.perf_counter()
    # On SIGTERM, unwind as for an exception: subprocess.run kills and
    # reaps the running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "treesearch" / "cli.py").is_file():
        print(f"error: no treesearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import treesearch.exact  # noqa: F401  (imported once, outside the timed set-ups)

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        setup: list[float] = []
        setup_refs: list[float] = []
        while len(setup) < SETUP_REPEATS[0] or (
                len(setup) < SETUP_REPEATS[1] and sum(setup) < SETUP_BUDGET_S):
            shutil.rmtree(workdir, ignore_errors=True)
            setup_refs.append(reference_loop())
            t0 = time.perf_counter()
            plan, sizes = workloads.build(args.workload, args.seed, workdir, args.smoke)
            setup.append(time.perf_counter() - t0)
        setup_refs.append(reference_loop())
        refs: list[float] = []
        rounds: list[list[Outcome]] = []
        try:
            # Warm-up, checked but not timed: the first CLI child of a fresh
            # checkout compiles the library's bytecode and reads the
            # interpreter's files from disk.
            run_request(plan[0], workdir)
            wall_s = closed_loop(plan, args.seconds, workdir, started + RUN_DEADLINE_S / 2, rounds, refs)
        except WrongAnswer as e:
            outcomes = [o for r in rounds for o in r]
            print(f"WRONG ANSWER: {e}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": len(outcomes) + 1,
                              "failed": sum(o.failure is not None for o in outcomes) + 1,
                              "metrics": {}}))
            return 1
        outcomes = [o for r in rounds for o in r]
        failed = sum(o.failure is not None for o in outcomes)
        scale = REFERENCE_S / statistics.median(refs)
        setup_scale = REFERENCE_S / statistics.median(setup_refs)
        raw = end_to_end_metrics(outcomes, wall_s, setup)
        if args.trace:
            metrics = per_layer_metrics(rounds, workdir, started + RUN_DEADLINE_S)
            metrics.update(host_metrics(raw, refs, scale, setup_scale))
            units = per_layer_units()
        else:
            metrics = end_to_end_metrics(outcomes, wall_s, setup, scale, setup_scale)
            units = END_TO_END_UNITS
        print_table(f"{args.workload} seed {args.seed}: {len(outcomes)} requests in "
                    f"{len(rounds)} rounds, {failed} failed", metrics, units)
        print(json.dumps({"provenance": provenance(args, sizes, len(rounds), wall_s, raw)}))
        print(json.dumps({
            "correct": True, "attempted": len(outcomes), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench-work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
