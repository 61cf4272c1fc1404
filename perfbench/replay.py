"""Traced replay of one treesearch CLI invocation.

    python3 perfbench/replay.py OUT.json time|mem CLI-ARG...

Runs ``treesearch.cli.main(CLI-ARGS)`` in this fresh interpreter with a
span around every call into the public functions listed in ``SPANS``. The
spans are installed from outside the library: each function object is
replaced, in every ``treesearch`` module namespace that holds it, by a
wrapper that times the call. Nothing inside ``src/`` is traced.

In ``time`` mode each span records its duration, its self time (duration
minus the direct child spans), whether it ended in an exception, and
whether the interpreter's recursion limit rose during its own code. In
``mem`` mode ``tracemalloc`` runs and each span in ``PEAK_SPANS`` records
its traced peak above the memory in use when it started; that pass is
separate so that tracemalloc does not inflate the self times.

The result is written to OUT.json; PYTHONPATH must name the library's
``src`` directory, as for the CLI itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import tracemalloc

SPANS = {
    "io": ("parse_instance", "format_decision_tree", "parse_decision_tree", "parse_x3c"),
    "model": ("validate", "cost"),
    "exact": ("opt_cost",),
    "bounded_dp": ("height_bound", "optimal_bounded"),
    "fptas": ("fptas",),
    "greedy": ("greedy",),
    "diameter": ("tree_diameter", "solve_diam3"),
    "reduction": ("build", "decide_cover", "x3c_brute"),
}
PEAK_SPANS = (
    "exact.opt_cost", "bounded_dp.optimal_bounded", "fptas.fptas", "greedy.greedy",
    "diameter.solve_diam3", "io.format_decision_tree", "reduction.decide_cover",
)


class _Frame:
    __slots__ = ("name", "start", "child_s", "limit", "child_rise", "mem_start", "mem_inner")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.child_rise = 0
        self.limit = sys.getrecursionlimit()
        self.mem_start = 0
        self.mem_inner = 0
        self.start = time.perf_counter()


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.stack: list[_Frame] = []
        self.spans: list[dict] = []
        self.raises: dict[str, int] = {}
        self.counters: dict[str, list] = {}

    def enter(self, name: str) -> None:
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self.stack:
                outer = self.stack[-1]
                outer.mem_inner = max(outer.mem_inner, peak)
            tracemalloc.reset_peak()
        frame = _Frame(name)
        if self.memory:
            frame.mem_start = cur
        self.stack.append(frame)

    def exit(self, failed: bool) -> None:
        end = time.perf_counter()
        frame = self.stack.pop()
        duration = end - frame.start
        rise = sys.getrecursionlimit() - frame.limit
        record = {"name": frame.name, "self_s": duration - frame.child_s, "failed": failed}
        if rise > frame.child_rise:
            module = frame.name.split(".")[0]
            self.raises[module] = self.raises.get(module, 0) + 1
        if self.memory:
            peak = max(tracemalloc.get_traced_memory()[1], frame.mem_inner)
            record["peak_b"] = peak - frame.mem_start
        if self.stack:
            outer = self.stack[-1]
            outer.child_s += duration
            outer.child_rise += rise
            if self.memory:
                outer.mem_inner = max(outer.mem_inner, peak)
        self.spans.append(record)

    def count(self, name: str, value) -> None:
        self.counters.setdefault(name, []).append(value)

    def inside(self, name: str) -> bool:
        return any(f.name == name for f in self.stack)

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            if name == "diameter.solve_diam3" and len(args) < 2 and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(True)
                raise
            self.exit(False)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Replace every public function in SPANS, in every loaded treesearch
    module namespace that refers to it, by its traced wrapper."""
    mods = {name: m for name, m in sys.modules.items()
            if name == "treesearch" or name.startswith("treesearch.")}
    height_bound = mods["treesearch.bounded_dp"].height_bound

    def after_optimal_bounded(args, kwargs, result):
        tree = args[0]
        budget = kwargs.get("budget", args[1] if len(args) > 1 else None)
        if budget is None:
            budget = min(height_bound(tree), max(tree.n, 1))
        tracer.count("bounded_dp.budget", budget)
        if not tracer.inside("fptas.fptas"):
            tracer.count("bounded_dp.budget_direct", budget)

    def after_solve_diam3(args, kwargs, result):
        stats = kwargs.get("stats") or (args[1] if len(args) > 1 else None)
        if stats and "states" in stats:
            tracer.count("diameter.states", stats["states"])

    def after_decide_cover(args, kwargs, result):
        tracer.count("reduction.realizations", 2 ** args[0].x3c.m)

    hooks = {
        "bounded_dp.optimal_bounded": after_optimal_bounded,
        "diameter.solve_diam3": after_solve_diam3,
        "reduction.decide_cover": after_decide_cover,
    }
    for module, funcs in SPANS.items():
        for func in funcs:
            name = f"{module}.{func}"
            original = getattr(mods[f"treesearch.{module}"], func)
            traced = tracer.wrap(name, original, hooks.get(name))
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)


def main(argv: list[str]) -> int:
    out_path, mode, cli_args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import treesearch.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer(memory=mode == "mem")
    install(tracer)
    stdout = io.StringIO()
    if tracer.memory:
        tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(cli_args)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:
        code = 1  # as the real CLI: an uncaught exception exits 1 with a traceback
    if tracer.memory:
        tracemalloc.stop()
    alg = next((ln.split()[1] for ln in stdout.getvalue().splitlines() if ln.startswith("alg ")), None)
    result = {
        "exit": code, "alg": alg, "import_s": import_s,
        "spans": tracer.spans, "raises": tracer.raises, "counters": tracer.counters,
    }
    with open(out_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
