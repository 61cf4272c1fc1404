"""Command-line surface: instance I/O, solving (through the library's
``solve``), evaluation, reduction generation, and benchmarking.

Exit codes: 0 ok, 1 usage (also an --out path or a stdout that cannot be
written), 2 validation/parse failure, 3 resource cap.
Payload output (trees, instances) goes to --out when given, else stdout;
human-readable stats always go to stdout.
"""

from __future__ import annotations

import itertools
import os
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

from . import io as tio, reduction, solve
from .errors import (DEFAULT_LIMIT, InfeasibleError, InvalidDecisionTreeError, InvalidInstanceError,
                     ResourceLimitError)
from .io import _parse_eps  # the --eps converter
from .model import measure

EXIT_OK, EXIT_USAGE, EXIT_INVALID, EXIT_RESOURCE = 0, 1, 2, 3


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


def _say(*lines: str, end: str = "\n") -> None:
    """Print ``lines`` on stdout; a stdout that cannot be written is a usage error, as an --out
    path is."""
    try:
        print("\n".join(lines), end=end)
    except OSError as e:
        raise _UnwritableError(f"cannot write stdout: {e}") from None


def _emit(payload: str, out: str | None) -> None:
    if out:
        _write(out, payload)
    else:
        _say(payload, end="")


def _parse_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"bad value {text!r}; expected an integer") from None
    if value < 0:
        raise ValueError(f"bad value {text!r}; must be non-negative")
    return value


def _parse_weight_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split("..", 1))
    except ValueError:
        raise ValueError(f"bad weight range {text!r}; expected lo..hi") from None
    if not 0 <= lo <= hi:
        raise ValueError(f"bad weight range {text!r}; need 0 <= lo <= hi")
    return lo, hi


def cmd_solve(args) -> int:
    if args.alg == "fptas" and args.eps is None:
        args.usage_error("--alg fptas requires --eps")
    tree = tio.parse_instance(_read(args.input))
    t0 = time.perf_counter()
    c, strategy, alg = solve(tree, args.alg, eps=args.eps, height=args.height, limit=args.limit)
    elapsed = time.perf_counter() - t0
    _emit(tio.format_decision_tree(strategy), args.out)
    _, _, height, nodes = measure(strategy, tree, check=False)
    _say(f"alg {alg}", f"cost {tio.format_int(c)}", f"height {height}", f"nodes {nodes}", f"time {elapsed:.3f}s")
    return EXIT_OK


def cmd_eval(args) -> int:
    tree = tio.parse_instance(_read(args.instance))
    strategy = tio.parse_decision_tree(_read(args.tree))
    violations, c, height, _ = measure(strategy, tree)
    if violations:
        _say("invalid", *(f"violation: {v}" for v in violations))
        return EXIT_INVALID
    _say("valid", f"cost {tio.format_int(c)}", f"height {height}")
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
    inst = reduction.X3CInstance.of(*tio.parse_x3c(_read(args.x3c)))
    red = reduction.build(inst, args.variant)
    _emit(tio.format_instance(red.instance), args.out)
    _say("pi " + " ".join(reduction.pi_names(inst)), f"nodes {red.instance.n}",
         f"max-weight-bits {max(red.instance.weight).bit_length()}")
    return EXIT_OK


def cmd_verify_lemma2(args) -> int:
    inst = reduction.X3CInstance.of(*tio.parse_x3c(_read(args.x3c)))
    red = reduction.build(inst, args.variant)
    via_tree = reduction.decide_cover(red)
    via_brute = reduction.x3c_brute(inst)
    _say(f"decide-cover {'yes' if via_tree else 'no'}", f"x3c-brute {'yes' if via_brute else 'no'}",
         "agreement " + ("ok" if via_tree == via_brute else "MISMATCH"))
    return EXIT_OK if via_tree == via_brute else EXIT_INVALID


def cmd_bench(args) -> int:
    from .bench import bench  # imported here: only this subcommand runs it

    return EXIT_INVALID if bench(args, _read, _say, _write) else EXIT_OK


# Each subcommand's handler, positionals (convert, choices) and options (convert, choices, default,
# required). A value is converted as it is read, a string default only when its option is absent.
_STR, _X3C = (str, None, None, False), (str, None, None, True)
_VARIANT, _LIMIT = (str, ("diam4", "deg16"), "diam4", False), (_parse_count, None, DEFAULT_LIMIT, False)
_COMMANDS = {
    "solve": (cmd_solve, {"input": _STR}, {
        "--alg": (str, ("greedy", "exact", "dp", "fptas", "auto"), "auto", False),
        "--eps": (_parse_eps, None, None, False), "--height": (_parse_count, None, None, False),
        "--limit": _LIMIT, "--out": _STR}),
    "eval": (cmd_eval, {"instance": _STR, "tree": _STR}, {}),
    "gen": (cmd_gen, {"kind": (str, ("random", "path", "star", "complete-d-ary")), "n": (int, None)}, {
        "--seed": (int, None, 0, False), "--arity": (int, None, 2, False),
        "--weights": (_parse_weight_range, None, (1, 10), False), "--out": _STR}),
    "reduce": (cmd_reduce, {}, {"--variant": _VARIANT, "--x3c": _X3C, "--out": _STR}),
    "verify-lemma2": (cmd_verify_lemma2, {}, {"--x3c": _X3C, "--variant": _VARIANT}),
    "bench": (cmd_bench, {"suite": _STR}, {"--eps": (_parse_eps, None, "1/2", False), "--limit": _LIMIT,
                                           "--json": _STR}),  # --json: see bench._json_cost
}
_TOP = (None, {"command": (str, tuple(_COMMANDS))}, {})  # what the subcommand follows


def _usage_exit(command: str | None, error: str | None = None):
    """Help: the usage lines, exit 0. An error: the usage line and the error on stderr, exit 1."""
    for name in [command] if command or error else [None, *_COMMANDS]:
        _, positionals, options = _COMMANDS[name] if name else _TOP
        words = (f"{o} {o[2:].upper()}" if s[3] else f"[{o} {o[2:].upper()}]" for o, s in options.items())
        usage = " ".join(filter(None, ["usage: treesearch", name, "[-h]", *words, *positionals]))
        if error:
            print(usage, f"error: {error}", sep="\n", file=sys.stderr)
        else:
            _say(usage)
    raise SystemExit(EXIT_USAGE if error else EXIT_OK)


def _option(token: str, options, command: str | None) -> str | None:
    """The option ``token`` names, whole, by a unique prefix or as ``name=value``; "" if unknown,
    None if a value: no leading '-', '-' or '--' alone, a negative number, or a space in it."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    name = "--help" if token[:2] == "-h" else token.partition("=")[0]
    found = [o for o in (*options, "--help") if o.startswith(name)]
    found = [name] if name in found else found
    if len(found) > 1:
        _usage_exit(command, f"ambiguous option: {name} could match {', '.join(found)}")
    return found[0] if found else None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else ""


def _parse(argv: list[str]):
    """``(handler, args)`` for ``argv`` as ``_COMMANDS`` says: options anywhere among the positionals,
    the last of a repeated option winning, every token after the subcommand's first ``--`` a value."""
    command, (handler, positionals, options) = None, _TOP
    names, values, extras, rest, pending, name = iter(positionals), {}, [], False, None, None
    for i, token in enumerate(argv):
        option = None if rest else "--" if token == "--" and command else _option(token, options, command)
        if pending and option is not None:
            break  # ``pending`` needs a value here
        if option == "--help":
            _usage_exit(command, f"ignored argument: {token}" if "=" in token or token[:2] == "-h" != token
                        else None)
        if option == "--":  # dropped, unless it ends argv and no positional comes just before it
            rest = True
            extras += [token] * (i + 1 == len(argv) and (not name or name[0] == "-"))
            continue
        if option and not pending and "=" not in token:
            pending = option
            continue
        name = pending or option or option is None and next(names, None)
        text, pending = token.partition("=")[2] if option else token, None
        if not name:
            extras.append(token)
            continue
        convert, choices = (options.get(name) or positionals[name])[:2]
        try:
            value = convert(text)
        except ValueError as e:
            _usage_exit(command, f"argument {name}: {e}")
        if choices and value not in choices:
            _usage_exit(command,
                        f"argument {name}: invalid choice: {value!r} (choose from {', '.join(choices)})")
        if not command:  # argparse reads every option name up to the subcommand's "--" first
            command, (handler, positionals, options) = value, _COMMANDS[value]
            names = iter(positionals)
            for later in itertools.takewhile("--".__ne__, argv[i + 1:]):
                _option(later, options, command)
        values[name.lstrip("-")] = value
    missing = [*names, *(o for o, s in options.items() if s[3] and o[2:] not in values)]
    if pending or missing or extras:
        _usage_exit(command, f"argument {pending}: expected one argument" if pending else
                    f"the following arguments are required: {', '.join(missing)}" if missing else
                    f"unrecognized arguments: {' '.join(extras)}")
    for option, (convert, _, default, _) in options.items():
        if option[2:] not in values:  # a string default is converted only here
            values[option[2:]] = convert(default) if isinstance(default, str) else default
    return handler, SimpleNamespace(**values, usage_error=lambda message: _usage_exit(command, message))


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except _UnwritableError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidInstanceError, InvalidDecisionTreeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (ResourceLimitError, InfeasibleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> NoReturn:
    """The program: ``python -m treesearch.cli`` and the ``treesearch`` script. It runs ``main()``,
    flushes stdout and stderr, and ends the process with ``os._exit``, which skips the interpreter's
    teardown (clearing every module, then its shutdown collections over every live object): about
    7 ms of a 60 ms child on a 2-vCPU VM with Python 3.11. Usage errors and help end the same way.
    An uncaught exception still propagates, with its traceback, and the interpreter ends as usual."""
    try:
        code = main()
    except SystemExit as e:  # the reader's usage errors and help
        code = e.code
    try:
        if sys.stdout:  # None when the process started without one
            sys.stdout.flush()
    except OSError as e:
        if code != EXIT_USAGE:  # else an error, perhaps this one, is on stderr already
            print(f"error: cannot write stdout: {e}", file=sys.stderr)
            code = EXIT_USAGE
    if sys.stderr:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
