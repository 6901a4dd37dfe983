"""Command-line driver: run programs, lint them, cross-check the evaluator.

Exit codes: 0 success (and `-h`/`--help`), 1 the program failed, 2
lex/parse error, bad input file or usage error, 3 internal error.
Results go to stdout; traces, warnings, and error messages go to stderr.
A usage error prints the usage and a one-line reason to stderr.
"""

from __future__ import annotations

import re
import sys

from .failure import Failure, render
from .interp import (
    Budget,
    DEFAULT_MAX_STEPS,
    Success,
    eval_goal,
    format_binding,
    render_trace,
    run_main,
)
from .parser import SourceError, decimal_int, parse_program
from .store import Store, Value
from .syntax import Program, Span, pretty_program, pretty_print, shared_union_vars, span_bounds

EXIT_SUCCESS = 0
EXIT_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_STATUS_CODES = {
    "success": EXIT_SUCCESS,
    "failure": EXIT_FAILURE,
    "parse-error": EXIT_PARSE_ERROR,
}


class RunReport:
    def __init__(self, status: str, failtree: Failure | None = None,
                 bindings: dict[str, Value] | None = None, output: list[str] | None = None,
                 steps_used: int = 0, message: str = "", trace: list | None = None):
        self.status = status
        self.failtree = failtree
        self.bindings = bindings
        self.output = [] if output is None else output
        self.steps_used = steps_used
        self.message = message
        self.trace = trace

    @property
    def exit_code(self) -> int:
        return _STATUS_CODES[self.status]


# `--input` holds ASCII decimals separated by space, tab, CR and LF
_INPUT_TOKEN = re.compile(r"[^ \t\r\n]+")
_INPUT_INTEGER = re.compile(r"-?[0-9]+")


def _read_input_file(path: str) -> list[int]:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    tokens = _INPUT_TOKEN.findall(text)
    for token in tokens:
        if not _INPUT_INTEGER.fullmatch(token):
            raise ValueError(f"not an ASCII decimal integer: {token!r}")
    return [decimal_int(token) for token in tokens]


def _load(path: str) -> Program | str:
    """The program in the file at `path`, or why it cannot be read or parsed."""
    try:
        with open(path, encoding="utf-8") as f:
            source = f.read()
    except (OSError, UnicodeDecodeError) as err:
        return f"cannot read {path}: {err}"
    try:
        return parse_program(source)
    except SourceError as err:
        return f"{path}:{err}"


def cmd_run(path: str, input_path: str | None = None, trace: bool = False,
            max_steps: int = DEFAULT_MAX_STEPS) -> RunReport:
    program = _load(path)
    if isinstance(program, str):
        return RunReport(status="parse-error", message=program)
    input_tokens: list[int] = []
    if input_path is not None:
        try:
            input_tokens = _read_input_file(input_path)
        except (OSError, ValueError) as err:
            return RunReport(status="parse-error", message=f"bad input file {input_path}: {err}")
    budget = Budget(max_steps)
    outcome, store, records = run_main(program, input_tokens, budget=budget, trace=trace)
    if isinstance(outcome, Success):
        return RunReport(
            status="success",
            bindings=dict(store.bindings),
            output=list(store.output),
            steps_used=budget.used,
            trace=records,
        )
    return RunReport(status="failure", failtree=outcome, steps_used=budget.used, trace=records)


def _print_report(report: RunReport) -> None:
    if report.trace is not None:
        render_trace(report.trace, sys.stderr)
    if report.status == "parse-error":
        print(f"error: {report.message}", file=sys.stderr)
    elif report.status == "failure":
        print(render(report.failtree))
    elif report.status == "success":
        for name in sorted(report.bindings):
            print(format_binding(name, report.bindings[name]))
        for line in report.output:
            print(line)


def cmd_check(path: str) -> tuple[int, list[str]]:
    """Parse and lint; returns (exit code, diagnostic lines)."""
    program = _load(path)
    if isinstance(program, str):
        return EXIT_PARSE_ERROR, [f"error: {program}"]
    diagnostics = []
    goals = [d.body for _, d in sorted(program.defs.items())] + [program.main]
    for goal in goals:
        found = shared_union_vars(goal)
        if not found:
            continue
        # Flagged `|`s nest: the body is printed once, and each one's text is a slice of it.
        spans: dict[int, Span] = {}
        text = pretty_print(goal, spans)
        for node, names in found:
            start, end = span_bounds(spans[id(node)])
            diagnostics.append(f"warning: '|' branches share variables: {', '.join(names)} (in: {text[start:end]})")
    return EXIT_SUCCESS, diagnostics


class SelfcheckReport:
    def __init__(self, cases: int):
        self.cases = cases
        self.agreed = 0
        self.exhausted = 0
        self.counterexample: str | None = None

    @property
    def exit_code(self) -> int:
        return EXIT_SUCCESS if self.counterexample is None else EXIT_FAILURE


def cmd_selfcheck(cases: int = 1000, seed: int = 0, max_depth: int = 8) -> SelfcheckReport:
    """Check the evaluator against the reference semantics on generated programs."""
    # the reference semantics is loaded only here, so that `tci run` does not pay for it
    from .oracle import Derivable, DepthExhausted, NotDerivable, derive_bounded, gen_program

    report = SelfcheckReport(cases=cases)
    for i in range(cases):
        program, store_val, input_tokens = gen_program(seed + i)
        reference = derive_bounded(program, store_val, program.main, max_depth)
        if isinstance(reference, DepthExhausted):
            report.exhausted += 1
            continue
        store = Store(input_tokens, dict(store_val.bindings))
        outcome = eval_goal(program, store, program.main)
        if isinstance(reference, Derivable) and isinstance(outcome, Success):
            final = reference.store
            same = (
                final.bindings == store.bindings
                and final.cursor == store.cursor
                and final.output == tuple(store.output)
            )
            if same:
                report.agreed += 1
                continue
            detail = (
                f"final stores differ\n  reference: {final}\n  evaluator: "
                f"bindings={store.bindings!r} cursor={store.cursor} output={tuple(store.output)!r}"
            )
        elif isinstance(reference, NotDerivable) and isinstance(outcome, Failure):
            if reference.tree == outcome:
                report.agreed += 1
                continue
            detail = (
                f"failure trees differ\n  reference: {sorted(reference.tree.paths)}"
                f"\n  evaluator: {sorted(outcome.paths)}"
            )
        else:
            ref_text = "derivable" if isinstance(reference, Derivable) else "not derivable"
            out_text = "success" if isinstance(outcome, Success) else "failure"
            detail = f"reference says {ref_text}, evaluator says {out_text}"
        report.counterexample = (
            f"disagreement on case {i} (seed {seed + i}):\n"
            f"{pretty_program(program)}"
            f"initial bindings: {store_val.bindings!r}\n"
            f"input: {list(input_tokens)!r}\n"
            f"{detail}"
        )
        break
    return report


USAGE = f"""\
usage: tci run FILE [--input FILE] [--trace] [--max-steps N]
       tci check FILE
       tci selfcheck [--cases N] [--seed N] [--max-depth N]

Interpreter for TC (.tc files): statements succeed or fail, failing
statements roll back, and failures are handled by kind.

  run          parse and execute a program
  check        parse and lint a program without running it
  selfcheck    compare the evaluator against the reference semantics

  --input FILE     whitespace-separated integers for read()
  --trace          print the evaluation trace to stderr
  --max-steps N    step budget before the run fails with /F/sys/depth (default {DEFAULT_MAX_STEPS})
  --cases N        generated programs to check (default 1000)
  --seed N         seed of the first program (default 0)
  --max-depth N    depth bound of the reference search (default 8)
  -h, --help       print this text
"""


class UsageError(Exception):
    """A command line that `COMMANDS` does not accept; the message says why."""


def _count(text: str) -> int:
    """The value of an option that counts something: an integer, 0 or more."""
    value = int(text)
    if value < 0:
        raise UsageError(f"must be 0 or more, not {text!r}")
    return value


# command -> (whether it takes FILE, {option: (converter, default)}); a flag has no converter
COMMANDS = {
    "run": (True, {"--input": (str, None), "--trace": (None, False), "--max-steps": (_count, DEFAULT_MAX_STEPS)}),
    "check": (True, {}),
    "selfcheck": (False, {"--cases": (_count, 1000), "--seed": (int, 0), "--max-depth": (_count, 8)}),
}


def _is_option(arg: str) -> bool:
    return arg.startswith("-") and arg != "-" and not arg[1:].isdigit()


def parse_args(argv: list[str]) -> tuple[str, str | None, dict]:
    """(command, FILE or None, {option: value}) from `tci`'s arguments.

    An option takes its value as `--opt value` or `--opt=value`, and
    options may come before or after FILE; the last of a repeated option
    wins.  Option names are matched in full.
    """
    if not argv:
        raise UsageError("no command given")
    command, *rest = argv
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    takes_file, table = COMMANDS[command]
    values = {name: default for name, (_, default) in table.items()}
    files = []
    args = iter(rest)
    for arg in args:
        if not _is_option(arg):
            files.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in table:
            raise UsageError(f"unknown option {name!r} for {command}")
        convert = table[name][0]
        if convert is None:
            if eq:
                raise UsageError(f"{name} takes no value")
            values[name] = True
            continue
        if not eq:
            value = next(args, None)
            if value is None or _is_option(value):
                raise UsageError(f"{name} needs a value")
        try:
            values[name] = convert(value)
        except ValueError:
            raise UsageError(f"{name} needs an integer, not {value!r}") from None
        except UsageError as err:
            raise UsageError(f"{name} {err}") from None
    if len(files) > takes_file:
        raise UsageError(f"unexpected argument {files[takes_file]!r}")
    if len(files) < takes_file:
        raise UsageError(f"{command} needs a FILE")
    return command, files[0] if files else None, values


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return EXIT_SUCCESS
    try:
        command, path, options = parse_args(argv)
    except UsageError as err:
        print(f"{USAGE}tci: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    # the evaluator nests host frames with non-tail recursion and nested
    # expressions; give it headroom (the parser keeps its own stacks and
    # needs none)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
    # TC integers are unbounded: literals and printed values of any length
    # convert (Python 3.11, and 3.10 from 3.10.7, cap the conversion at 4300 digits)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        if command == "run":
            report = cmd_run(path, options["--input"], options["--trace"], options["--max-steps"])
            _print_report(report)
            return report.exit_code
        if command == "check":
            code, diagnostics = cmd_check(path)
            for line in diagnostics:
                print(line, file=sys.stderr)
            return code
        if command == "selfcheck":
            report = cmd_selfcheck(options["--cases"], options["--seed"], options["--max-depth"])
            print(
                f"selfcheck: cases={report.cases} agreed={report.agreed} "
                f"depth-exhausted={report.exhausted}"
            )
            if report.counterexample is not None:
                print(report.counterexample)
            return report.exit_code
        raise AssertionError(f"unhandled command {command!r}")
    except Exception as err:  # noqa: BLE001 - last-resort boundary for exit code 3
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
