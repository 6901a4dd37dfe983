"""Check that `tci`'s commands and command line behave the same here and in another checkout.

    python3 tools/same_as.py OTHER_CHECKOUT

Both source trees make the same calls, each tree in its own subprocess
with PYTHONHASHSEED=0.  A call is compared on its exit code, stdout,
stderr (the `--trace` lines, the lint's warnings, or `path:line:col:
message` for a source error) and, for `tci run`, steps used
(`Budget.used`).  The programs, each run once without and once with
`--trace`, and each checked once:

- `gen_program` seeds 0-2999 at size 8 with `--max-steps 5000`, the
  initial bindings assigned at the start of main;
- every op of the four bench workloads at seed 1;
- the golden programs on each golden input;
- `RECURSIONS`: a tail-recursive sum, a non-tail recursion and a
  2,000-statement `;` chain, with `--max-steps 2000` so that the budget
  runs out in the middle of each;
- `UNIONS`: 500-way `|` chains whose operands succeed, fail, or edit
  the store and print before they fail, and a short mixed chain, used
  as a procedure body and as an `else`'s tried operand, run at every
  budget in `UNION_BUDGETS`, so that the budget runs out at each spine
  `|` and each operand in turn;
- `FAILURE_PATHS`: `f(a)` beside `f(ab)` under arms `/F/usr/a` and
  `/F/usr/ab` (one path a string prefix of the other but not a segment
  prefix), a rooted `f(/F/sys/test)`, keyword segments `f(t/case)`, a
  `case` with no matching arm, which fails with the ambient failure, a
  3,000-segment path, and both spellings of a `/G/x` path, which are
  parse errors;
- `GUARDS`: an `else` whose tried operand starts with a test over a
  parameter, a variable, a string or an unbound variable, two such tests
  chained, a guard that holds before the rest edits, prints and fails,
  `|` chains of `f` among operands that edit, and the tests that are no
  guards (a call or a `read()` in an operand, an assignment before the
  test), each as a procedure body and in main, on the input `1 2`, run
  at every budget from 0 to the steps it needs, so that the budget runs
  out at each `else`, `;`, test and `f` operand in turn;
- `LONG_SOURCES`: sources of many of the tokenizer's chunks, whose parse
  releases the tokens it has read: a 4,000-statement chain in main and as
  a body, CRLF line ends with comments, a line longer than a chunk, no
  final newline, and late errors (a bad token, a bad character, an
  unclosed parenthesis, a duplicate definition and an assigned parameter
  after a long body, a `/G/x` path, no `main` after 500 definitions),
  each run without `--trace` and checked.

and, run without `--trace` at the default budget and checked, each of
`RECURSIONS`, sized to finish at the CLI's recursion limit of 20,000
also when every call and every `;` step holds host frames (a traced
run of the sum would write 32 MB);

and, run without `--trace` and checked, a corpus of mostly malformed
sources, so that a change in lex and parse errors shows: the program
text of each of `gen_program` seeds 0-1499 at size 8 cut short, given
one extra token at a space, and missing one character, each choice drawn
from `random.Random(7)`; and `LEXICAL_EDGE_CASES`, a fixed handful of
sources with CRLF line ends, tabs, comments, `-N` after a value and
after an operator, `/` between names, `-` after a `;`, a double minus,
strings closed and not, paths with keyword segments or spaces around a
`/`, and non-ASCII characters, each on a later line; and
`PARAMETER_RULES`, sources that break the rules on a definition's
parameters or come near them: duplicate parameters, an assignment to a
parameter in a `case` arm, an `else` handler, parentheses and a `|`
operand, a parameter's name assigned in main, an assignment to a
parameter followed by a syntax error, and a duplicate parameter that
the body also assigns.  Last, `tci selfcheck --cases 2000` at
seeds 0 and 2000, compared on exit code and stdout (its report and any
counterexample).  Then `COMMAND_LINES`: usage errors (negative counts
among them), `-h`, and options given as `--opt=value` and before FILE,
each compared on exit code, stdout and stderr (a `SystemExit` from
`cli.main` counts as its exit code).

That is 19,642 calls.  The program files are written once, by this
checkout.  Each differing call's label and first difference are printed,
then `N of M calls differ:` and a summary of them: the differing calls
counted by call kind (the label with its numbers dropped) and by the
field that first differs.  For stderr the summary also gives the first
differing line on each side, the other tree's first, with any
`path:line:col: ` prefix dropped, as in `gen_program seed N cut check,
stderr: expected a statement → expected ')': 30`.  The exit code is
then 1; exit code 0 means every call agreed.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from tci.interp import Budget, run_main  # noqa: E402
from tci.oracle import gen_program  # noqa: E402
from tci.parser import parse_program  # noqa: E402
from tci.syntax import Assign, IntLit, Program, Seq, StrLit, pretty_program  # noqa: E402

GEN_SEEDS = range(3000)
GEN_SIZE = 8
GEN_MAX_STEPS = 5000
MALFORMED_SEEDS = range(1500)
MALFORMED_RNG_SEED = 7
# one of these is put into a program at a space
EXTRA_TOKENS = ("(", ")", ";", "|", "else", "t", "f", "=", "==", "<", "+", "-", "*", "/", ",", "{", "}",
                ":", "x", "1", "-1", "case", "Failtree", "_", "/F/usr/a", '"s"', "main", "read", "?")
# what pretty-printed programs never hold, each past the first line
LEXICAL_EDGE_CASES = (
    "main x = 1;\r\n\ty = x -1;\r\n\tz = -2 * (y) -3 // comment\r\n",
    'main x = "a\tb";\n\n  y = "s" ;\n  z = "oops\n',
    'main x = 1;\n\ty = 2 // "not a string\n\tx = "',
    "main x = 1;\n// é in a comment\n\ty = é\n",
    "main x = 1;\r\n  y = 2 ? 3\r\n",
    "p() = f(a/b)\r\nmain p() else\r\n\tcase Failtree of { /F/usr/a/b: x = 2 -3; _: t }",
    "main t\n// only a comment at the end",
    "main x = 1;\n\t(x) -1 == 0 | x == -1\n",
    "main a = 6;\n\tb = 3; x = a/b\n",
    "main a = 2; b = 2;\n\t(a)/b == 1\n",
    "main x = 1;\n\tx = -1; - 1 == x\n",
    "main x = 1;\n\ty = --1\n",
    "main t;\n\tf(t) else t\n",
    "main t;\n\tf(a / t) else case Failtree of { /F/usr/a/t: t }\n",
    "main t;\n\tf(/F/sys/case) else\n\tcase Failtree of { /F/sys/case: x = 1; _: t }\n",
)
PARAMETER_RULES = (
    "q() = t\n  p(n, m, n) = t\nmain p(1, 2, 3)\n",
    "q() = t\n  p(m, n) = f else case Failtree of { /F/usr/a: t; /F: n = 1; _: t }\nmain p(1, 2)\n",
    "q() = t\n  p(m, n) = t else (x = 1; n = x)\nmain p(1, 2)\n",
    "q() = t\n  p(m, n) = ((t; (n = 2)))\nmain p(1, 2)\n",
    "q() = t\n  p(m, n) = x = 1 | n = 2 | m = 3\nmain p(1, 2)\n",
    "p(n) = ret = n + 1\nh(m) = n = m\nmain n = 1; p(n); h(n); x = n\n",
    "q() = t\n  p(n) = n = 1; (t\nmain p(1)\n",
    "q() = t\n  p(n, n) = n = 1\nmain p(1, 2)\n",
)
RECURSIONS = {
    "tail-recursive sum": "sum(n, acc) = (n == 0; ret = acc) else sum(n - 1, acc + n)\nmain sum(2000, 0)\n",
    "non-tail recursion": "p(n) = (n == 0; ret = 0) else (p(n - 1); ret = ret + n)\nmain p(1000)\n",
    "2,000-statement chain": "main " + "; ".join(f"x{i} = {i}" for i in range(2000)) + "\n",
}
RECURSION_MAX_STEPS = 2000
# `|` chains: wide ones whose operands succeed, fail, or edit and then
# fail, and a short mixed one run at every budget in `UNION_BUDGETS`, so
# that the budget runs out at each spine union and each operand in turn
UNIONS = {
    "succeeding": "main " + " | ".join(f"x{i} = {i}" for i in range(500)) + "\n",
    "failing": "main " + " | ".join(f"f(a{i % 7}/b{i})" for i in range(500)) + "\n",
    "partly editing": "main x = 0; ("
    + " | ".join(f"z = x + {i}" if i % 50 == 49 else f"(x = x + {i}; print(x); f(e{i % 40}))" for i in range(500))
    + ")\n",
    "mixed": "p(n) = x = n | f(a) | (y = n; f(b)) | z = n + 1 | f(c)\n"
    "main p(1); ((f(d) | (w = 1; f(e)) | f(d)) else t); (f(g) | t | (v = 2; f(h)) | f(i))\n",
}
UNION_BUDGETS = range(1, 45)
FAILURE_PATHS = {
    "string-prefix arms": "main (f(a) else case Failtree of { /F/usr/ab: x = 1; /F/usr/a: x = 2 });\n"
    "  (f(ab) else case Failtree of { /F/usr/a: y = 1; /F/usr/ab: y = 2 });\n"
    "  (f(ab) else case Failtree of { /F/usr/a: z = 1; _: z = 2 });\n"
    "  f(a) | f(ab) | f(a/b)\n",
    "rooted path": "main (f(/F/sys/test) else case Failtree of { /F/sys: x = 1 }); f(/F/sys/test)\n",
    "keyword segments": "main (f(t/case) else case Failtree of { /F/usr/t/case: x = 1 }); f(t/case)\n",
    "no matching arm": "main (f(a) | f(b/c)) else case Failtree of { /F/usr/z: t; /F/sys: t }\n",
    "3,000-segment path": "main " + "f(" + "/".join(["a"] * 3000) + ")\n",
    "unrooted call path": "main f(/G/x)\n",
    "unrooted arm path": "main f else case Failtree of { /G/x: t }\n",
}
GUARDS = {
    "parameter guard": "p(n) = (n == 0; x = n) else y = n\nmain p(0); p(1); n = 2; ((n < 3; z = n) else w = n)\n",
    "variable guard": "p() = (v == 1; x = v) else y = v\nmain v = 1; p(); v = 4; p(); ((v >= 4; z = v) else w = 0)\n",
    "string guard": 'p(s) = (s == "a"; x = 1) else x = 2\nmain p("a"); p("b"); s = "c"; ((s != "c"; y = 1) else y = 2)\n',
    "unbound guard": "p() = (u == 1; x = 1) else case Failtree of { /F/sys/unbound: x = 2 }\n"
    "main p(); ((u > 0; y = 1) else y = 2); u = 1; p()\n",
    "chained guards": "p(n) = (n > 0; n < 5; x = n) else x = 0\n"
    "main p(3); p(7); p(0); m = 2; ((m > 0; m < 5; y = m) else y = 0)\n",
    "failing rest": "p(n) = (n == 0; x = 1; f(e)) else case Failtree of { /F/usr/e: y = x }\n"
    "main x = 5; p(0); ((x == 5; x = 6; print(x); f(g)) else print(x))\n",
    "f operands": "p(n) = f(a) | (x = n; f(b)) | f(c) | y = n | f(d)\n"
    "main p(1); ((f(e) | f(g) | (z = 1; print(z); f(h))) else t); ((f(i) | f(j)) else case Failtree of { /F/usr/i: w = 1 })\n",
    "no guard": "g(n) = ret = n\nh() = (g(5) == 0; t) else t\nk() = (read() == 5; t) else x = read()\n"
    "main ret = 1; h(); ((g(5) == 0; t) else t); k(); ((read() == 5; t) else y = read()); ((z = 1; ret == 0; t) else t)\n",
}
GUARD_INPUT = (1, 2)
# sources of many of the tokenizer's chunks, whose parse releases the tokens
# it has read before it ends: valid ones, and ones with an error late in them
_CHAIN = ";\n".join(f"  v{i % 50} = v{(i + 1) % 50} + {i % 7} * 45" for i in range(4000))
_ZEROS = "; ".join(f"v{i} = 0" for i in range(50))
LONG_SOURCES = {
    "long chain": f"main {_ZEROS};\n{_CHAIN}\n",
    "long body": f"p(n) = {_ZEROS};\n{_CHAIN};\n  ret = v1 + n\nmain p(2); x = ret\n",
    "CRLF and comments": f"main {_ZEROS};\r\n" + _CHAIN.replace(";\n", "; // c\r\n") + "\r\n// only a comment\r\n",
    "line longer than a chunk": f"main {_ZEROS};\n  x = " + " + ".join(map(str, range(3000))) + "\n",
    "no final newline": f"main {_ZEROS};\n{_CHAIN}",
    "bad token late": f"main {_ZEROS};\n{_CHAIN};\n  v1 = = 2\n",
    "bad character late": f"main {_ZEROS};\n{_CHAIN};\n  v1 = 2 ? 3\n",
    "unclosed parenthesis late": f"main {_ZEROS};\n{_CHAIN};\n  (((x = 1; (t | y = 2)) }}\n",
    "duplicate definition after a long body": f"p() = {_CHAIN}\np() = {_CHAIN}\nmain t\n",
    "assigned parameter after a long body": f"q() = {_CHAIN}\np(u) = {_CHAIN};\n  u = 1\nmain p(1)\n",
    "unrooted path late": f"main {_ZEROS};\n{_CHAIN};\n  f(/G/x)\n",
    "no main after 500 definitions": "".join(f"p{i}(a) = x = a + {i}; y = x * 2\n" for i in range(500)),
}
# command lines, FILE standing for a three-statement program run in five
# steps: usage errors, help, and options spelled and placed each way
COMMAND_LINES = (
    [], ["bogus"], ["run", "FILE", "--bogus"], ["run"], ["check"], ["run", "FILE", "FILE"],
    ["check", "FILE", "FILE"], ["run", "FILE", "--max-steps"], ["run", "FILE", "--max-steps", "x"],
    ["selfcheck", "--cases"], ["selfcheck", "--cases", "x"], ["run", "FILE", "--trace=1"], ["-h"],
    ["run", "FILE", "--max-steps=4"], ["run", "--max-steps", "4", "FILE"], ["run", "--trace", "FILE", "--max-steps=5"],
    ["run", "FILE", "--max-steps", "-5"], ["selfcheck", "--cases", "-3"], ["selfcheck", "--max-depth", "-1", "--cases", "2"],
)
WORKLOAD_SEED = 1
WORKLOAD_OPS = 64  # bench/run.py's pool
SELFCHECK_SEEDS = (0, 2000)
SELFCHECK_CASES = 2000

# Runs in a subprocess on one tree: reads a JSON list of `tci` argument lists
# and prints one JSON line [exit code, stdout, stderr, steps] per call.
_DRIVER = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from tci import cli

steps = []
run = cli.cmd_run

def cmd_run(*args, **kwargs):
    report = run(*args, **kwargs)
    steps.append(report.steps_used)
    return report

cli.cmd_run = cmd_run
with open(sys.argv[1]) as f:
    calls = json.load(f)
for argv in calls:
    out, err = io.StringIO(), io.StringIO()
    steps.clear()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # a usage error or `-h`, from a tree whose parser exits
        code = exc.code
    print(json.dumps([code, out.getvalue(), err.getvalue(), steps[:1]]), flush=True)
"""

FIELDS = ("exit code", "stdout", "stderr", "steps")


def write_calls(work: Path) -> list[tuple[str, list[str]]]:
    """(label, `tci` arguments) for every call, with the files they name written to `work`."""
    calls = []

    def add(label: str, program: str, input_tokens, extra: list[str], traced: bool = True) -> None:
        path = work / f"{len(calls)}.tc"
        path.write_text(program, encoding="utf-8")
        argv = ["run", str(path), *extra]
        if input_tokens is not None:
            data = work / f"{len(calls)}.in"
            data.write_text(" ".join(map(str, input_tokens)) + "\n", encoding="utf-8")
            argv += ["--input", str(data)]
        calls.append((label, argv))
        if traced:
            calls.append((label + " --trace", argv + ["--trace"]))
        calls.append((label + " check", ["check", str(path)]))

    for seed in GEN_SEEDS:
        program, store, input_tokens = gen_program(seed, GEN_SIZE)
        main = program.main
        for name, value in reversed(store.bindings.items()):
            literal = StrLit(value) if isinstance(value, str) else IntLit(value)
            main = Seq(Assign(name, literal), main)
        text = pretty_program(Program(program.defs, main))
        add(f"gen_program seed {seed}", text, input_tokens, ["--max-steps", str(GEN_MAX_STEPS)])
    rng = random.Random(MALFORMED_RNG_SEED)
    for seed in MALFORMED_SEEDS:
        text = pretty_program(gen_program(seed, GEN_SIZE)[0])
        for how, source in malformed(text, rng):
            add(f"gen_program seed {seed} {how}", source, None, ["--max-steps", str(GEN_MAX_STEPS)], traced=False)
    for i, source in enumerate(LEXICAL_EDGE_CASES):
        add(f"lexical edge case {i}", source, None, [], traced=False)
    for i, source in enumerate(PARAMETER_RULES):
        add(f"parameter rule {i}", source, None, [], traced=False)
    for name in workloads.WORKLOADS:
        for i, op in enumerate(workloads.generate(name, WORKLOAD_SEED, WORKLOAD_OPS)):
            add(f"{name} op {i}", op.source, op.input, [])
    golden = ROOT / "tests" / "golden"
    for program in sorted(golden.glob("*.tc")):
        for data in sorted(golden.glob("*.in")):
            text = program.read_text(encoding="utf-8")
            add(f"{program.name} < {data.name}", text, data.read_text(encoding="utf-8").split(), [])
    for name, source in RECURSIONS.items():
        add(f"{name}, budget {RECURSION_MAX_STEPS}", source, None, ["--max-steps", str(RECURSION_MAX_STEPS)])
        add(name, source, None, [], traced=False)
    for name, source in UNIONS.items():
        add(f"{name} union chain", source, None, [])
    for steps in UNION_BUDGETS:
        add(f"mixed union chain, budget {steps}", UNIONS["mixed"], None, ["--max-steps", str(steps)])
    for name, source in FAILURE_PATHS.items():
        add(f"failure path: {name}", source, None, [])
    for name, source in LONG_SOURCES.items():
        add(f"long source: {name}", source, None, [], traced=False)
    for name, source in GUARDS.items():
        budget = Budget()
        run_main(parse_program(source), GUARD_INPUT, budget)
        for steps in range(budget.used + 1):
            add(f"{name}, budget {steps}", source, GUARD_INPUT, ["--max-steps", str(steps)])
    for seed in SELFCHECK_SEEDS:
        calls.append((f"selfcheck seed {seed}", ["selfcheck", "--cases", str(SELFCHECK_CASES), "--seed", str(seed)]))
    program = work / "command_line.tc"
    program.write_text("main x = 1; y = 2; z = 3\n", encoding="utf-8")
    for argv in COMMAND_LINES:
        argv = [str(program) if arg == "FILE" else arg for arg in argv]
        calls.append((f"command line {' '.join(['tci', *argv])!r}", argv))
    return calls


def malformed(text: str, rng: random.Random) -> list[tuple[str, str]]:
    """`text` cut short, given one extra token at a space, and missing one character."""
    cut = rng.randrange(1, len(text))
    at = rng.choice([j for j, c in enumerate(text) if c == " "] or [0])
    token = rng.choice(EXTRA_TOKENS)
    gone = rng.randrange(len(text))
    return [
        ("cut", text[:cut]),
        ("extra token", text[:at] + " " + token + text[at:]),
        ("missing character", text[:gone] + text[gone + 1:]),
    ]


def start(tree: Path, calls_file: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, "-c", _DRIVER, str(calls_file)], env=env, stdout=subprocess.PIPE, text=True
    )


def first_difference(mine: list, theirs: list) -> tuple[str, str, str] | None:
    """The first field in which two calls' results differ, as (field, what differs, the
    first differing line on each side without its source position), or None."""
    for field, a, b in zip(FIELDS, mine, theirs):
        if a == b:
            continue
        if isinstance(a, str):
            a_lines, b_lines = a.splitlines(), b.splitlines()
            for j, (x, y) in enumerate(zip(a_lines, b_lines)):
                if x != y:
                    pair = f"{_POSITION.sub('', y)} → {_POSITION.sub('', x)}"
                    return field, f"{field} line {j + 1}:\n  this:  {x!r}\n  other: {y!r}", pair
            return field, f"{field}: {len(a_lines)} lines here, {len(b_lines)} in the other tree", ""
        return field, f"{field}: {a!r} here, {b!r} in the other tree", ""
    return None


# the `path:line:col: ` before a source error's message
_POSITION = re.compile(r"^.*?:\d+:\d+: ")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_as.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "tci").is_dir():
        print(f"same_as: no src/tci under {other}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        calls = write_calls(work)
        calls_file = work / "calls.json"
        calls_file.write_text(json.dumps([argv for _, argv in calls]), encoding="utf-8")
        procs = [start(ROOT, calls_file), start(other, calls_file)]
        compared = 0
        kinds: Counter[str] = Counter()
        try:
            for (label, _), line_a, line_b in zip(calls, procs[0].stdout, procs[1].stdout):
                diff = first_difference(json.loads(line_a), json.loads(line_b))
                if diff is not None:
                    field, text, pair = diff
                    print(f"same_as: {label} differs from {other}\n{text}")
                    if field == "stderr" and pair:
                        field += f": {pair}"
                    kinds[f"{re.sub(r'[0-9]+', 'N', label)}, {field}"] += 1
                compared += 1
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
        if compared < len(calls):
            print(f"same_as: a driver stopped after {compared} of {len(calls)} calls", file=sys.stderr)
            return 1
    if kinds:
        print(f"same_as: {kinds.total()} of {len(calls)} calls differ:")
        for kind, count in kinds.most_common():
            print(f"  {kind}: {count}")
        return 1
    print(f"same_as: {len(calls)} calls agree with {other}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
