"""Acceptance suite: every release gate, at its stated size and tolerance.

Each test prints one PASS line (visible with `pytest -s` or on failure);
the gates are:

  1. golden file-handling programs produce the frozen stdout, under 1 s each
  2. `|` truth table over >= 500 generated operand pairs, zero tolerance
  3. erase law `G | t` over >= 500 generated goals, zero tolerance
  4. rollback purity on >= 1000 failing runs, bit-identical stores
  5. else laws over >= 500 generated goals, zero tolerance
  6. selfcheck --cases 1000 --seed 0 --max-depth 8 exits 0, < 1% exhausted
  7. parse/pretty-print round trip on >= 1000 generated programs
  8. handler matching table, including the sys-vs-usr pair
  9. byte-identical stdout and trace across repeated runs of every golden,
     matching the frozen stdout and trace
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from tci.cli import cmd_selfcheck
from tci.failure import Failure, ROOT, matches
from tci.interp import Success, eval_goal
from tci.oracle import gen_program
from tci.parser import parse_goal, parse_program
from tci.store import Store
from tci.syntax import Case, Else, Fail, TrueGoal, Union, iter_goals, pretty_print, pretty_program

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_RUNS = [
    ("filehandler_else.tc", "some.in", "filehandler_else.some.out"),
    ("filehandler_else.tc", None, "filehandler_else.empty.out"),
    ("filehandler_union.tc", "some.in", "filehandler_union.some.out"),
    ("filehandler_union.tc", None, "filehandler_union.empty.out"),
]


def tci_run(program: str, input_name: str | None, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "tci", "run", str(GOLDEN / program)]
    if input_name is not None:
        cmd += ["--input", str(GOLDEN / input_name)]
    cmd += list(extra)
    return subprocess.run(cmd, capture_output=True, timeout=30)


def fresh_store(sv, inp) -> Store:
    return Store(inp, dict(sv.bindings))


@pytest.mark.parametrize("program,input_name,expected", GOLDEN_RUNS)
def test_criterion_1_golden_programs(program, input_name, expected):
    started = time.monotonic()
    proc = tci_run(program, input_name)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / expected).read_bytes()
    assert elapsed < 1.0
    print(f"PASS criterion 1: {program} ({input_name or 'no input'}) -> frozen stdout in {elapsed:.2f}s")


def test_criterion_2_union_truth_table():
    cases = 0
    for seed in range(500):
        p1, sv, inp = gen_program(2 * seed, 5)
        p2, _, _ = gen_program(2 * seed + 1, 5)
        g1, g2 = p1.main, p2.main

        s_union = fresh_store(sv, inp)
        out_union = eval_goal(p1, s_union, Union(g1, g2))

        s_branches = fresh_store(sv, inp)
        out1 = eval_goal(p1, s_branches, g1)
        out2 = eval_goal(p1, s_branches, g2)

        expect_success = isinstance(out1, Success) or isinstance(out2, Success)
        assert isinstance(out_union, Success) == expect_success
        assert s_union.snapshot() == s_branches.snapshot()
        if not expect_success:
            assert out_union.paths == out1.paths | out2.paths
        cases += 1
    assert cases >= 500
    print(f"PASS criterion 2: union truth table holds on {cases} generated pairs")


def test_criterion_3_erase_law():
    cases = 0
    for seed in range(500):
        program, sv, inp = gen_program(seed, 6)
        store = fresh_store(sv, inp)
        out = eval_goal(program, store, Union(program.main, TrueGoal()))
        assert isinstance(out, Success), pretty_print(program.main)
        cases += 1
    assert cases >= 500
    print(f"PASS criterion 3: G | t succeeded on all {cases} generated instances")


def test_criterion_4_rollback_purity():
    failing = 0
    seed = 0
    while failing < 1000:
        program, sv, inp = gen_program(seed, 6)
        seed += 1
        assert seed < 20000, "generator produced too few failing instances"
        store = fresh_store(sv, inp)
        before = store.snapshot()
        out = eval_goal(program, store, program.main)
        if isinstance(out, Failure):
            failing += 1
            assert store.snapshot() == before, pretty_print(program.main)
    print(f"PASS criterion 4: store bit-identical after {failing} failing evaluations")


def test_criterion_5_else_laws():
    cases_t = 0
    cases_f = 0
    seed = 0
    while cases_f < 500:
        program, sv, inp = gen_program(seed, 6)
        seed += 1
        assert seed < 20000
        g = program.main

        s1 = fresh_store(sv, inp)
        out1 = eval_goal(program, s1, Else(TrueGoal(), g))
        assert isinstance(out1, Success)
        assert s1.snapshot() == (dict(sv.bindings), 0, ())
        cases_t += 1

        # (f else G) binds the handler's failure tree for G, so the law is
        # stated on goals that do not consult it
        if any(isinstance(sub, Case) for sub in iter_goals(g)):
            continue
        s2 = fresh_store(sv, inp)
        out2 = eval_goal(program, s2, Else(Fail(ROOT), g))
        s3 = fresh_store(sv, inp)
        out3 = eval_goal(program, s3, g)
        assert isinstance(out2, Success) == isinstance(out3, Success)
        if isinstance(out2, Failure):
            assert out2 == out3
        assert s2.snapshot() == s3.snapshot()
        cases_f += 1
    print(f"PASS criterion 5: else laws hold ((t else G): {cases_t} cases, (f else G): {cases_f} cases)")


def test_criterion_6_selfcheck_agreement():
    started = time.monotonic()
    report = cmd_selfcheck(cases=1000, seed=0, max_depth=8)
    elapsed = time.monotonic() - started
    assert report.exit_code == 0, report.counterexample
    assert report.exhausted / report.cases < 0.01
    assert elapsed < 60.0
    print(
        f"PASS criterion 6: selfcheck agreed on {report.agreed}/{report.cases} cases "
        f"({report.exhausted} exhausted) in {elapsed:.2f}s"
    )


def test_criterion_7_parser_round_trip():
    cases = 0
    for seed in range(1000):
        program, _, _ = gen_program(seed, 7)
        assert parse_goal(pretty_print(program.main)) == program.main
        assert parse_program(pretty_program(program)) == program
        cases += 1
    assert cases >= 1000
    print(f"PASS criterion 7: parse(pretty_print(..)) is the identity on {cases} generated programs")


def test_criterion_8_handler_matching_table():
    def tree(*texts):
        return Failure(frozenset(texts))

    table = [
        ("/F", tree("/F/usr/EOF"), True),  # root catches everything
        ("/F", tree("/F"), True),
        ("/F/usr/EOF", tree("/F/usr/EOF"), True),  # exact
        ("/F/usr", tree("/F/usr/EOF"), True),  # ancestor
        ("/F/sys", tree("/F/usr/EOF"), False),  # disjoint
        ("/F/usr/EOF", tree("/F/usr"), False),  # handler more specific than the failure
        ("/F/sys", tree("/F/sys/test", "/F/usr/EOF"), True),  # any path may match
        ("/F/usr/a", tree("/F/sys/test", "/F/usr/EOF"), False),
    ]
    for handler, t, expected in table:
        assert matches(handler, t) == expected, (handler, t)
    print(f"PASS criterion 8: handler matching table ({len(table)} rows)")


@pytest.mark.parametrize("program,input_name,expected", GOLDEN_RUNS)
def test_criterion_9_determinism(program, input_name, expected):
    first = tci_run(program, input_name, "--trace")
    second = tci_run(program, input_name, "--trace")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    assert first.stdout == (GOLDEN / expected).read_bytes()
    assert first.stderr == (GOLDEN / expected).with_suffix(".trace").read_bytes()
    print(f"PASS criterion 9: {program} ({input_name or 'no input'}) byte-identical across runs")
