import dis
import inspect
import random
import re
import sys
import tracemalloc

import pytest

from conftest import EMPTY_PROGRAM, GOLDEN_DIR, make_store, recursive_pretty, run

from tci import interp, syntax
from tci.cli import main
from tci.failure import (
    ROOT,
    SYS_CASE,
    SYS_DEPTH,
    SYS_DIV0,
    SYS_TEST,
    SYS_UNBOUND,
    SYS_UNDEF,
    Failure,
    throw,
)
from tci.interp import Budget, Evaluator, Success, eval_goal, run_main, trace_lines
from tci.oracle import Derivable, DepthExhausted, derive_bounded, gen_program
from tci.parser import parse_goal, parse_program
from tci.store import Store
from tci.syntax import Else, Seq, Span, TrueGoal, Union, iter_goals, pretty_print


def capped(text: str) -> str:
    """`text` as a trace line shows it: its first 157 characters and `...` when it is longer than 160."""
    return text if len(text) <= 160 else text[:157] + "..."


def indent(line: str) -> int:
    """The number of steps open around a trace line's step."""
    return (len(line) - len(line.lstrip(" "))) // 2


def last_child(lines: list[str], at: int) -> int | None:
    """The index of the last line directly under line `at`, or None when it has none."""
    depth, last = indent(lines[at]), None
    for j in range(at + 1, len(lines)):
        d = indent(lines[j])
        if d <= depth:
            break
        if d == depth + 1:
            last = j
    return last


GOLDEN_ELSE = """
openfile() = t
readfile() = (read() != -1) else f(EOF)
factorial(n) = (n == 0; ret = 1) else (m = factorial(n - 1); ret = n * m)

main
  (openfile(); readfile()
    else case Failtree of {
      /F/sys: print("system failure");
      /F/usr/EOF: print("end of input")
    });
  x = factorial(4)
"""

GOLDEN_UNION = """
openfile() = t
readfile() = (read() != -1) else f(EOF)
factorial(n) = (n == 0; ret = 1) else (m = factorial(n - 1); ret = n * m)

main
  (openfile(); readfile()) | x = factorial(4)
"""


def failure_paths(outcome):
    assert isinstance(outcome, Failure)
    return set(outcome.paths)


class TestGoalForms:
    def test_true_succeeds_unchanged(self):
        out, store = run(parse_goal("t"))
        assert isinstance(out, Success) and store.snapshot() == ({}, 0, ())

    def test_fail_second_branch_rescues(self):
        out, _ = run(parse_goal("f | t"))
        assert isinstance(out, Success)

    def test_fail_first_branch_rescued_by_first(self):
        out, _ = run(parse_goal("t | f"))
        assert isinstance(out, Success)

    def test_both_branches_fail(self):
        out, _ = run(parse_goal("f | f"))
        assert failure_paths(out) == {"/F"}

    def test_both_fail_trees_merge(self):
        out, _ = run(parse_goal("f(EOF) | f(/F/sys/test)"))
        assert failure_paths(out) == {"/F/usr/EOF", "/F/sys/test"}

    def test_union_threads_state(self):
        out, store = run(parse_goal("(x = 1) | (y = 2)"))
        assert isinstance(out, Success)
        assert store.bindings == {"x": 1, "y": 2}

    def test_else_rolls_back_before_handler(self):
        out, store = run(parse_goal("(x = 5; f) else t"), bindings={"x": 0})
        assert isinstance(out, Success)
        assert store.bindings == {"x": 0}

    def test_seq_failure_rolls_back_first_half(self):
        out, store = run(parse_goal("x = 1; f"))
        assert isinstance(out, Failure)
        assert store.bindings == {}

    def test_assignment_binds(self):
        out, store = run(parse_goal("x = 2 + 3"))
        assert isinstance(out, Success) and store.bindings == {"x": 5}

    def test_test_success_and_failure(self):
        out, _ = run(parse_goal("1 < 2"))
        assert isinstance(out, Success)
        out, _ = run(parse_goal("2 < 1"))
        assert failure_paths(out) == {SYS_TEST}

    def test_string_equality_tests(self):
        out, _ = run(parse_goal('x == "a"'), bindings={"x": "a"})
        assert isinstance(out, Success)
        out, _ = run(parse_goal('x != "b"'), bindings={"x": "a"})
        assert isinstance(out, Success)
        # strings have no order: an ordering test fails even where it would hold
        for relop in ("<", "<=", ">", ">="):
            out, _ = run(parse_goal(f'x {relop} "a"'), bindings={"x": "a"})
            assert failure_paths(out) == {SYS_TEST}
            out, _ = run(parse_goal(f'"a" {relop} "b"'))
            assert failure_paths(out) == {SYS_TEST}

    def test_mixed_type_comparison_fails(self):
        out, _ = run(parse_goal('1 == "a"'))
        assert failure_paths(out) == {SYS_TEST}

    def test_undefined_procedure(self):
        out, _ = run(parse_goal("nosuch()"))
        assert failure_paths(out) == {SYS_UNDEF}

    def test_unbound_variable(self):
        out, _ = run(parse_goal("x = y"))
        assert failure_paths(out) == {SYS_UNBOUND}


class TestCase:
    def test_case_outside_handler_fails(self):
        out, _ = run(parse_goal("case Failtree of { /F: t }"))
        assert failure_paths(out) == {SYS_CASE}

    def test_first_matching_arm_wins(self):
        g = parse_goal("f(EOF) else case Failtree of { /F/usr: x = 1; /F/usr/EOF: x = 2 }")
        out, store = run(g)
        assert isinstance(out, Success) and store.bindings == {"x": 1}

    def test_default_arm(self):
        g = parse_goal("f(EOF) else case Failtree of { /F/sys: x = 1; _: x = 2 }")
        out, store = run(g)
        assert isinstance(out, Success) and store.bindings == {"x": 2}

    def test_no_match_refails_with_original_tree(self):
        g = parse_goal("f(EOF) else case Failtree of { /F/sys: t }")
        out, _ = run(g)
        assert failure_paths(out) == {"/F/usr/EOF"}

    def test_tree_consumed_by_matching_arm(self):
        # inside the arm body there is no ambient tree any more
        g = parse_goal("f(EOF) else case Failtree of { /F: case Failtree of { /F: t } }")
        out, _ = run(g)
        assert failure_paths(out) == {SYS_CASE}

    def test_handler_scope_is_dynamic(self):
        # a procedure called from the handler can dispatch on the tree
        src = "handle() = case Failtree of { /F/usr/EOF: x = 9 }\nmain f(EOF) else handle()"
        program = parse_program(src)
        out, store, _ = run_main(program)
        assert isinstance(out, Success) and store.bindings == {"x": 9}

    def test_nested_else_rebinds_tree(self):
        g = parse_goal(
            "f(EOF) else (f(/F/sys/test) else case Failtree of { /F/sys: x = 1; /F/usr: x = 2 })"
        )
        out, store = run(g)
        assert isinstance(out, Success) and store.bindings == {"x": 1}


class TestExpressions:
    # each expression is evaluated as the right side of `y = <expr>`
    def test_variable_arithmetic(self):
        out, store = run(parse_goal("y = x + 1"), bindings={"x": 3})
        assert isinstance(out, Success) and store.bindings["y"] == 4

    def test_division_by_zero(self):
        out, _ = run(parse_goal("y = 6 / 0"))
        assert isinstance(out, Failure)
        assert out == throw(SYS_DIV0)

    def test_division_truncates_toward_zero(self):
        for text, expected in (("7 / 2", 3), ("-7 / 2", -3), ("7 / -2", -3), ("-7 / -2", 3)):
            _, store = run(parse_goal(f"y = {text}"))
            assert store.bindings["y"] == expected, text

    def test_call_in_expression_position(self):
        out, store = run(parse_goal("y = factorial(4)"), parse_program(GOLDEN_UNION))
        assert isinstance(out, Success) and store.bindings["y"] == 24

    def test_call_without_ret_is_unbound(self):
        out, _ = run(parse_goal("y = p()"), parse_program("p() = t\nmain t"))
        assert isinstance(out, Failure) and out == throw(SYS_UNBOUND)

    def test_failed_expression_rolls_back_reads(self):
        out, store = run(parse_goal("y = read() + z"), input_tokens=[5])
        assert isinstance(out, Failure)
        assert store.cursor == 0


class TestRunMain:
    def test_trivial_program(self):
        out, store, _ = run_main(parse_program("main t"))
        assert isinstance(out, Success) and store.output == []

    def test_failing_program_flushes_nothing(self):
        out, store, _ = run_main(parse_program('main x = 1; print("x"); f(EOF)'))
        assert failure_paths(out) == {"/F/usr/EOF"}
        assert store.snapshot() == ({}, 0, ())

    def test_golden_else_form_with_input(self):
        out, store, _ = run_main(parse_program(GOLDEN_ELSE), [10, -1])
        assert isinstance(out, Success)
        assert store.bindings == {"m": 6, "ret": 24, "x": 24}
        assert store.output == []

    def test_golden_else_form_empty_input_handles_eof(self):
        out, store, _ = run_main(parse_program(GOLDEN_ELSE), [])
        assert isinstance(out, Success)
        assert store.bindings["x"] == 24
        assert store.output == ["end of input"]

    def test_golden_union_form_absorbs_failure(self):
        out, store, _ = run_main(parse_program(GOLDEN_UNION), [])
        assert isinstance(out, Success)
        assert store.bindings["x"] == 24

    def test_print_builtin_renders_values(self):
        out, store, _ = run_main(parse_program('main print(1 + 2); print("a")'))
        assert isinstance(out, Success) and store.output == ["3", "a"]


class TestFrames:
    def test_parameter_shadows_global(self):
        program = parse_program("p(n) = m = n + 1\nmain n = 10; p(1)")
        out, store, _ = run_main(program)
        assert isinstance(out, Success)
        assert store.bindings == {"n": 10, "m": 2}

    def test_parameter_shadows_global_only_in_its_body(self):
        program = parse_program("g(n) = ret = n * 2\nmain n = 5; x = g(3)")
        out, store, _ = run_main(program)
        assert isinstance(out, Success)
        assert store.bindings == {"n": 5, "x": 6, "ret": 6}

    def test_callee_does_not_see_callers_frame(self):
        program = parse_program("g() = x = n\np(n) = g()\nmain p(1)")
        out, _, _ = run_main(program)
        assert failure_paths(out) == {SYS_UNBOUND}

    def test_callee_reads_global_of_a_callers_parameter_name(self):
        program = parse_program("g() = x = n\np(n) = g()\nmain n = 5; p(1)")
        out, store, _ = run_main(program)
        assert isinstance(out, Success) and store.bindings == {"n": 5, "x": 5}

    def test_parameter_visible_in_handler_and_case_arm(self):
        program = parse_program(
            "p(n) = f(EOF) else (x = n; case Failtree of { /F/usr/EOF: y = n + 1 })\nmain p(4)"
        )
        out, store, _ = run_main(program)
        assert isinstance(out, Success) and store.bindings == {"x": 4, "y": 5}

    def test_trace_prefixes_each_body_with_its_frame(self):
        program = parse_program('show(s, k) = print(s)\nid(n) = ret = n\nmain x = id(2); show("a", x)')
        _, _, records = run_main(program, trace=True)
        assert trace_lines(records) == [
            '[rule 6] x = id(2); show("a", x) => success',
            "  [rule 5] x = id(2) => success",
            "    [rule call-expr] id(2) => success",
            "      [rule 5] {n = 2} ret = n => success",
            '  [rule 4] show("a", x) => success',
            '    [rule 4] {s = "a", k = 2} print(s) => success',
        ]



class TestTraceText:
    @staticmethod
    def printer_lines(n):
        """The number of lines of `tci/syntax.py` executed in a traced run of an
        n-statement chain followed by n + 1 calls of a body that holds an n-statement chain."""
        chain = "; ".join(f"x{i} = {i}" for i in range(n))
        # the chain of the body is in an operand that never runs
        program = parse_program(f"p(k) = (k == 0; ret = 0) else p(k - 1) else ({chain})\nmain {chain}; p({n})")
        syntax_file = syntax.pretty_print.__code__.co_filename
        lines = 0

        def count(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count

        def enter(frame, event, arg):
            return count if frame.f_code.co_filename == syntax_file else None

        previous = sys.gettrace()
        sys.settrace(enter)
        try:
            run_main(program, trace=True)
        finally:
            sys.settrace(previous)
        return lines

    def test_each_node_is_printed_once_per_root(self):
        # printing the body again at each call would take n * n lines
        small, large = (self.printer_lines(n) for n in (200, 400))
        assert large <= 2 * small + 10

    def test_body_text_under_each_frame(self):
        # one body runs under five frames; equal-but-distinct goal and
        # expression nodes (`g(1)`, `x = 1`) each print their own line
        program = parse_program(
            "fib(n) = (n < 2; ret = n) else ret = fib(n - 1) + fib(n - 2)\n"
            "g(k) = ret = k\n"
            "main x = 1; g(1); y = g(1) + fib(2); x = 1"
        )
        out, store, records = run_main(program, trace=True)
        assert isinstance(out, Success) and store.bindings["y"] == 2
        body = "(n < 2; ret = n) else ret = fib(n - 1) + fib(n - 2)"
        assert trace_lines(records) == [
            "[rule 6] x = 1; g(1); y = g(1) + fib(2); x = 1 => success",
            "  [rule 5] x = 1 => success",
            "  [rule 6] g(1); y = g(1) + fib(2); x = 1 => success",
            "    [rule 4] g(1) => success",
            "      [rule 5] {k = 1} ret = k => success",
            "    [rule 6] y = g(1) + fib(2); x = 1 => success",
            "      [rule 5] y = g(1) + fib(2) => success",
            "        [rule call-expr] g(1) => success",
            "          [rule 5] {k = 1} ret = k => success",
            "        [rule call-expr] fib(2) => success",
            f"          [rule 11] {{n = 2}} {body} => success",
            "            [rule 6] n < 2; ret = n => failure(/F/sys/test)",
            "              [rule test] n < 2 => failure(/F/sys/test)",
            "            [rule 5] ret = fib(n - 1) + fib(n - 2) => success",
            "              [rule call-expr] fib(n - 1) => success",
            f"                [rule 10] {{n = 1}} {body} => success",
            "                  [rule 6] n < 2; ret = n => success",
            "                    [rule test] n < 2 => success",
            "                    [rule 5] ret = n => success",
            "              [rule call-expr] fib(n - 2) => success",
            f"                [rule 10] {{n = 0}} {body} => success",
            "                  [rule 6] n < 2; ret = n => success",
            "                    [rule test] n < 2 => success",
            "                    [rule 5] ret = n => success",
            "      [rule 5] x = 1 => success",
        ]

    def test_trace_agrees_with_the_recursive_definition(self, monkeypatch):
        # every line shows its step's text as the reference prints it,
        # cut to the trace width; a deferred tail step's line is finished
        # with the result of its last child
        original = Evaluator._close_line
        closed = []  # (line index, node, rule, head, level, result) as each line closes

        def noting(self, at, rule, head, node, result):
            original(self, at, rule, head, node, result)
            closed.append((at // 5, node, rule, head, self._depth - 1, result))

        monkeypatch.setattr(Evaluator, "_close_line", noting)
        for seed in range(300):
            program, sv, inp = gen_program(seed, 8)
            ev = Evaluator(program, Store(inp, dict(sv.bindings)), Budget(5000), trace=True)
            ev.run(program.main)
            lines = trace_lines(ev.trace)
            assert sorted(at for at, *_ in closed) == list(range(len(lines)))
            for at, node, rule, head, level, result in closed:
                written = f"{'  ' * level}[rule {rule}] {head}{capped(recursive_pretty(node))} => "
                if result:
                    assert lines[at] == written + result
                else:
                    tail = lines[last_child(lines, at)]
                    assert lines[at] == written + tail[tail.rindex(" => ") + 4:]
            closed.clear()

    def test_long_goal_texts_are_cut(self, tmp_path, capsys):
        # a 4,000-statement chain: without the cut its trace would hold
        # about 4,000**2 characters of goal text
        n = 4_000
        source = "main " + "; ".join(f"x{i} = {i}" for i in range(n))
        (tmp_path / "chain.tc").write_text(source, encoding="utf-8")
        assert main(["run", str(tmp_path / "chain.tc"), "--trace"]) == 0
        err = capsys.readouterr().err
        assert len(err) < 40_000_000
        lines = err.splitlines()
        chain = parse_program(source).main
        steps = list(iter_goals(chain))  # the steps in trace order
        assert len(lines) == len(steps) == 2 * n - 1
        spans: dict[int, Span] = {}
        pretty_print(chain, spans)
        content = 0
        for i, (line, node) in enumerate(zip(lines, steps)):
            body = re.sub(r"^ *(\(\d+\) )?", "", line)
            rule = "6" if type(node) is Seq else "5"
            assert body.startswith(f"[rule {rule}] ") and body.endswith(" => success")
            text = body[len(f"[rule {rule}] "):-len(" => success")]
            start, end, _ = spans[id(node)]
            assert len(text) <= interp.TRACE_WIDTH == 160
            assert text.endswith("...") == (end - start > 160)
            if i % 97 == 0 or i > len(lines) - 5:
                assert text == capped(pretty_print(node))
            content += len(body) + 1
        # what is left beyond the indentation is linear in the steps
        assert content < 200 * len(lines)

    @staticmethod
    def result_texts(tmp_path, capsys, k: int) -> list[str]:
        """The text after ` => ` on each trace line of a k-way `|` of distinct `f(ai)`."""
        path = tmp_path / f"union{k}.tc"
        path.write_text("main " + " | ".join(f"f(a{i})" for i in range(k)), encoding="utf-8")
        assert main(["run", str(path), "--trace"]) == 1
        return [line[line.index(" => ") + 4:] for line in capsys.readouterr().err.splitlines()]

    def test_long_result_texts_are_cut(self, tmp_path, capsys):
        # uncut, the k lines of the `|` steps hold about k**2 / 2 paths
        small, large = (self.result_texts(tmp_path, capsys, k) for k in (400, 800))
        assert max(map(len, large)) == interp.TRACE_WIDTH == 160
        assert sum(map(len, large)) <= 2.2 * sum(map(len, small))
        # the last operand's step shows its one path whole, and the root its first paths
        assert "failure(/F/usr/a799)" in large
        whole = "failure(" + ", ".join(sorted(f"/F/usr/a{i}" for i in range(800))) + ")"
        assert large[0] == capped(whole)

    def test_failure_text_agrees_with_the_full_sort(self):
        # paths added in batches, with repeats, to one text: after each
        # batch it reads as the sorted text of every path so far, cut
        rng = random.Random(0)
        names = ("a", "b", "zz", "a1", "usr", "sys", "x" * 40, "y" * 70)
        for _ in range(400):
            text, added = interp._FailureText(), set()
            for _ in range(rng.randrange(1, 6)):
                batch = ["/".join(("", "F", *rng.choices(names, k=rng.randrange(4)))) for _ in range(rng.randrange(60))]
                text.add(batch)
                added.update(batch)
                if added:
                    whole = "failure(" + ", ".join(sorted(added)) + ")"
                    assert text.text() == capped(whole)
                    assert interp._result_text(Failure(added)) == capped(whole)


class TestRuleIds:
    # one small goal per rule: (definitions, goal, step budget, its step's trace line)
    CASES = [
        ("", "t", None, "[rule 1] t => success"),
        ("p() = t", "p()", None, "[rule 4] p() => success"),
        ("", "x = 1", None, "[rule 5] x = 1 => success"),
        ("", "t; t", None, "[rule 6] t; t => success"),
        ("", "t | t", None, "[rule 7] t | t => success"),
        ("", "f | t", None, "[rule 8] f | t => success"),
        ("", "t | f", None, "[rule 9] t | f => success"),
        ("", "f(b) | f(a)", None, "[rule fail] f(b) | f(a) => failure(/F/usr/a, /F/usr/b)"),
        ("", "t else f", None, "[rule 10] t else f => success"),
        ("", "f else t", None, "[rule 11] f else t => success"),
        ("", "1 < 2", None, "[rule test] 1 < 2 => success"),
        ("", "2 < 1", None, "[rule test] 2 < 1 => failure(/F/sys/test)"),
        ("", "case Failtree of { /F: t }", None, "[rule case] case Failtree of { /F: t } => failure(/F/sys/case)"),
        ("", "f(a) else case Failtree of { /F/usr/a: t }", None,
         "  [rule case] case Failtree of { /F/usr/a: t } => success"),
        ("", "f(a) else case Failtree of { /F/sys: t }", None,
         "  [rule case] case Failtree of { /F/sys: t } => failure(/F/usr/a)"),
        ("p() = ret = 1", "x = p()", None, "  [rule call-expr] p() => success"),
        ("", "t", 0, "[rule fail] t => failure(/F/sys/depth)"),
        ("", "t; t", 2, "  [rule fail] t => failure(/F/sys/depth)"),
    ]

    def test_each_rule_on_its_trace_line(self):
        for defs, goal, steps, line in self.CASES:
            program = parse_program(f"{defs}\nmain {goal}")
            budget = Budget(steps) if steps is not None else None
            ev = Evaluator(program, Store(), budget, trace=True)
            ev.run(program.main)
            assert line in trace_lines(ev.trace), (goal, trace_lines(ev.trace))


class TestBudget:
    def test_nonterminating_recursion_fails_with_depth(self):
        program = parse_program("loop() = loop()\nmain loop()")
        out, _, _ = run_main(program, budget=Budget(5000))
        assert failure_paths(out) == {SYS_DEPTH}

    def test_budget_counts_steps(self):
        budget = Budget(100)
        store = make_store()
        eval_goal(EMPTY_PROGRAM, store, parse_goal("t; t"), budget)
        assert budget.used == 3  # the sequence node and its two operands


class TestProperties:
    def instances(self, count, size=6, start=0):
        for seed in range(start, start + count):
            program, sv, inp = gen_program(seed, size)
            yield program, sv, inp

    def test_rollback_soundness_on_failures(self):
        checked = 0
        for program, sv, inp in self.instances(600):
            store = Store(inp, dict(sv.bindings))
            before = store.snapshot()
            out = eval_goal(program, store, program.main)
            if isinstance(out, Failure):
                checked += 1
                assert store.snapshot() == before
        assert checked > 100

    def test_rollback_at_every_nesting_level(self):
        # every sub-goal of main that fails, run under a catch point, leaves
        # the store exactly as it found it
        checked = 0
        for program, sv, inp in self.instances(300):
            for g in iter_goals(program.main):
                if isinstance(eval_goal(program, Store(inp, dict(sv.bindings)), g), Success):
                    continue
                checked += 1
                for caught in (Union(g, TrueGoal()), Else(g, TrueGoal())):
                    store = Store(inp, dict(sv.bindings))
                    before = store.snapshot()
                    assert isinstance(eval_goal(program, store, caught), Success)
                    assert store.snapshot() == before, caught
        assert checked > 300

    def test_union_truth_table(self):
        for seed in range(150):
            p1, sv, inp = gen_program(2 * seed, 5)
            p2, _, _ = gen_program(2 * seed + 1, 5)
            g1, g2 = p1.main, p2.main

            s_union = Store(inp, dict(sv.bindings))
            out_union = eval_goal(p1, s_union, Union(g1, g2))

            s_branches = Store(inp, dict(sv.bindings))
            out1 = eval_goal(p1, s_branches, g1)
            out2 = eval_goal(p1, s_branches, g2)

            expect_success = isinstance(out1, Success) or isinstance(out2, Success)
            assert isinstance(out_union, Success) == expect_success
            assert s_union.snapshot() == s_branches.snapshot()
            if not expect_success:
                assert out_union.paths == out1.paths | out2.paths

    def test_erase_law(self):
        for program, sv, inp in self.instances(150):
            store = Store(inp, dict(sv.bindings))
            out = eval_goal(program, store, Union(program.main, TrueGoal()))
            assert isinstance(out, Success)

    def test_else_laws(self):
        from tci.syntax import Case, iter_goals, Fail

        checked_f = 0
        for program, sv, inp in self.instances(300):
            g = program.main
            s1 = Store(inp, dict(sv.bindings))
            out1 = eval_goal(program, s1, Else(TrueGoal(), g))
            assert isinstance(out1, Success)
            assert s1.snapshot() == (dict(sv.bindings), 0, ())

            if any(isinstance(sub, Case) for sub in iter_goals(g)):
                continue  # `case` consults the handler's ambient tree; see the handler tests
            checked_f += 1
            s2 = Store(inp, dict(sv.bindings))
            out2 = eval_goal(program, s2, Else(Fail(ROOT), g))
            s3 = Store(inp, dict(sv.bindings))
            out3 = eval_goal(program, s3, g)
            assert isinstance(out2, Success) == isinstance(out3, Success)
            if isinstance(out2, Failure):
                assert out2 == out3
            assert s2.snapshot() == s3.snapshot()
        assert checked_f > 100

    @staticmethod
    def associates(op):
        """`(a op b) op c` and `a op (b op c)` give one outcome and one final store."""
        for seed in range(150):
            ga, _, _ = gen_program(3 * seed, 3)
            gb, _, _ = gen_program(3 * seed + 1, 3)
            gc, sv, inp = gen_program(3 * seed + 2, 3)
            program = gc  # defs of the third instance; others may call undefined procs
            left = op(op(ga.main, gb.main), gc.main)
            right = op(ga.main, op(gb.main, gc.main))
            s1 = Store(inp, dict(sv.bindings))
            o1 = eval_goal(program, s1, left)
            s2 = Store(inp, dict(sv.bindings))
            o2 = eval_goal(program, s2, right)
            assert isinstance(o1, Success) == isinstance(o2, Success)
            if isinstance(o1, Failure):
                assert o1 == o2
            assert s1.snapshot() == s2.snapshot()

    def test_seq_associativity(self):
        self.associates(Seq)

    def test_union_associativity(self):
        # a chain runs its right spine in one loop, and a `|` nested to
        # the left as an operand
        self.associates(Union)

    def test_determinism_including_trace(self):
        for program, sv, inp in self.instances(100):
            results = []
            for _ in range(2):
                store = Store(inp, dict(sv.bindings))
                ev = Evaluator(program, store, trace=True)
                out = ev.run(program.main)
                results.append(
                    (
                        isinstance(out, Success),
                        sorted(out.paths) if isinstance(out, Failure) else None,
                        store.snapshot(),
                        ev.trace,
                    )
                )
            assert results[0] == results[1]

    def test_agreement_with_reference_semantics(self):
        exhausted = 0
        for program, sv, inp in self.instances(300, start=5000):
            reference = derive_bounded(program, sv, program.main)
            if isinstance(reference, DepthExhausted):
                exhausted += 1
                continue
            store = Store(inp, dict(sv.bindings))
            out = eval_goal(program, store, program.main)
            if isinstance(reference, Derivable):
                assert isinstance(out, Success)
                final = reference.store
                assert final.bindings == store.bindings
                assert final.cursor == store.cursor
                assert final.output == tuple(store.output)
            else:
                assert isinstance(out, Failure)
                assert reference.tree == out
        assert exhausted <= 3


SUM = "sum(n, acc) = (n == 0; ret = acc) else sum(n - 1, acc + n)\nmain sum(3000, 0)"

# p(n - 1) is the first operand of the handler's `;`, not in a tail
# position, so each nested call holds a host frame until it returns
NON_TAIL = "p(n) = (n == 0; ret = 0) else (p(n - 1); ret = ret + n)\nmain p(3000)"


class TestStackExhaustion:
    # at the default recursion limit, p(3000) runs out of host stack
    # long before its step budget
    def test_run_main_reports_depth_and_an_empty_store(self, default_recursion_limit):
        out, store, _ = run_main(parse_program(NON_TAIL))
        assert failure_paths(out) == {SYS_DEPTH}
        assert store.snapshot() == ({}, 0, ())

    def test_trace_is_one_fail_line(self, default_recursion_limit):
        _, _, records = run_main(parse_program(NON_TAIL), trace=True)
        assert trace_lines(records) == ["[rule fail] p(3000) => failure(/F/sys/depth)"]

    def test_eval_goal_keeps_an_outer_checkpoint_open(self, default_recursion_limit):
        # the caller's mark still undoes the caller's edits after a failure from the host stack
        program = parse_program(NON_TAIL)
        store = make_store({"x": 1})
        mark = store.checkpoint()
        store.bind("y", 2)
        out = eval_goal(program, store, program.main)
        assert failure_paths(out) == {SYS_DEPTH}
        assert store.snapshot() == ({"x": 1, "y": 2}, 0, ())
        store.rollback(mark)
        assert store.snapshot() == ({"x": 1}, 0, ())


    def test_the_store_works_on_after_a_host_stack_failure(self, default_recursion_limit):
        # Each level binds x under a mark of its own, so the aborted descent
        # leaves hundreds of marks open, each with a table holding x.
        deep = parse_program("p(n) = (x = n; p(n + 1)) else t\nmain p(0)")
        store = make_store({"x": 1})
        out = eval_goal(deep, store, deep.main)
        assert failure_paths(out) == {SYS_DEPTH}
        assert store.snapshot() == ({"x": 1}, 0, ())
        assert store.undo_depth == 0
        # a tried operand that rebinds x and fails must still keep x's old value
        retry = parse_program("main (x = 2; x == 3) else t")
        assert isinstance(eval_goal(retry, store, retry.main), Success)
        assert store.snapshot() == ({"x": 1}, 0, ())
        # the run's rollback ended every mark the descent opened, and a
        # caller's mark still undoes a successful run
        outer = store.checkpoint()
        assert outer == 1
        rebind = parse_program("main x = 4")
        assert isinstance(eval_goal(rebind, store, rebind.main), Success)
        assert store.bindings == {"x": 4}
        store.rollback(outer)
        assert store.snapshot() == ({"x": 1}, 0, ())


class CountingStore(Store):
    def __init__(self, *args):
        super().__init__(*args)
        self.checkpoints = 0

    def checkpoint(self) -> int:
        self.checkpoints += 1
        return super().checkpoint()


class TestCatchPoints:
    # checkpoints open only at the root goal, each `|` operand and each
    # `else`'s tried operand
    @staticmethod
    def checkpoints(source):
        program = parse_program(source)
        store = CountingStore()
        ev = Evaluator(program, store, trace=True)
        out = ev.run(program.main)
        assert isinstance(out, Success)
        return store.checkpoints, trace_lines(ev.trace)

    def test_seq_chain_opens_only_the_root(self):
        assert self.checkpoints("main x = 1; y = 2; z = 3")[0] == 1

    def test_union_operands_and_tried_operand(self):
        assert self.checkpoints("main (x = 1 | y = 2) else t")[0] == 4

    def test_a_chain_opens_one_mark_per_operand(self):
        # the root, the tried operand and the four operands: the spine
        # unions nested as second operands open none
        assert self.checkpoints("main (x = 1 | y = 2 | z = 3 | w = 4) else t")[0] == 6

    def test_each_operand_of_a_chain_rolls_back_under_its_own_mark(self):
        program = parse_program("main x = 0; (x = 1 | (y = 2; f) | (z = 3; f(q)))")
        out, store, _ = run_main(program)
        assert isinstance(out, Success) and store.bindings == {"x": 1}

    def test_calls_open_one_per_else_step(self):
        opened, trace = self.checkpoints(SUM.replace("3000", "50"))
        else_steps = sum("[rule 10]" in line or "[rule 11]" in line for line in trace)
        assert else_steps == 51 and opened == 1 + else_steps

    def test_untraced_calls_open_one_per_guard_that_holds(self):
        # sum's guard `n == 0` runs before any mark opens: only the call
        # where it holds opens one, around `ret = acc`
        program = parse_program(SUM.replace("3000", "50"))
        store = CountingStore()
        out = Evaluator(program, store).run(program.main)
        assert isinstance(out, Success) and store.bindings["ret"] == 50 * 51 // 2
        assert store.checkpoints == 2

    def test_untraced_fail_operands_open_no_mark(self):
        program = parse_program("main (f(a) | x = 1 | f(b) | (y = 2; f(c))) else t")
        store = CountingStore()
        assert isinstance(Evaluator(program, store).run(program.main), Success)
        # the root, the tried operand and the two operands that can edit
        assert store.checkpoints == 4 and store.bindings == {"x": 1}

    def test_outer_mark_undoes_a_successful_eval_goal(self):
        # a run that succeeds commits into the caller's mark, which can still undo it
        program = parse_program('main x = 2; print("hi")')
        store = make_store({"x": 1})
        mark = store.checkpoint()
        store.bind("y", 2)
        out = eval_goal(program, store, program.main)
        assert isinstance(out, Success)
        assert store.snapshot() == ({"x": 2, "y": 2}, 0, ("hi",))
        store.rollback(mark)
        assert store.snapshot() == ({"x": 1}, 0, ())


class TestShallowBacktracking:
    # An untraced run opens no mark for a guard over leaves or an `f`
    # operand; these shapes can edit the store before they fail, so each
    # keeps its mark and a failure leaves the store as it was.
    def test_a_call_in_a_test_keeps_its_mark(self):
        out, store, _ = run_main(parse_program("g(n) = ret = n\nmain ret = 1; ((g(5) == 0; t) else t)"))
        assert isinstance(out, Success) and store.bindings == {"ret": 1}

    def test_a_read_in_a_test_keeps_its_mark(self):
        program = parse_program("main (read() == 5; t) else x = read()")
        out, store, _ = run_main(program, input_tokens=(1, 2))
        assert isinstance(out, Success) and store.bindings == {"x": 1} and store.cursor == 1

    def test_an_assignment_before_the_test_keeps_its_mark(self):
        out, store, _ = run_main(parse_program("main n = 1; ((x = 1; n == 0; t) else t)"))
        assert isinstance(out, Success) and store.bindings == {"n": 1}

    def test_a_guard_that_holds_marks_the_rest(self):
        program = parse_program("main x = 5; ((x == 5; x = 6; print(x); f(g)) else y = x)")
        out, store, _ = run_main(program)
        assert isinstance(out, Success) and store.snapshot() == ({"x": 5, "y": 5}, 0, ())

    def test_a_failing_guard_is_the_handlers_failure(self):
        program = parse_program(
            "main ((u == 1; x = 1) else case Failtree of { /F/sys/unbound: x = 2 });"
            " ((x > 2; y = 1) else case Failtree of { /F/sys/test: y = 2 })"
        )
        out, store, _ = run_main(program)
        assert isinstance(out, Success) and store.bindings == {"x": 2, "y": 2}


# Guard shapes, as procedure bodies and in main: over a parameter, a
# variable, a string, an unbound variable, chained, with a rest that
# edits and then fails, and `|` chains of `f` among editing operands;
# and the shapes that keep their mark (a call, a `read()`, an assignment
# before the test).  Then literals on the left and leaves of each kind on
# the right, strings ordered and compared with integers, handlers whose
# `case` matches no arm, with and without a default, a `case` with no
# failure to read, a `|` whose `f` operands throw one path, and a chain
# whose first operand can run out of budget.
GUARD_SHAPES = (
    "p(n) = (n == 0; x = n) else y = n\nmain p(0); p(1); n = 2; ((n < 3; z = n) else w = n)",
    "p() = (v == 1; x = v) else y = v\nmain v = 1; p(); v = 4; p(); ((v >= 4; z = v) else w = 0)",
    'p(s) = (s == "a"; x = 1) else x = 2\nmain p("a"); p("b"); s = "c"; ((s != "c"; y = 1) else y = 2)',
    "p() = (u == 1; x = 1) else case Failtree of { /F/sys/unbound: x = 2 }\n"
    "main p(); ((u > 0; y = 1) else y = 2); u = 1; p()",
    "p(n) = (n > 0; n < 5; x = n) else x = 0\nmain p(3); p(7); p(0); m = 2; ((m > 0; m < 5; y = m) else y = 0)",
    "p(n) = (n == 0; x = 1; f(e)) else case Failtree of { /F/usr/e: y = x }\n"
    "main x = 5; p(0); ((x == 5; x = 6; print(x); f(g)) else print(x))",
    "p(n) = f(a) | (x = n; f(b)) | f(c) | y = n | f(d)\n"
    "main p(1); ((f(e) | f(g) | (z = 1; print(z); f(h))) else t); ((f(i) | f(j)) else case Failtree of { /F/usr/i: w = 1 })",
    "g(n) = ret = n\n"
    "main ret = 1; ((g(5) == 0; t) else t); ((read() == 5; t) else x = read()); ((y = 1; ret == 0; t) else t)",
    'p(s, n) = ("a" == s; 1 < n; x = n) else case Failtree of { /F/usr/b: t; _: x = 0 }\n'
    'main p("a", 2); p("b", 2); (("b" < "c"; y = 1) else y = 2); ((1 == "a"; z = 1) else z = 2);'
    ' (("a" == 1; w = 1) else w = 2); ((0 < m; v = 1) else v = 2); ((3 > v; r = 1) else r = 2)',
    "p(n) = (n == 0; x = 1) else case Failtree of { /F/usr/b: t }\n"
    "main (p(1) else y = 1); (case Failtree of { /F/usr/a: t } | c = 1); ((f(i) | f(i)) else t);"
    " ((x = 1; y = 2) | f(a) | f(b)) else t",
)

# Calls in expression position: in a test's operand (a guard's, on
# either side), in an argument, in a `;`'s leaf assignment, with
# parameter arguments; `print` and an undefined procedure in goal and in
# expression position; arguments that fail (unbound, `/ 0`, a string in
# arithmetic), in a goal call and nested in an expression call; and a
# callee that edits and prints before it fails, under an `else` and a `|`.
CALL_SHAPES = (
    "g(n) = ret = n * 2\nh(a, b) = ret = a - b\nk(n) = h(n, 1); ret = g(n) / 2\n"
    "main x = g(1) + 1; ((g(x) == 6; y = h(g(x), g(g(1)))) else y = 0); g(y) > 0;"
    " ((g(2) < x; z = 1) else z = h(x, 1)); h(g(z), 1); u = ret; ((x == g(1); v = 1) else v = x + k(x))",
    'main print(1); print("a"); (x = print(2) else x = 0); ret = 5; y = print(3);'
    " (u(1) else v = 1); (z = u(1) else w = 1); (print(1, 2) | s = 1); (r = print(1, 2) else r = 1)",
    "p(a) = x = a; ret = a\n"
    'main (p(zz) else y = 1); (p(1 / 0) | (p("s" + 1) else z = 2)); (p(2 - "s") | w = p(3) + 1);'
    " (q = p(p(zz)) else q = 0); (m = 1 + zz else m = zz + 1 else m = 0)",
    "bad(n) = x = n; print(x); f(oops)\n"
    "main (bad(1) else y = 1); (bad(2) | z = 1); ((w = bad(3) + 1) else case Failtree of { /F/usr/oops: v = 1 });"
    " ((bad(4) | f(h)) else case Failtree of { /F/usr/h: u = 1 })",
)


def run_corpus_untraced():
    """Run, untraced, the golden programs on each golden input, and each guard and call shape at every budget."""
    for source in sorted(GOLDEN_DIR.glob("*.tc")):
        for data in sorted(GOLDEN_DIR.glob("*.in")):
            tokens = [int(token) for token in data.read_text(encoding="utf-8").split()]
            program = parse_program(source.read_text(encoding="utf-8"))
            Evaluator(program, Store(tokens)).run(program.main)
    for source in GUARD_SHAPES + CALL_SHAPES:
        program = parse_program(source)
        budget = Budget()
        Evaluator(program, Store((1, 2)), budget).run(program.main)
        for max_steps in range(budget.used):
            Evaluator(program, Store((1, 2)), Budget(max_steps)).run(program.main)


class TestUntracedAgreesWithTraced:
    # A traced run takes the generic rules: every operand in a step of its
    # own, under a mark wherever a failure is caught.  An untraced run must
    # end with the same outcome, store and steps used.
    @staticmethod
    def agree(program, bindings=None, input_tokens=(), max_steps=None):
        ends = []
        for trace in (True, False):
            store = Store(input_tokens, bindings)
            budget = Budget() if max_steps is None else Budget(max_steps)
            out = Evaluator(program, store, budget, trace=trace).run(program.main)
            ends.append((out, store.snapshot(), budget.used))
        assert ends[0] == ends[1]
        return ends[1]

    def test_generated_programs(self):
        for seed in range(500):
            program, sv, inp = gen_program(seed)
            self.agree(program, sv.bindings, inp)

    def test_golden_programs(self, golden_dir):
        for source in sorted(golden_dir.glob("*.tc")):
            for data in sorted(golden_dir.glob("*.in")):
                tokens = [int(token) for token in data.read_text(encoding="utf-8").split()]
                self.agree(parse_program(source.read_text(encoding="utf-8")), None, tokens)

    def agree_at_every_budget(self, source):
        program = parse_program(source)
        _, _, needed = self.agree(program, None, (1, 2))
        for max_steps in range(needed + 1):
            self.agree(program, None, (1, 2), max_steps)

    @pytest.mark.parametrize("source", GUARD_SHAPES)
    def test_guard_shapes_at_every_budget(self, source):
        # the budget runs out at each step in turn: at an `else`, at the
        # `;` and the test of a guard, and at an `f` operand
        self.agree_at_every_budget(source)

    @pytest.mark.parametrize("source", CALL_SHAPES)
    def test_call_shapes_at_every_budget(self, source):
        # the budget runs out at each step in turn: at a call, in an
        # argument's callee, and in a callee that edits before it fails
        self.agree_at_every_budget(source)


def conditional_jumps(code) -> dict[int, tuple[int, int]]:
    """Each conditional jump of `code`: {offset its opcode event has: (offset it falls through to, line)}.

    A jump after `EXTENDED_ARG`s has its event at the first of them.
    """
    instructions = list(dis.get_instructions(code))
    line_of = {at: line for start, end, line in code.co_lines() for at in range(start, end, 2)}
    jumps = {}
    for i, instruction in enumerate(instructions):
        if "IF" in instruction.opname or instruction.opname == "FOR_ITER":
            first = i
            while first and instructions[first - 1].opname == "EXTENDED_ARG":
                first -= 1
            jumps[instructions[first].offset] = (instructions[i + 1].offset, line_of[instruction.offset])
    return jumps


def branches_not_taken(functions, work) -> set[tuple[str, str, str]]:
    """The ways of each conditional jump in `functions` that `work()` never took: (function, line text, way).

    `sys.settrace` follows the functions' frames opcode by opcode, and a
    jump's way is whether the next opcode is the one it falls through to.
    """
    jumps = {f.__code__: conditional_jumps(f.__code__) for f in functions}
    taken = set()

    def enter(frame, event, arg):
        code_jumps = jumps.get(frame.f_code)
        if code_jumps is None:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        last = None

        def step(frame, event, arg):
            nonlocal last
            if event == "opcode":
                at = frame.f_lasti
                if last in code_jumps:
                    taken.add((frame.f_code, last, at == code_jumps[last][0]))
                last = at
            return step

        return step

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        work()
    finally:
        sys.settrace(previous)
    lines, first = inspect.getsourcelines(Evaluator)
    missing = set()
    for code, code_jumps in jumps.items():
        for at, (_, line) in code_jumps.items():
            for falls in (True, False):
                if (code, at, falls) not in taken:
                    missing.add((code.co_name, lines[line - first].strip(), "falls through" if falls else "jumps"))
    return missing


class TestUntracedLoop:
    # The untraced loop (`_run`, `_value`) is checked against the traced
    # reference above; these show that the corpus reaches all of it, and
    # that it reaches no traced-only code.
    def test_no_untraced_step_reaches_traced_code(self, monkeypatch):
        def traced_only(*args, **kwargs):
            raise AssertionError("an untraced run reached traced-only code")

        for name in ("_eval", "_expr", "_enter", "_open_line", "_close_line", "_close_spine", "_result"):
            monkeypatch.setattr(Evaluator, name, traced_only)
        run_corpus_untraced()

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="the untaken jumps below are those of CPython 3.11's bytecode; "
                               "another version's compiler emits other jumps")
    def test_the_corpus_takes_every_branch(self):
        # Every conditional jump of `_run` and `_value` goes both ways,
        # but for an `except` that meets another exception type and the
        # last type test before each `raise TypeError`, which no program
        # the parser builds reaches.
        missing = branches_not_taken((Evaluator._run, Evaluator._value), run_corpus_untraced)
        other_exceptions = {way for way in missing if way[1].startswith("except ") and way[2] == "jumps"}
        assert missing - other_exceptions == {("_run", "elif t is Case:", "jumps"), ("_value", "elif t is Read:", "jumps")}


COUNT = "count(n) = (n == 0; ret = 0) else (x = n; count(n - 1))\nmain count(N)"


class TestUndoLogSize:
    # count's live state is two bindings however deep it goes: each level's
    # tried operand fails and is rolled back, and x is logged once
    @staticmethod
    def peak(n):
        program = parse_program(COUNT.replace("N", str(n)))
        tracemalloc.start()
        try:
            out, store, _ = run_main(program)
            return tracemalloc.get_traced_memory()[1], store
        finally:
            tracemalloc.stop()

    def test_a_successful_run_keeps_one_entry_per_name(self):
        _, store = self.peak(20000)
        assert store.bindings == {"x": 1, "ret": 0}
        assert store.undo_depth <= 4

    def test_peak_memory_does_not_grow_with_depth(self):
        small, _ = self.peak(20000)
        large, _ = self.peak(40000)
        assert large <= 1.1 * small


class TestHostFrames:
    def test_each_step_takes_one_host_frame(self, default_recursion_limit):
        # a step runs its rule in its own frame, so 250 nested non-tail
        # calls fit under Python's default recursion limit
        out, store, _ = run_main(parse_program(NON_TAIL.replace("3000", "250")))
        assert isinstance(out, Success) and store.bindings["ret"] == 250 * 251 // 2

    def test_tail_calls_take_no_host_frame(self, default_recursion_limit):
        # each call of sum is the handler's tail call, so 20,000 of them
        # run at the default recursion limit, under the step budget
        out, store, _ = run_main(parse_program(SUM.replace("3000", "20000")))
        assert isinstance(out, Success) and store.bindings["ret"] == 20000 * 20001 // 2

    def test_an_untraced_non_tail_level_takes_three_host_frames(self, default_recursion_limit):
        # a level holds `_run` (the handler's assignment) and `_value` for
        # the sum and for the call: 300 levels take 900 frames, and would
        # take 1,200 at four a level
        source = "p(n) = (n == 0; ret = 0) else ret = 1 + p(n - 1)\nmain x = p(300)"
        out, store, _ = run_main(parse_program(source))
        assert isinstance(out, Success) and store.bindings["x"] == 300

    def test_an_untraced_nested_argument_call_takes_one_host_frame(self, default_recursion_limit):
        # `_value` evaluates a call's arguments and enters its body in one
        # frame: 900 nested calls take 900 frames, and would take 1,800 at two
        source = "g(a) = ret = a\nmain x = " + "g(" * 900 + "1" + ")" * 900
        out, store, _ = run_main(parse_program(source))
        assert isinstance(out, Success) and store.bindings["x"] == 1

    def test_a_wide_union_takes_no_host_frame_per_operand(self, default_recursion_limit, tmp_path, capsys):
        # the chain's operands run one at a time from one loop, so its
        # width is bounded by the budget, not by the host stack
        n = 25_000
        path = tmp_path / "union.tc"
        path.write_text("main " + " | ".join(f"f(a{i})" for i in range(n)), encoding="utf-8")
        assert main(["run", str(path)]) == 1
        drawn = capsys.readouterr().out.splitlines()
        assert drawn[:2] == ["F", "└─ usr"]
        assert {line.split("─ ")[1] for line in drawn[2:]} == {f"a{i}" for i in range(n)}


# Each tail position, reached by a step that succeeds and by one that
# fails: a `;`'s second operand, an `else`'s handler, a `case` arm and
# default, and a call's body, in goal and in expression position.
TAIL_POSITIONS = """\
loop(n) = (n == 0; f(done)) else case Failtree of { /F/usr/done: ret = n; /F/sys/test: loop(n - 1) }
bad(n) = (n == 0; f(stop)) else case Failtree of { /F/sys/test: x = n; bad(n - 1) }
other() = f(q) else case Failtree of { /F/usr/a: t; _: w = 1; f(last) }
main r = loop(1) + 1; loop(2); (bad(2) | y = 1); ((f(a) else f(b)) else (z = 3; print(z))); (other() | t)
"""


class TestTailPositions:
    # With no budget and with budgets that run out inside tail chains
    # (at `ret = n` under a call in expression position, at a call's
    # body, at an arm's `;`, at the default's `;`).
    BUDGETS = (None, 12, 20, 45, 67)

    @staticmethod
    def traced(monkeypatch, max_steps):
        """Run TAIL_POSITIONS traced; returns (outcome, evaluator, indices of the deferred lines)."""
        original = Evaluator._close_line
        deferred = []

        def recording(self, at, rule, head, node, result):
            original(self, at, rule, head, node, result)
            if not result:
                deferred.append(at // 5)

        monkeypatch.setattr(Evaluator, "_close_line", recording)
        program = parse_program(TAIL_POSITIONS)
        ev = Evaluator(program, Store(), Budget() if max_steps is None else Budget(max_steps), trace=True)
        out = ev.run(program.main)
        monkeypatch.undo()
        return out, ev, deferred

    def test_trace_text_is_unchanged(self, monkeypatch, golden_dir):
        # pinned from the evaluator before tail steps looped, when every
        # step returned to its parent's host frame
        texts = []
        for max_steps in self.BUDGETS:
            out, ev, _ = self.traced(monkeypatch, max_steps)
            result = "success" if isinstance(out, Success) else ", ".join(sorted(out.paths))
            texts.append(f"== budget {max_steps}: {result} in {ev.budget.used} steps\n")
            texts.extend(line + "\n" for line in trace_lines(ev.trace))
        assert "".join(texts) == (golden_dir / "tail_positions.trace").read_text(encoding="utf-8")

    @pytest.mark.parametrize("max_steps", BUDGETS)
    def test_deferred_lines(self, monkeypatch, max_steps):
        out, ev, deferred = self.traced(monkeypatch, max_steps)
        lines = trace_lines(ev.trace)
        rules = {line.split("] ", 1)[0].lstrip() for line in map(lines.__getitem__, deferred)}
        assert rules == {"[rule 6", "[rule 11", "[rule case", "[rule 4"}
        exhausted = False
        for at in deferred:
            # one step deeper than the step it is under, and the parent
            # of the next step of its chain, whose result it ends with
            depth = indent(lines[at])
            above = max((j for j in range(at) if indent(lines[j]) < depth), default=None)
            assert above is None if depth == 0 else indent(lines[above]) == depth - 1
            chain = at
            while chain in deferred:
                chain = last_child(lines, chain)
            result = lines[chain][lines[chain].rindex(" => "):]
            assert lines[at].endswith(result)
            exhausted |= result == " => failure(/F/sys/depth)"
        assert exhausted == (max_steps is not None)
        assert ev._depth == 0
        if max_steps is None:
            assert isinstance(out, Success) and ev.store.bindings["r"] == 1


WIDE = " | ".join(f"f(w{i % 30})" for i in range(40))
# `|` chains whose operands give rules 7, 8, 9 and `fail`: as procedure
# bodies (in goal and expression position), as an `else`'s tried operand,
# 40 spine levels deep, with repeated paths, and with a `|` as an operand.
UNION_CHAIN = f"""\
pick(n) = x = n | f(a) | (y = n; f(b)) | z = n + 1 | f(c)
one(n) = ret = n | ret = n + 1
wide() = {WIDE}
main r = one(1) + 1; pick(2); ((f(d) | f(e) | (w = 1; f(g))) else case Failtree of {{ /F/usr/e: t }}); \
(wide() | v = 1); ((f(h) | f(i)) | f(j) | t | f(k))
"""


class TestUnionChains:
    # With no budget, with budgets that run out at a spine union's entry
    # (in a body with a frame head, at pick's second and fourth unions, in
    # the tried operand's chain, 40 levels into wide, at `t | f(k)`), and
    # with one that runs out at a chain's last operand (17).
    BUDGETS = (None, 2, 9, 15, 17, 22, 100, 118)

    def test_a_propagated_failure_is_not_copied(self, monkeypatch):
        # each level's first operand fails with the failure from below, and
        # its second with /F/sys/test, which that failure holds already:
        # the chain hands the first operand's Failure on, so a failure is
        # built only where `w()`'s paths meet the first /F/sys/test
        built = []

        class Counted(Failure):
            __slots__ = ()

            def __init__(self, paths):
                built.append(len(paths))
                super().__init__(paths)

        monkeypatch.setattr(interp, "Failure", Counted)
        w = " | ".join(f"f(a{i})" for i in range(50))
        for n in (100, 200):
            program = parse_program(f"w() = {w}\np(n) = (n > 0; p(n - 1); t) | (n == 0; w())\nmain p({n})")
            out, _, _ = run_main(program)
            assert out.paths == {SYS_TEST, *(f"/F/usr/a{i}" for i in range(50))}
            assert built == [50, 51]
            built.clear()

    def test_trace_text_is_unchanged(self, golden_dir):
        # pinned from the evaluator before a chain ran in one loop, when
        # each spine union ran its second operand one host frame deeper
        program = parse_program(UNION_CHAIN)
        texts = []
        for max_steps in self.BUDGETS:
            ev = Evaluator(program, Store(), Budget() if max_steps is None else Budget(max_steps), trace=True)
            out = ev.run(program.main)
            result = "success" if isinstance(out, Success) else ", ".join(sorted(out.paths))
            texts.append(f"== budget {max_steps}: {result} in {ev.budget.used} steps\n")
            texts.extend(line + "\n" for line in trace_lines(ev.trace))
            assert ev._depth == 0
        assert "".join(texts) == (golden_dir / "union_chain.trace").read_text(encoding="utf-8")
