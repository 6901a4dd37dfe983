import io
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

import tci
from tci.cli import (
    EXIT_FAILURE,
    EXIT_PARSE_ERROR,
    EXIT_SUCCESS,
    EXIT_USAGE,
    USAGE,
    cmd_check,
    cmd_run,
    cmd_selfcheck,
    main,
    render_trace,
    _print_report,
)
from tci.interp import TRACE_BATCH, TRACE_WIDTH, run_main, trace_lines
from tci.parser import parse_program
from tci.syntax import int_text


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRun:
    def test_success_prints_sorted_bindings(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", "main y = 2; x = 1")
        code = main(["run", path])
        out = capsys.readouterr().out
        assert code == EXIT_SUCCESS
        assert out == "x = 1\ny = 2\n"

    def test_golden_union_program(self, tmp_path, capsys, golden_dir):
        code = main(["run", str(golden_dir / "filehandler_union.tc")])
        out = capsys.readouterr().out
        assert code == EXIT_SUCCESS
        assert "x = 24" in out.splitlines()

    def test_failure_renders_tree(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", "main f(EOF)")
        code = main(["run", path])
        out = capsys.readouterr().out
        assert code == EXIT_FAILURE
        assert out == "F\n└─ usr\n   └─ EOF\n"

    def test_parse_error_exits_2_with_span(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", "main x =")
        code = main(["run", path])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert "1:" in err

    @pytest.mark.parametrize("char", ["²", "٣", "é"])
    def test_non_ascii_digit_or_letter_exits_2(self, tmp_path, capsys, char):
        path = write(tmp_path, "p.tc", f"main x = {char}")
        code = main(["run", path])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert f"1:10: unrecognized character {char!r}" in err

    def test_deep_nesting_exits_0(self, tmp_path, capsys):
        # the parser keeps its own stacks, so any depth of parentheses parses
        path = write(tmp_path, "p.tc", "main " + "(" * 100_000 + "t" + ")" * 100_000)
        code = main(["run", path])
        assert code == EXIT_SUCCESS
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("goal", ["x = " + " + ".join(["1"] * 20_000)], ids=["sum"])
    def test_deep_program_fails_with_depth_under_trace(self, tmp_path, capsys, goal):
        # the evaluator runs out of host stack on the left-nested sum;
        # printing the goal for the trace's one fail line must not
        path = write(tmp_path, "p.tc", f"main {goal}")
        assert main(["run", path]) == EXIT_FAILURE
        plain = capsys.readouterr().out
        assert plain == "F\n└─ sys\n   └─ depth\n"
        assert main(["run", path, "--trace"]) == EXIT_FAILURE
        captured = capsys.readouterr()
        assert captured.out == plain
        assert captured.err.splitlines()[-1].endswith("=> failure(/F/sys/depth)")

    def test_long_chain_runs_in_constant_host_stack(self, tmp_path, capsys, default_recursion_limit):
        # each statement after the first is a tail step, so a 20,000-statement
        # chain runs at Python's default recursion limit
        n = 20_000
        path = write(tmp_path, "p.tc", "main " + "; ".join(f"x{i} = {i}" for i in range(n)))
        report = cmd_run(path)
        assert report.exit_code == EXIT_SUCCESS and report.steps_used == 2 * n - 1
        _print_report(report)
        assert capsys.readouterr().out == "".join(sorted(f"x{i} = {i}\n" for i in range(n)))

    def test_long_chain_under_trace_exits_0(self, tmp_path, capsys):
        # one line per step; the deferred lines of the chain's `;` steps
        # each end with the last statement's result; a line under more
        # than 32 steps is indented 32 levels and starts with its level
        n = 2_000
        path = write(tmp_path, "p.tc", "main " + "; ".join(f"x{i} = {i}" for i in range(n)))
        assert main(["run", path, "--trace"]) == EXIT_SUCCESS
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 * n - 1
        assert all(line.endswith(" => success") for line in lines)
        assert lines[-2:] == ["  " * 32 + f"({n - 1}) [rule 5] x{n - 2} = {n - 2} => success",
                              "  " * 32 + f"({n - 1}) [rule 5] x{n - 1} = {n - 1} => success"]

    def test_trace_bytes_are_linear_in_chain_length(self, tmp_path, capsys):
        sizes = []
        for n in (2_000, 4_000):
            path = write(tmp_path, f"{n}.tc", "main " + "; ".join(f"x{i} = {i}" for i in range(n)))
            assert main(["run", path, "--trace"]) == EXIT_SUCCESS
            sizes.append(len(capsys.readouterr().err.encode("utf-8")))
        assert sizes[1] <= 2.2 * sizes[0]

    def test_long_call_heads_are_cut(self, tmp_path, capsys):
        # `x` holds 7 ** 2 ** 16, 55,385 digits: with each of the 201 call
        # heads whole, the trace's longest line held them all and the
        # trace took 11.2 MB
        squarings = "; ".join(["x = x * x"] * 16)
        path = write(tmp_path, "p.tc", "p(n, k) = (k == 0; ret = 0) else p(n, k - 1)\n"
                                       f"main x = 7; {squarings}; p(x, 200)")
        assert main(["run", path, "--trace"]) == EXIT_SUCCESS
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 839
        head = "{n = " + int_text(7 ** 2 ** 16)[:TRACE_WIDTH - 8] + "... "
        assert sum(head in line for line in lines) == 201
        # an indent of 32 levels and a level, then the rule, and a head,
        # a text and a result of at most TRACE_WIDTH characters each
        assert max(map(len, lines)) <= 64 + len("(839) [rule call-expr] ") + 3 * TRACE_WIDTH + len("  => ")
        assert len(err.encode("utf-8")) <= 200_000

    def test_deep_failure_path_is_drawn(self, tmp_path, capsys, default_recursion_limit):
        # The tree is drawn without host recursion, at the recursion limit
        # `main` does not raise; a line under more than 32 levels is
        # indented 32 levels and starts with its level.
        n = 1500
        path = write(tmp_path, "p.tc", "main f(" + "/".join(["a"] * n) + ")")
        report = cmd_run(path)
        assert report.exit_code == EXIT_FAILURE
        _print_report(report)
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["F", "└─ usr", "   └─ a"]
        assert lines[33:35] == ["   " * 32 + "└─ a", "   " * 32 + "(33) └─ a"]
        assert len(lines) == n + 2 and lines[-1] == "   " * 32 + f"({n}) └─ a"

    @staticmethod
    def failure_bytes(tmp_path, capsys, segments):
        """The bytes `tci run` prints for `main f(a/.../a)` of `segments` segments."""
        path = write(tmp_path, f"{segments}.tc", "main f(" + "/".join(["a"] * segments) + ")")
        assert main(["run", path]) == EXIT_FAILURE
        return len(capsys.readouterr().out.encode("utf-8"))

    def test_deep_failure_path_prints_under_half_a_megabyte(self, tmp_path, capsys):
        assert self.failure_bytes(tmp_path, capsys, 3_000) <= 500_000

    def test_failure_bytes_are_linear_in_path_length(self, tmp_path, capsys):
        small, large = (self.failure_bytes(tmp_path, capsys, n) for n in (2_000, 4_000))
        assert large <= 2.2 * small

    def test_commit_cascade_time_is_linear(self, tmp_path, capsys):
        # Every level's mark holds y, and the innermost binds `names` more;
        # each commit on the way out merges that table into y's.  Merging
        # the smaller table into the larger keeps this linear; merging the
        # closed table in whatever its size costs depth * names.
        def best_time(names, depth):
            chain = "; ".join(f"x{i} = {i}" for i in range(names))
            source = (f"p(n) = (y = n; q(n)) else t\nq(n) = (n == 0; {chain}) else p(n - 1)\n"
                      f"main p({depth})")
            path = write(tmp_path, f"{names}.tc", source)
            times = []
            for _ in range(3):
                start = time.perf_counter()
                assert main(["run", path]) == EXIT_SUCCESS
                times.append(time.perf_counter() - start)
                assert len(capsys.readouterr().out.splitlines()) == names + 1
            return min(times)

        small, large = best_time(1_000, 2_000), best_time(2_000, 4_000)
        assert large <= 3 * small

    def test_input_file_feeds_read(self, tmp_path, capsys):
        prog = write(tmp_path, "p.tc", "main x = read(); y = read()")
        data = write(tmp_path, "data.txt", "7 9\n")
        code = main(["run", prog, "--input", data])
        out = capsys.readouterr().out
        assert code == EXIT_SUCCESS
        assert out == "x = 7\ny = 9\n"

    def test_bad_input_file(self, tmp_path, capsys):
        prog = write(tmp_path, "p.tc", "main t")
        data = write(tmp_path, "data.txt", "7 oops")
        assert main(["run", prog, "--input", data]) == EXIT_PARSE_ERROR

    def test_input_file_takes_ascii_whitespace_and_signs(self, tmp_path, capsys):
        prog = write(tmp_path, "p.tc", "main x = read(); y = read()")
        data = write(tmp_path, "data.txt", "\t-4\r\n5\r\n")
        assert main(["run", prog, "--input", data]) == EXIT_SUCCESS
        assert capsys.readouterr().out == "x = -4\ny = 5\n"

    @pytest.mark.parametrize(
        "text", ["٣", "1_000", "+5", "7\u00a09", "7\x0b9"],
        ids=["arabic-indic-digit", "underscore", "plus-sign", "no-break-space", "vertical-tab"],
    )
    def test_input_file_rejects_what_int_would_read(self, tmp_path, capsys, text):
        prog = write(tmp_path, "p.tc", "main x = read()")
        data = write(tmp_path, "data.txt", f"1 {text}\n")
        assert main(["run", prog, "--input", data]) == EXIT_PARSE_ERROR
        assert capsys.readouterr().err.startswith(f"error: bad input file {data}: ")

    def test_missing_program_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.tc")]) == EXIT_PARSE_ERROR

    def test_trace_goes_to_stderr(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", "main t | f")
        code = main(["run", path, "--trace"])
        captured = capsys.readouterr()
        assert code == EXIT_SUCCESS
        assert "[rule 9]" in captured.err
        assert "[rule" not in captured.out

    def test_max_steps_enforced(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", "loop() = loop()\nmain loop()")
        code = main(["run", path, "--max-steps", "1000"])
        out = capsys.readouterr().out
        assert code == EXIT_FAILURE
        assert "depth" in out

    def test_string_bindings_quoted(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", 'main s = "hi"')
        main(["run", path])
        assert capsys.readouterr().out == 's = "hi"\n'

    def test_output_printed_after_bindings(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", 'main print("line"); x = 1')
        main(["run", path])
        assert capsys.readouterr().out == "x = 1\nline\n"

    def test_integer_literal_of_5000_digits(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", "main x = " + "9" * 5000)
        code = main(["run", path])
        assert code == EXIT_SUCCESS
        assert capsys.readouterr().out == "x = " + "9" * 5000 + "\n"

    def test_computed_integer_of_8193_digits(self, tmp_path, capsys):
        # 13 squarings of 10 give 10**8192
        path = write(tmp_path, "p.tc", "main x = 10; " + "; ".join(["x = x * x"] * 13))
        code = main(["run", path])
        assert code == EXIT_SUCCESS
        assert capsys.readouterr().out == "x = 1" + "0" * 8192 + "\n"

    def test_integer_of_100000_digits_and_its_negation(self, tmp_path, capsys):
        # printed as a binding and by print(), with a long run of zeros
        digits = "9" + "0" * 49_999 + "1234567890" * 5_000
        path = write(tmp_path, "p.tc", f"main x = {digits}; y = 0 - x; print(y)")
        code = main(["run", path])
        assert code == EXIT_SUCCESS
        assert capsys.readouterr().out == f"x = {digits}\ny = -{digits}\n-{digits}\n"

    def test_report_fields(self, tmp_path):
        path = write(tmp_path, "p.tc", "main x = 1")
        report = cmd_run(path)
        assert report.status == "success"
        assert report.bindings == {"x": 1}
        assert report.failtree is None
        assert report.steps_used > 0
        failing = cmd_run(write(tmp_path, "q.tc", "main f"))
        assert failing.status == "failure" and failing.failtree is not None


class TestCheck:
    def test_shared_union_variable_warning(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", "main (x = 1) | (x = 2)")
        code = main(["check", path])
        err = capsys.readouterr().err
        assert code == EXIT_SUCCESS
        assert "warning" in err and "x" in err

    def test_clean_program_no_warnings(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", "main t")
        code = main(["check", path])
        assert code == EXIT_SUCCESS
        assert capsys.readouterr().err == ""

    def test_malformed_program(self, tmp_path):
        path = write(tmp_path, "p.tc", "main (t")
        assert main(["check", path]) == EXIT_PARSE_ERROR

    def test_warnings_cover_definition_bodies(self, tmp_path):
        path = write(tmp_path, "p.tc", "p() = (x = 1) | (x = 2)\nmain t")
        code, diagnostics = cmd_check(path)
        assert code == EXIT_SUCCESS and len(diagnostics) == 1


    def test_parameters_are_not_shared_state(self, tmp_path):
        # a parameter is read-only, so both branches may read it; a global
        # of the same name outside the body is still shared state
        path = write(tmp_path, "p.tc", "g(n) = (x = n | y = n)\nmain (x = n | y = n)")
        code, diagnostics = cmd_check(path)
        assert code == EXIT_SUCCESS
        assert diagnostics == ["warning: '|' branches share variables: n (in: x = n | y = n)"]


class TestSelfcheck:
    def test_small_run_agrees(self, capsys):
        code = main(["selfcheck", "--cases", "50", "--seed", "0", "--max-depth", "8"])
        out = capsys.readouterr().out
        assert code == EXIT_SUCCESS
        assert "agreed=" in out

    def test_single_case_deterministic(self):
        a = cmd_selfcheck(cases=1, seed=0, max_depth=8)
        b = cmd_selfcheck(cases=1, seed=0, max_depth=8)
        assert (a.agreed, a.exhausted, a.counterexample) == (b.agreed, b.exhausted, b.counterexample)

    def test_broken_evaluator_is_caught(self, monkeypatch, capsys):
        # negative control: force the evaluator to lie about one goal form
        import tci.cli as cli_mod
        from tci.interp import Success
        from tci.failure import ROOT, throw

        real = cli_mod.eval_goal

        def broken(program, store, goal, budget=None):
            out = real(program, store, goal, budget)
            if isinstance(out, Success):
                return throw(ROOT)
            return out

        monkeypatch.setattr(cli_mod, "eval_goal", broken)
        report = cmd_selfcheck(cases=50, seed=0, max_depth=8)
        assert report.exit_code == EXIT_FAILURE
        assert report.counterexample is not None


class TestExitCodes:
    def test_codes_match_statuses(self, tmp_path):
        cases = {
            "main t": EXIT_SUCCESS,
            "main f": EXIT_FAILURE,
            "main (": EXIT_PARSE_ERROR,
        }
        for source, expected in cases.items():
            path = write(tmp_path, "p.tc", source)
            assert main(["run", path]) == expected

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_program_file_not_utf8_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "p.tc"
        path.write_bytes("main x = 1 // caf\xe9\n".encode("latin-1"))
        assert main([command, str(path)]) == EXIT_PARSE_ERROR
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_output_is_reproducible(self, tmp_path, capsys):
        path = write(tmp_path, "p.tc", 'main (x = read(); f) else print("caught"); y = 1')
        data = write(tmp_path, "d.txt", "4\n")
        runs = []
        for _ in range(2):
            main(["run", path, "--input", data, "--trace"])
            captured = capsys.readouterr()
            runs.append((captured.out, captured.err))
        assert runs[0] == runs[1]


class TestUsage:
    """The command-line contract: usage errors exit 2 with the usage on stderr, `-h` exits 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["run", "P", "--bogus"],
            ["run"],
            ["check"],
            ["run", "P", "P"],
            ["check", "P", "P"],
            ["run", "P", "--max-steps"],
            ["run", "P", "--max-steps", "x"],
            ["selfcheck", "--cases"],
            ["selfcheck", "--cases", "x"],
            ["run", "P", "--trace=1"],
            ["run", "P", "--max-steps", "-5"],
            ["selfcheck", "--cases", "-3"],
            ["selfcheck", "--max-depth", "-1", "--cases", "2"],
        ],
        ids=["no-command", "unknown-command", "unknown-option", "run-no-file", "check-no-file",
             "run-extra-file", "check-extra-file", "max-steps-no-value", "max-steps-not-integer",
             "cases-no-value", "cases-not-integer", "trace-with-value", "max-steps-negative",
             "cases-negative", "max-depth-negative"],
    )
    def test_usage_error_exits_2(self, tmp_path, capsys, argv):
        path = write(tmp_path, "p.tc", "main t")
        assert main([path if arg == "P" else arg for arg in argv]) == EXIT_USAGE == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(USAGE)
        reason = err[len(USAGE):]
        assert reason.startswith("tci: error: ") and reason.count("\n") == 1

    @pytest.mark.parametrize("option", ["--max-steps", "--cases", "--max-depth"])
    def test_negative_count_names_its_option(self, tmp_path, capsys, option):
        argv = ["run", write(tmp_path, "p.tc", "main t")] if option == "--max-steps" else ["selfcheck"]
        assert main([*argv, f"{option}=-1"]) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"tci: error: {option} must be 0 or more, not '-1'\n")

    def test_zero_counts_are_accepted(self, capsys):
        assert main(["selfcheck", "--cases", "0", "--max-depth", "0"]) == EXIT_SUCCESS
        assert capsys.readouterr().out == "selfcheck: cases=0 agreed=0 depth-exhausted=0\n"

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "-h"], ["selfcheck", "--cases", "5", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == EXIT_SUCCESS
        assert capsys.readouterr() == (USAGE, "")

    def test_option_value_after_equals_sign(self, tmp_path, capsys):
        # five steps run the chain; four run out during its last statement
        path = write(tmp_path, "p.tc", "main x = 1; y = 2; z = 3")
        results = []
        for argv in (["run", path, "--max-steps=4"], ["run", path, "--max-steps", "4"],
                     ["run", "--max-steps", "4", path], ["run", path, "--max-steps=5"]):
            results.append((main(argv), capsys.readouterr()))
        assert results[0] == results[1] == results[2] == (EXIT_FAILURE, ("F\n└─ sys\n   └─ depth\n", ""))
        assert results[3] == (EXIT_SUCCESS, ("x = 1\ny = 2\nz = 3\n", ""))


class Sink:
    """A stream that counts the lines and the writes it is given, and keeps nothing."""

    def __init__(self):
        self.lines = self.writes = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        self.writes += 1
        return len(text)

    def flush(self) -> None:
        pass


class TestTraceOutput:
    # a traced run holds each line as a record of a few slots, not as its
    # text, and writes the text a batch at a time

    @staticmethod
    def peak_per_line(tmp_path, source: str) -> float:
        """The tracemalloc peak of a traced `tci run`, above the parsed tree, per trace line."""
        path = write(tmp_path, "p.tc", source)
        tracemalloc.start()
        try:
            tree = parse_program(source)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del tree
        sink = Sink()
        tracemalloc.start()
        try:
            with redirect_stdout(Sink()), redirect_stderr(sink):
                assert main(["run", path, "--trace"]) == EXIT_SUCCESS
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - size) / sink.lines

    def test_peak_per_line_of_a_chain(self, tmp_path):
        # 425 B a line when every line was held as text and then joined
        source = "main " + "; ".join(["v0 = 0", *(f"v{(i + 1) % 4} = v{i % 4} + 1" for i in range(4_999))])
        assert self.peak_per_line(tmp_path, source) <= 340

    def test_peak_per_line_of_a_tail_recursion(self, tmp_path):
        # every level's lines of rule 4 and 11 wait for the last step's
        # result; 311 B a line when every line was held as text
        source = "sum(n, acc) = (n == 0; ret = acc) else sum(n - 1, acc + n)\nmain sum(3000, 0)"
        assert self.peak_per_line(tmp_path, source) <= 220

    @pytest.mark.parametrize("count", [1, TRACE_BATCH, 3 * TRACE_BATCH + 1])
    def test_batches_write_every_line_once(self, count):
        # the records of the first `count` lines of a traced chain
        _, _, records = run_main(parse_program("main " + "; ".join(f"x{i} = {i}" for i in range(200))), trace=True)
        del records[5 * count:]
        lines = trace_lines(records)
        assert len(lines) == count
        text, sink = io.StringIO(), Sink()
        render_trace(list(records), text)
        render_trace(records, sink)
        assert text.getvalue() == "\n".join(lines) + "\n"
        assert records == [] and sink.lines == count and sink.writes == -(-count // TRACE_BATCH)


class TestImports:
    """`tci run` loads neither the reference semantics nor the heavy standard modules."""

    SRC = os.path.dirname(os.path.dirname(tci.__file__))

    def python(self, *args: str) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": self.SRC}
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)

    def test_cli_imports_no_heavy_modules(self):
        # -S: no site hooks, which may import some of these themselves
        done = self.python("-S", "-c", "import sys, tci.cli; print('\\n'.join(sorted(sys.modules)))")
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "tci.cli" in loaded
        assert loaded.isdisjoint({"dataclasses", "inspect", "typing", "pathlib", "tci.oracle"})

    def test_run_loads_no_argument_parser(self, tmp_path):
        # `-X importtime` names every module the run imports, on stderr
        path = write(tmp_path, "p.tc", "main t")
        done = self.python("-S", "-X", "importtime", "-m", "tci", "run", path)
        assert done.returncode == EXIT_SUCCESS and done.stdout == "", done.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        assert "tci.cli" in imported
        assert imported.isdisjoint({"argparse", "gettext", "locale"})

    def test_selfcheck_imports_the_oracle_itself(self):
        done = self.python("-m", "tci", "selfcheck", "--cases", "50")
        assert done.returncode == EXIT_SUCCESS, done.stdout + done.stderr
        assert done.stdout.startswith("selfcheck: cases=50 agreed=")
