import copy
import pickle
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tci.failure import ROOT
from tci.interp import Evaluator, trace_lines
from tci.oracle import gen_program
from tci.parser import (
    KEYWORDS,
    KIND_NAMES,
    DuplicateDefinition,
    LexError,
    MissingMain,
    ParseError,
    SourceError,
    SourceSpan,
    _CHUNK,
    _Parser,
    parse_goal,
    parse_program,
    tokenize,
)
from tci.syntax import (
    Assign,
    Binary,
    Call,
    CallExpr,
    Case,
    Else,
    Fail,
    IntLit,
    Param,
    Read,
    Seq,
    StrLit,
    Test as RelopTest,
    TrueGoal,
    Union,
    Program,
    Var,
    _walk,
    iter_goals,
    pretty_print,
    pretty_program,
)
from tci.store import Store


def kind_names(tokens):
    """The kind name of each token, one a character of `tokens.kinds`."""
    assert len(tokens.kinds) == len(tokens.texts)
    return [KIND_NAMES[kind] for kind in tokens.kinds]


def kinds(source):
    tokens = tokenize(source)
    return list(zip(kind_names(tokens), tokens.texts))[:-1]


def spanned(source):
    """(kind, text, line, column) of each token of `source`, eof included."""
    tokens = tokenize(source)
    spans = map(tokens.span, range(len(tokens)))
    return [(kind, text, span.line, span.column) for kind, text, span in zip(kind_names(tokens), tokens.texts, spans)]


class TestTokenize:
    def test_assignment_statement(self):
        assert kinds("x = 3; t") == [
            ("ident", "x"),
            ("=", "="),
            ("int", "3"),
            (";", ";"),
            ("t", "t"),
        ]

    def test_path_and_arm_colon(self):
        assert kinds("/F/usr/EOF: t") == [
            ("/", "/"),
            ("ident", "F"),
            ("/", "/"),
            ("ident", "usr"),
            ("/", "/"),
            ("ident", "EOF"),
            (":", ":"),
            ("t", "t"),
        ]

    def test_negative_literal_after_operator(self):
        assert kinds("read( ) != -1") == [
            ("ident", "read"),
            ("(", "("),
            (")", ")"),
            ("!=", "!="),
            ("-", "-"),
            ("int", "1"),
        ]
        assert parse_goal("read( ) != -1") == RelopTest(Read(), "!=", IntLit(-1))

    def test_minus_after_value_is_binary(self):
        assert [k for k, _ in kinds("x -1")] == ["ident", "-", "int"]
        assert [k for k, _ in kinds("2-1")] == ["int", "-", "int"]

    def test_comments_and_whitespace_discarded(self):
        assert kinds("t // trailing words\n") == [("t", "t")]

    def test_string_literal(self):
        assert kinds('"hi there"') == [("str", '"hi there"')]
        assert parse_goal('x = "hi there"') == Assign("x", StrLit("hi there"))

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_unrecognized_character(self):
        with pytest.raises(LexError) as err:
            tokenize("t ? t")
        assert err.value.span.column == 3

    def test_spans_are_one_based(self):
        assert spanned("t\n  f") == [("t", "t", 1, 1), ("f", "f", 2, 3), ("eof", "", 2, 4)]

    def test_eof_column_after_trailing_comment(self):
        assert spanned("t // c")[-1] == ("eof", "", 1, 7)

    def test_length_counts_every_token_and_eof(self):
        # the bench counts tokens as `len(tokenize(source))`
        assert len(tokenize("")) == 1
        assert len(tokenize('main x = -12; y = "s" // c\n')) == 10

    def test_spans_on_multi_line_input(self):
        # CRLF line ends, tabs, a whole-line comment, a `-` split off the
        # int after a value, and eof after the final newline
        source = 'a = 1;\r\n// whole line\r\n\tb = a -1;\r\n\t\tc = "s"\n'
        assert spanned(source) == [
            ("ident", "a", 1, 1),
            ("=", "=", 1, 3),
            ("int", "1", 1, 5),
            (";", ";", 1, 6),
            ("ident", "b", 3, 2),
            ("=", "=", 3, 4),
            ("ident", "a", 3, 6),
            ("-", "-", 3, 8),
            ("int", "1", 3, 9),
            (";", ";", 3, 10),
            ("ident", "c", 4, 3),
            ("=", "=", 4, 5),
            ("str", '"s"', 4, 7),
            ("eof", "", 5, 1),
        ]
        assert parse_goal(source) == Seq(
            Assign("a", IntLit(1)),
            Seq(Assign("b", Binary("-", Var("a"), IntLit(1))), Assign("c", StrLit("s"))),
        )

    def test_lex_error_span_on_a_later_line(self):
        with pytest.raises(LexError) as err:
            tokenize("t;\r\n\tt;\r\n// c ?\n\t  ?")
        assert (err.value.span.line, err.value.span.column) == (4, 4)
        assert str(err.value) == "4:4: unrecognized character '?'"

    def test_unterminated_string_span_runs_to_the_end_of_its_line(self):
        with pytest.raises(LexError) as err:
            tokenize('t;\n  x = "ab\t;\r\nt')
        span = err.value.span
        assert (span.line, span.column, span.length) == (2, 7, 6)
        assert err.value.message == "unterminated string literal"

    def test_long_integer_literals_are_exact(self):
        # 100,000 digits, past `int()`'s default limit of 4300, with a value
        # known in closed form: 123456789 repeated n times
        n = 100_000 // 9
        value = 123456789 * (10 ** (9 * n) - 1) // (10**9 - 1)
        assert parse_goal("x = " + "123456789" * n) == Assign("x", IntLit(value))
        assert parse_goal("x = -" + "123456789" * n) == Assign("x", IntLit(-value))
        assert parse_goal("x = 1 -" + "123456789" * n) == Assign("x", Binary("-", IntLit(1), IntLit(value)))


# pieces of source, lexically valid and not: `-` and `/` are always
# one-character tokens; `"` alone opens an unterminated string
_PIECES = ("x", "y1", "_", "t", "else", "7", "42", "-3", "-", "(", ")", "=", "==", "<=", "+", "/",
           "/F/usr/a", ";", ":", '"s"', '"', " ", "\t", "\n", "\r\n", "// c\n", "é", "?")


def _offset(source, span):
    """The offset of a 1-based `line:col` in `source`, checked to lie on that line."""
    lines = source.split("\n")
    assert 1 <= span.column <= len(lines[span.line - 1]) + 1
    return sum(len(line) + 1 for line in lines[:span.line - 1]) + span.column - 1


class TestTokenizeProperty:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
    def test_spans_point_at_each_token_or_the_first_bad_character(self, source):
        try:
            tokens = tokenize(source)
        except LexError as err:
            at = _offset(source, err.span)
            if err.message == "unterminated string literal":
                assert source[at] == '"'
            else:
                assert err.message == f"unrecognized character {source[at]!r}"
            tokenize(source[:at])  # no earlier error
            return
        n = len(tokens)
        assert [kind == "eof" for kind in kind_names(tokens)] == [False] * (n - 1) + [True]
        assert _offset(source, tokens.span(n - 1)) == len(source)
        end = 0
        for i, text in enumerate(tokens.texts[:-1]):
            span = tokens.span(i)
            at = _offset(source, span)
            assert span.length == len(text)
            assert at >= end and source[at:at + len(text)] == text
            end = at + len(text)


_DIGITS = frozenset("0123456789")
_IDENT_STARTS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_IDENT_CHARS = _IDENT_STARTS | _DIGITS


def reference_tokenize(source: str) -> tuple[list[str], list[str]]:
    """(kinds, texts) of `source`, read one character at a time by the lexical
    classes of the parser's module docstring; a bad character raises `LexError`
    as `tokenize` does."""

    def error(start: int, length: int, message: str) -> LexError:
        line_start = source.rfind("\n", 0, start) + 1
        span = SourceSpan(source.count("\n", 0, start) + 1, start - line_start + 1, length)
        return LexError(span, message)

    kinds, texts = [], []
    i, n = 0, len(source)
    while True:
        while i < n and (source[i] in " \t\r\n" or source.startswith("//", i)):
            if source[i] == "/":
                while i < n and source[i] != "\n":
                    i += 1
            else:
                i += 1
        if i == n:
            return kinds + ["eof"], texts + [""]
        c, j = source[i], i + 1
        if c in _DIGITS:
            while j < n and source[j] in _DIGITS:
                j += 1
            kind = "int"
        elif c in _IDENT_STARTS:
            while j < n and source[j] in _IDENT_CHARS:
                j += 1
            kind = source[i:j] if source[i:j] in KEYWORDS or source[i:j] == "_" else "ident"
        elif c == '"':
            while j < n and source[j] not in '"\n':
                j += 1
            if j == n or source[j] == "\n":
                raise error(i, j - i, "unterminated string literal")
            j += 1
            kind = "str"
        elif source[i:i + 2] in ("==", "!=", "<=", ">="):
            j = i + 2
            kind = source[i:j]
        elif c in "=<>+-*/;|:,(){}":
            kind = c
        else:
            raise error(i, 1, f"unrecognized character {c!r}")
        kinds.append(kind)
        texts.append(source[i:j])
        i = j


def tokenized(source: str) -> tuple[list[str], list[str]]:
    tokens = tokenize(source)
    return kind_names(tokens), tokens.texts


def lexed(lex, source):
    """`lex(source)`, (kinds, texts), or its `LexError` as (span fields, message)."""
    try:
        return lex(source)
    except LexError as err:
        return (err.span.line, err.span.column, err.span.length), err.message


class TestTokenizeDifferential:
    # what pretty-printed programs never hold
    EDGE_CASES = (
        "main x = 1;\r\n\ty = x -1;\r\n\tz = 2 // comment\r\n",
        "main x = 1// right after a token\n",
        "main x = 1;// right after a `;`\n// and a second\n\n   // and a third\n y = 2",
        "main t // a comment at eof, with no newline",
        "main t //",
        "main x = 6 / / 3",
        "main x = 6 // 3",
        "main x = 6 /// 3\n",
        "main x = 6 /\t/ 3\n",
        'main x = "a\tb//c" ;\n  z = "oops\r\n',
        'main x = "',
        "main x = 1;\n// \u00e9 in a comment\n\ty = \u00e9\n",
        "main x = 1 \u00a0 + 2",
        "main x = 1;\r\n  y = 2 ! 3\r\n",
        "main x = 1\x0b",
        "",
        "   \n\t",
    )
    # characters of every lexical class, and some that are none
    ALPHABET = "aZ_09tf \t\r\n/-=!<>+*;|:,(){}\"\u00e9?\x0b"

    def test_pretty_printed_programs(self):
        for seed in range(1000):
            source = pretty_program(gen_program(seed, 8)[0])
            assert lexed(tokenized, source) == lexed(reference_tokenize, source), seed

    @pytest.mark.parametrize("source", EDGE_CASES)
    def test_edge_cases(self, source):
        assert lexed(tokenized, source) == lexed(reference_tokenize, source)

    def test_random_strings(self):
        rng = random.Random(15)
        for _ in range(100_000):
            source = "".join(rng.choices(self.ALPHABET, k=rng.randrange(13)))
            assert lexed(tokenized, source) == lexed(reference_tokenize, source), source


class TestSharedLeaves:
    SOURCE = "x = a + a * 10; y = 10 + a"

    @staticmethod
    def unshared():
        """`SOURCE`'s tree built by hand, each leaf a node of its own."""
        return Seq(
            Assign("x", Binary("+", Var("a"), Binary("*", Var("a"), IntLit(10)))),
            Assign("y", Binary("+", IntLit(10), Var("a"))),
        )

    def test_one_node_per_distinct_leaf(self):
        g = parse_goal(self.SOURCE)
        x, y = g.first.expr, g.second.expr
        assert x.left is x.right.left is y.right
        assert x.right.right is y.left
        assert g == self.unshared()

    def test_parses_share_no_node(self):
        first, second = parse_goal(self.SOURCE), parse_goal(self.SOURCE)
        assert not set(map(id, _walk(first))) & set(map(id, _walk(second)))

    def test_copies_keep_the_value(self):
        g = parse_goal(self.SOURCE)
        assert copy.deepcopy(g) == g == pickle.loads(pickle.dumps(g))

    def test_printed_and_traced_as_an_unshared_tree(self):
        shared, unshared = parse_goal(self.SOURCE), self.unshared()
        assert pretty_print(shared) == pretty_print(unshared) == "x = a + (a * 10); y = 10 + a"
        traces = []
        for g in (shared, unshared):
            evaluator = Evaluator(Program({}, g), Store((), {"a": 3}), trace=True)
            evaluator.run(g)
            traces.append(trace_lines(evaluator.trace))
        assert traces[0] == traces[1] and len(traces[0]) == 3


class TestSharedTexts:
    @staticmethod
    def chain(n):
        """`n` statements `v = w + 123 * 45` over 50 names, 8 tokens each."""
        return "main " + "; ".join(f"v{i % 50} = w{(i + 1) % 50} + 123 * 45" for i in range(n))

    @classmethod
    def peak_per_token(cls, n):
        source = cls.chain(n)
        tokens = len(tokenize(source))
        tracemalloc.start()
        try:
            parse_program(source)
            return tracemalloc.get_traced_memory()[1] / tokens
        finally:
            tracemalloc.stop()

    def test_equal_texts_are_one_string(self):
        texts = tokenize("main abc = abc + 123; xyz = 123 + abc").texts
        assert texts[1] == "abc" and texts[1] is texts[3] is texts[11]
        assert texts[5] == "123" and texts[5] is texts[9]

    def test_assignments_to_one_name_share_its_string(self):
        g = parse_program("main total = 1; x = 2; total = total + x").main
        first, second = g.first.var, g.second.second.var
        assert first == "total" and first is second is g.second.second.expr.left.name

    def test_peak_memory_per_token(self):
        # 71.6 B a token when each occurrence kept its own string
        assert self.peak_per_token(5_000) <= 55

    def test_peak_memory_grows_linearly(self):
        assert self.peak_per_token(10_000) <= 1.1 * self.peak_per_token(5_000)


def _across_chunks(*edge_lines: str, last: str) -> str:
    """A source whose `tokenize` chunks each end just after one of `edge_lines` and its newline, then `last`."""
    parts = []
    for line in edge_lines:
        n, r = divmod(_CHUNK - len(line) - 1, len("x = 1;\n"))
        parts += "x = 1;\n" * n, "y" * r + "\n", line + "\n"
    return "".join(parts) + last


class TestChunks:
    @pytest.mark.parametrize(
        "edge_lines, last",
        [
            (["x = 2 // a comment", "// a whole-line comment", "//"], "t"),
            (['x = "a string"', 's = "a // in a string"', '""'], "t\n"),
            (['x = "no closing quote', "t"], "t\n"),
            (["x = 3\r", "y = 4;\r", "\r"], "z = 5\r\n"),
            (["x = 6;", "y = 7"], "// only a comment\n   \n"),
            (["x = 6;", "y = 7"], "// only a comment, no newline"),
            (["x = 8", "y = 9"], "z = 10"),
            (["x = " + " + ".join(map(str, range(2 * _CHUNK // 5))), "y"], "t"),
            (["x = 11 ?", "t"], "t\n"),
        ],
        ids=["comment", "string", "unterminated-string", "crlf", "comment-only-last-chunk",
             "comment-only-last-chunk-no-newline", "no-final-newline", "line-longer-than-a-chunk", "bad-character"],
    )
    def test_chunk_edges_tokenize_as_the_reference(self, edge_lines, last):
        source = _across_chunks(*edge_lines, last=last)
        assert len(source) > len(edge_lines) * _CHUNK
        assert lexed(tokenized, source) == lexed(reference_tokenize, source)

    def test_spans_after_chunk_edges(self):
        source = _across_chunks("x = 2 // c", 'y = "s"', "z = 3\r", last="main t")
        tokens = tokenize(source)
        for i in range(len(tokens)):
            span = tokens.span(i)
            assert source[_offset(source, span):][:span.length] == tokens.texts[i]


class TestRelease:
    @staticmethod
    def chain(n):
        """`n` statements over 50 names, one a line."""
        return ";\n".join(f"  v{i % 50} = w{(i + 1) % 50} + 123 * 45" for i in range(n))

    def test_peak_memory_close_to_the_tree(self):
        defs = "".join(f"p{i}(a, b) = x = a + {i}; y = x * b | z = b\n" for i in range(100))
        for source in ("main " + self.chain(5_000) + "\n", "main " + self.chain(20_000) + "\n",
                       defs + "main " + self.chain(5_000) + "\n"):
            tracemalloc.start()
            try:
                tree = parse_program(source)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # 1.67 when every token was held until the parse ended, and 1.27 /
            # 1.22 / 1.25 when each kind took a list slot, so that the peak came
            # at the first release, with half the tree built
            assert isinstance(tree.main, Seq)
            assert peak <= 1.03 * held

    @pytest.mark.parametrize(
        "source, error, length",
        [
            ("main " + chain(3999) + ";\n  v1 = = 2;\n" + chain(1000), "4000:8: expected an expression", 1),
            ("main " + chain(3000) + ";\n  (((x = 1; (t | y = 2)) }\n", "3001:26: expected ')'", 1),
            ("dup() = " + chain(3000) + "\ndup() = " + chain(1000) + "\nmain t\n",
             "3001:1: duplicate definition of dup/0", 3),
            ("q() = " + chain(3000) + "\nsets(u) = " + chain(1000) + ";\n  u = 1\nmain sets(1)\n",
             "3001:1: definition of sets assigns to its own parameter(s): u", 4),
            ("main " + chain(3000) + ";\n  f(/G/x)\n", "3001:5: failure path must be rooted at /F: ('G', 'x')", 1),
            ("".join(f"p{i}(a) = x = a + {i}; y = x * 2\n" for i in range(500)), "501:1: program has no main goal", 0),
        ],
        ids=["bad-token", "unclosed-parenthesis", "duplicate-definition", "assigned-parameter", "unrooted-path",
             "no-main"],
    )
    def test_errors_after_releases_keep_their_spans(self, source, error, length):
        parser = _Parser(tokenize(source))
        with pytest.raises(ParseError) as err:
            parser.program()
        assert (str(err.value), err.value.span.length) == (error, length)
        assert parser.tokens.base > 0  # tokens were released before the error

    def test_releases_keep_the_token_count(self):
        source = "main " + self.chain(2_000)
        tokens = tokenize(source)
        n = len(tokens)
        parser = _Parser(tokens)
        parser.program()
        assert tokens.base > n // 2 and len(tokens) == n


class TestParameters:
    def test_body_reads_parameters_by_position(self):
        p = parse_program("g(a, b) = ret = b - a * b\nmain t")
        a, b = Param("a", 0), Param("b", 1)
        assert p.defs[("g", 2)].body == Assign("ret", Binary("-", b, Binary("*", a, b)))

    def test_parameter_name_is_a_global_outside_its_body(self):
        # in main and in a later body, an earlier definition's parameter
        # name reads the store
        p = parse_program("g(n) = ret = n\nh(m) = ret = n + m\nmain x = n + g(n)")
        assert p.defs[("g", 1)].body == Assign("ret", Param("n", 0))
        assert p.defs[("h", 1)].body == Assign("ret", Binary("+", Var("n"), Param("m", 0)))
        assert p.main == Assign("x", Binary("+", Var("n"), CallExpr("g", (Var("n"),))))

    def test_parameter_names_print_back(self):
        source = "g(n, s) = (n == 0; ret = s) else ret = g(n - 1, s + n)\nmain x = g(3, 0)\n"
        assert pretty_program(parse_program(source)) == source

    @pytest.mark.parametrize(
        "body",
        [
            "f else case Failtree of { /F/usr/a: t; /F: n = 1; _: t }",
            "t else (x = 1; n = x)",
            "((t; (n = 2)))",
            "x = 1 | n = 2",
        ],
        ids=["case-arm", "else-handler", "parentheses", "union-operand"],
    )
    def test_assignment_to_a_parameter_is_rejected_at_the_definition(self, body):
        with pytest.raises(ParseError) as err:
            parse_program(f"q() = t\n  p(m, n) = {body}\nmain t")
        assert str(err.value) == "2:3: definition of p assigns to its own parameter(s): n"

    def test_every_assigned_parameter_is_named(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(a, b, c) = c = 1; a = 2; c = 3\nmain t")
        assert err.value.message == "definition of p assigns to its own parameter(s): a, c"

    def test_duplicate_parameters_are_reported_first(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(n, n) = n = 1\nmain t")
        assert str(err.value) == "1:1: duplicate parameter in definition of p"

    def test_a_parameter_name_may_be_assigned_outside_its_body(self):
        p = parse_program("g(n) = ret = n\nh(m) = n = m\nmain n = 1; g(n)")
        assert p.defs[("h", 1)].body == Assign("n", Param("m", 0))
        assert p.main == Seq(Assign("n", IntLit(1)), Call("g", (Var("n"),)))

    def test_a_syntax_error_in_the_body_wins(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(n) = n = 1; (t\nmain t")
        assert str(err.value) == "2:1: expected ')'"

    def test_a_long_body_is_checked_at_the_default_recursion_limit(self, default_recursion_limit):
        # 20,000 statements, the last an assignment to the parameter
        chain = "; ".join(f"x{i} = {i}" for i in range(19_999))
        with pytest.raises(ParseError) as err:
            parse_program(f"\np(u) = {chain}; u = 1\nmain p(1)")
        assert str(err.value) == "2:1: definition of p assigns to its own parameter(s): u"


class TestParseGoal:
    def test_semicolon_binds_tighter_than_else(self):
        g = parse_goal("a(); b() else c()")
        assert g == Else(Seq(Call("a"), Call("b")), Call("c"))

    def test_union_of_atoms(self):
        assert parse_goal("f | t") == Union(Fail(ROOT), TrueGoal())

    def test_seq_right_associative(self):
        assert parse_goal("t; t; t") == Seq(TrueGoal(), Seq(TrueGoal(), TrueGoal()))

    def test_union_right_associative(self):
        assert parse_goal("t | t | f") == Union(TrueGoal(), Union(TrueGoal(), Fail(ROOT)))

    def test_union_binds_tighter_than_else(self):
        g = parse_goal("t | f else t")
        assert g == Else(Union(TrueGoal(), Fail(ROOT)), TrueGoal())

    def test_parentheses_override(self):
        g = parse_goal("t; (t else f)")
        assert g == Seq(TrueGoal(), Else(TrueGoal(), Fail(ROOT)))

    def test_test_goal_with_read(self):
        assert parse_goal("read() != -1") == RelopTest(Read(), "!=", IntLit(-1))

    def test_test_with_call_operand(self):
        g = parse_goal("p(1) < 2")
        assert g == RelopTest(CallExpr("p", (IntLit(1),)), "<", IntLit(2))

    def test_assignment_vs_equality(self):
        assert parse_goal("x = 1") == Assign("x", IntLit(1))
        assert parse_goal("x == 1") == RelopTest(Var("x"), "==", IntLit(1))

    def test_fail_arguments(self):
        assert parse_goal("f(EOF)") == Fail("/F/usr/EOF")
        assert parse_goal("f(io/disk)") == Fail("/F/usr/io/disk")
        assert parse_goal("f(/F/sys/test)") == Fail("/F/sys/test")

    def test_case_with_default(self):
        g = parse_goal("case Failtree of { /F/sys: t; /F/usr/EOF: f; _: t }")
        assert isinstance(g, Case)
        assert [p for p, _ in g.arms] == ["/F/sys", "/F/usr/EOF"]
        assert g.default == TrueGoal()

    def test_case_arm_body_may_be_a_sequence(self):
        g = parse_goal("case Failtree of { /F: x = 1; y = 2; /F/usr: t }")
        assert isinstance(g, Case)
        assert len(g.arms) == 2
        assert g.arms[0][1] == Seq(Assign("x", IntLit(1)), Assign("y", IntLit(2)))

    def test_arm_path_must_be_rooted(self):
        with pytest.raises(ParseError):
            parse_goal("case Failtree of { /bad: t }")

    def test_bare_variable_is_not_a_goal(self):
        with pytest.raises(ParseError):
            parse_goal("x")

    def test_arithmetic_precedence_in_exprs(self):
        g = parse_goal("x = 1 + 2 * 3")
        assert g == Assign("x", Binary("+", IntLit(1), Binary("*", IntLit(2), IntLit(3))))


class TestMinusAndSlash:
    """`-` and `/` are operators wherever they appear; only the parser builds negative literals and paths."""

    @pytest.mark.parametrize(
        "source, left, right",
        [
            ("x = a/b", Var("a"), Var("b")),
            ("x = 10/n", IntLit(10), Var("n")),
            ("ret = total/count", Var("total"), Var("count")),
            ("x = (a)/b", Var("a"), Var("b")),
            ("x = p(a)/q(b)", CallExpr("p", (Var("a"),)), CallExpr("q", (Var("b"),))),
        ],
    )
    def test_slash_before_a_name_divides(self, source, left, right):
        assert parse_goal(source) == Assign(source.split()[0], Binary("/", left, right))

    @pytest.mark.parametrize("source", ["x = --1", "x = - -1", "x = - - 1"])
    def test_double_minus_is_an_error(self, source):
        with pytest.raises(ParseError) as err:
            parse_goal(source)
        assert str(err.value) == "1:5: expected an expression"

    def test_semicolon_before_minus_sequences(self):
        assert parse_goal("x = 1; - 1 == x") == Seq(
            Assign("x", IntLit(1)), RelopTest(IntLit(-1), "==", Var("x"))
        )

    @pytest.mark.parametrize(
        "source", ["f(/F/usr/t)", "f(/F/usr/_)", "f(/F/sys/case)", "case Failtree of { /F/sys/case: t }"]
    )
    def test_any_name_is_a_path_segment(self, source):
        g = parse_goal(source)
        assert parse_goal(pretty_print(g)) == g

    def test_spaces_around_a_path_slash_are_optional(self):
        assert parse_goal("f(a / t)") == parse_goal("f(a/t)") == Fail("/F/usr/a/t")

    @pytest.mark.parametrize(
        "source, message",
        [
            ("f()", "1:3: expected a failure name or path"),
            ("f(/)", "1:3: expected a failure name or path"),
            ("f(a/)", "1:4: expected ')'"),
            ("case Failtree of { /: t }", "1:20: expected a failure path"),
            ("case Failtree of { /F/: t }", "1:22: expected ':'"),
            ("case Failtree of { /G/x: t }", "1:20: failure path must be rooted at /F: ('G', 'x')"),
            ("f(/G/x)", "1:3: failure path must be rooted at /F: ('G', 'x')"),
        ],
    )
    def test_malformed_path_errors(self, source, message):
        with pytest.raises(ParseError) as err:
            parse_goal(source)
        assert str(err.value) == message


class TestParseProgram:
    UNION_FORM = """
readfile() = (read() != -1) else f(EOF)
main (openfile(); readfile()) | x = factorial(4)
"""

    def test_union_form_listing(self):
        p = parse_program(self.UNION_FORM)
        assert set(p.defs) == {("readfile", 0)}
        assert p.main == Union(
            Seq(Call("openfile"), Call("readfile")),
            Assign("x", CallExpr("factorial", (IntLit(4),))),
        )

    def test_minimal_program(self):
        p = parse_program("main t")
        assert p.defs == {} and p.main == TrueGoal()

    def test_incomplete_else(self):
        with pytest.raises(ParseError):
            parse_program("main x = 1 else")

    def test_missing_main(self):
        with pytest.raises(MissingMain):
            parse_program("p() = t")

    def test_duplicate_definition(self):
        with pytest.raises(DuplicateDefinition):
            parse_program("p() = t\np() = f\nmain t")

    def test_same_name_different_arity_allowed(self):
        p = parse_program("p() = t\np(u) = t\nmain t")
        assert set(p.defs) == {("p", 0), ("p", 1)}

    def test_assigning_to_parameter_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(u) = u = 1\nmain t")
        assert "parameter" in str(err.value)

    def test_assigning_to_a_parameter_under_a_global_name_rejected(self):
        # `n` is a global in main, but a parameter in p's body
        with pytest.raises(ParseError) as err:
            parse_program("p(n) = (x = n; n = x + 1)\nmain n = 1; p(n)")
        assert "assigns to its own parameter(s): n" in str(err.value)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_program("main t t")


class TestParenthesisDecision:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("(x + 1) * 2 == y",
             RelopTest(Binary("*", Binary("+", Var("x"), IntLit(1)), IntLit(2)), "==", Var("y"))),
            ("((x)) == 1", RelopTest(Var("x"), "==", IntLit(1))),
            ("(x) - 1 < y", RelopTest(Binary("-", Var("x"), IntLit(1)), "<", Var("y"))),
            ("(g(x))", Call("g", (Var("x"),))),
            ("(f(x))", Fail("/F/usr/x")),
            ("((x) + 1) == 2", RelopTest(Binary("+", Var("x"), IntLit(1)), "==", IntLit(2))),
            ("(t) | x == 1", Union(TrueGoal(), RelopTest(Var("x"), "==", IntLit(1)))),
            ("(g(x)) == 1", RelopTest(CallExpr("g", (Var("x"),)), "==", IntLit(1))),
        ],
    )
    def test_operand_or_goal(self, source, expected):
        assert parse_goal(source) == expected

    @pytest.mark.parametrize(
        "source", ["(x = 1) == 2", "(t; x = 1", "((x) == 1", "(x) = 1", "t == 1", "x + 1; t", "g(x = 1)"]
    )
    def test_malformed_parentheses_rejected_inside_the_source(self, source):
        with pytest.raises(ParseError) as err:
            parse_goal(source)
        assert err.value.span.line == 1
        assert 1 <= err.value.span.column <= len(source) + 1


class TestLinearity:
    @staticmethod
    def parser_lines(source):
        """The number of lines of `tci/parser.py` executed to parse `source`."""
        parser_file = _Parser.goal.__code__.co_filename
        lines = 0

        def count(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count

        def enter(frame, event, arg):
            return count if frame.f_code.co_filename == parser_file else None

        previous = sys.gettrace()
        sys.settrace(enter)
        try:
            parse_goal(source)
        finally:
            sys.settrace(previous)
        return lines

    def test_parser_lines_grow_linearly_with_nesting(self, default_recursion_limit):
        def nested(n):
            goals = "(" * n + "t; (x) == 1" + ")" * n
            operand = "(" * n + "x" + ")" * n + " == 1"
            return f"{goals} | {operand}"

        for n in (100, 5_000):
            small, large = (self.parser_lines(nested(m)) for m in (n, 2 * n))
            assert large <= 2 * small + 10

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("(" * 100_000 + "t" + ")" * 100_000, TrueGoal()),
            ("x = " + "(" * 100_000 + "1" + ")" * 100_000, Assign("x", IntLit(1))),
            ("(" * 100_000 + "x" + ")" * 100_000 + " == 1", RelopTest(Var("x"), "==", IntLit(1))),
        ],
        ids=["goal", "assignment", "test-operand"],
    )
    def test_deep_nesting_parses_at_the_default_recursion_limit(self, source, expected,
                                                                default_recursion_limit):
        assert parse_goal(source) == expected

    def test_long_chains_parse_at_the_default_recursion_limit(self, default_recursion_limit):
        n = 20_000
        chain = "; ".join(f"x{i} = {i}" for i in range(n))
        g = parse_goal(chain)
        assert isinstance(g, Seq) and g.first == Assign("x0", IntLit(0))
        assert sum(isinstance(sub, Seq) for sub in iter_goals(g)) == n - 1
        g = parse_goal(" | ".join(["t"] * n))
        assert sum(isinstance(sub, Union) for sub in iter_goals(g)) == n - 1
        body = parse_program(f"p(u) = {chain}\nmain p(1)").defs[("p", 1)].body
        assert sum(isinstance(sub, Assign) for sub in iter_goals(body)) == n
        with pytest.raises(ParseError, match="parameter"):
            parse_program(f"p(u) = {chain}; u = 1\nmain p(1)")


class TestErrorSpans:
    def sources(self):
        programs = [
            "main t; (x = ",
            "main case Failtree of { /F t }",
            "p( = t main t",
            "main x = 1 else",
            "main (t; ",
        ]
        rng = random.Random(5)
        base = pretty_program(gen_program(3, 6)[0])
        for _ in range(40):
            cut = rng.randrange(1, len(base))
            programs.append(base[:cut])
        return programs

    def test_errors_carry_spans_inside_the_source(self):
        for source in self.sources():
            lines = source.split("\n")
            try:
                parse_program(source)
            except SourceError as err:
                assert 1 <= err.span.line <= len(lines)
                # column may point just past the end of a line (at eof)
                assert 1 <= err.span.column <= len(lines[err.span.line - 1]) + 1


class TestPrecedenceProperty:
    ATOMS = ("t", "f", "x = 1", "p()", "read() != -1")

    def test_seq_else_and_union_seq_shapes(self):
        rng = random.Random(2)
        for _ in range(60):
            a, b, c = (rng.choice(self.ATOMS) for _ in range(3))
            left = parse_goal(f"{a}; {b} else {c}")
            assert isinstance(left, Else) and isinstance(left.tried, Seq)
            right = parse_goal(f"{a} | {b}; {c}")
            assert isinstance(right, Union) and isinstance(right.second, Seq)

    def test_round_trip_on_generated_goals(self):
        for seed in range(300):
            program, _, _ = gen_program(seed, 7)
            assert parse_goal(pretty_print(program.main)) == program.main

    def test_round_trip_without_optional_spaces(self):
        for seed in range(3000):
            program, _, _ = gen_program(seed, 7)
            text = re.sub(r" *([-/]) *", r"\1", pretty_program(program))
            if "//" in text:  # would start a comment
                continue
            assert parse_program(text) == program, seed
