"""Tokenizer and parser for .tc source files.

Grammar:

    program   := { def } "main" goal
    def       := IDENT "(" [ IDENT { "," IDENT } ] ")" "=" goal
    goal      := union_g [ "else" goal ]
    union_g   := seq_g [ "|" union_g ]
    seq_g     := atom_g [ ";" seq_g ]
    atom_g    := "t" | "f" [ "(" failarg ")" ] | casegoal | IDENT "=" expr
               | IDENT "(" [ expr { "," expr } ] ")" | test | "(" goal ")"
    test      := expr RELOP expr          RELOP := "==" | "!=" | "<" | "<=" | ">" | ">="
    casegoal  := "case" "Failtree" "of" "{" arm { ";" arm } [ ";" "_" ":" goal ] "}"
    arm       := PATH ":" goal
    failarg   := IDENT { "/" IDENT } | PATH
    expr      := term { ("+"|"-") term }
    term      := factor { ("*"|"/") factor }
    factor    := INT | STRING | IDENT | IDENT "(" [ expr { "," expr } ] ")"
               | "read" "(" ")" | "(" expr ")" | "-" INT

`else`, `|` and `;` are right-associative, loosest to tightest in that
order.  `=` assigns; `==` compares.  A run of `/`-joined identifiers with
a leading `/` is a failure-path token.  `//` starts a line comment.

Lexical classes are ASCII: an INT is `[0-9]+`, an IDENT is
`[A-Za-z_][A-Za-z0-9_]*`, a STRING is `"` up to the next `"` on the same
line, and whitespace is space, tab, carriage return and newline.  Any
other character is a lexical error.

A goal that starts with `(` is a test, as in `(x + 1) * 2 == y`, when the
token after the matching `)` is a relational or arithmetic operator;
otherwise it is a parenthesised goal.  No goal can be followed by an
operator, so this one-token decision never rejects a valid program and
the parser never backtracks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .failure import FailPath, user_path
from .syntax import (
    ARITH_OPS,
    Assign,
    Binary,
    Call,
    CallExpr,
    Case,
    Def,
    Else,
    Expr,
    Fail,
    Goal,
    IntLit,
    Program,
    Read,
    RELOPS,
    Seq,
    StrLit,
    Test,
    TrueGoal,
    Union,
    Var,
)

KEYWORDS = frozenset({"t", "f", "else", "case", "of", "main", "Failtree"})


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Token(NamedTuple):
    kind: str  # "ident", "int", "str", "path", "eof", or the keyword/operator text
    text: str
    line: int
    column: int
    value: object = None

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, len(self.text))


class SourceError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class LexError(SourceError):
    pass


class ParseError(SourceError):
    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        if expected and not message:
            message = "expected " + " or ".join(expected)
        super().__init__(span, message)
        self.expected = expected


class DuplicateDefinition(ParseError):
    def __init__(self, span: SourceSpan, name: str, arity: int):
        super().__init__(span, f"duplicate definition of {name}/{arity}")
        self.name = name
        self.arity = arity


class MissingMain(ParseError):
    def __init__(self, span: SourceSpan):
        super().__init__(span, "program has no main goal")


# One match per token: a skipped prefix of whitespace and `//` comments,
# then exactly one named group.  A string may lack its closing quote so
# that the tokenizer can report it; `bad` takes any other character.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*)*"
    r"(?:(?P<path>(?:/[A-Za-z_][A-Za-z0-9_]*)+)"
    r"|(?P<int>-?[0-9]+)"
    r'|(?P<str>"[^"\n]*"?)'
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>==|!=|<=|>=|[=<>+\-*/;|:,(){}])"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))"
)

_WORD_KINDS = {**{k: k for k in KEYWORDS}, "_": "_"}

# token kinds that can end an expression: a `-` after one is binary minus
_VALUE_ENDS = frozenset({"int", "ident", "str", ")"})


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    kind = ""
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        text = m[group]
        start = m.start(group)
        if start != m.start():
            newlines = source.count("\n", m.start(), start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", 0, start) + 1
        col = start - line_start + 1
        value = None
        if group == "word":
            kind = _WORD_KINDS.get(text, "ident")
        elif group == "op":
            kind = text
        elif group == "int":
            if text[0] == "-" and kind in _VALUE_ENDS:
                # a leading minus folds into the literal unless the previous
                # token could end an expression (then it is binary minus)
                tokens.append(Token("-", "-", line, col))
                text, col = text[1:], col + 1
            kind, value = "int", int(text)
        elif group == "str":
            if len(text) < 2 or text[-1] != '"':
                raise LexError(SourceSpan(line, col, len(text)), "unterminated string literal")
            kind, value = "str", text[1:-1]
        elif group == "path":
            kind = "path"
        elif group == "eof":
            break
        else:
            raise LexError(SourceSpan(line, col, 1), f"unrecognized character {text!r}")
        tokens.append(Token(kind, text, line, col, value))
    tokens.append(Token("eof", "", line, col))
    return tokens


# tokens that can begin an atomic goal; a `;` not followed by one of these
# separates case arms instead of sequencing
_ATOM_STARTS = frozenset({"t", "f", "case", "ident", "int", "str", "("})

# tokens that make a parenthesised operand out of the `(...)` before them
_OPERATORS = frozenset(RELOPS + ARITH_OPS)


def _right_nested(node, parts: list) -> Goal:
    """`node(p0, node(p1, ... pn))`, built without recursion."""
    g = parts.pop()
    while parts:
        g = node(parts.pop(), g)
    return g


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        # index of the matching ")" of every "(" that has one
        self.closing: dict[int, int] = {}
        opened: list[int] = []
        for j, tok in enumerate(tokens):
            if tok.kind == "(":
                opened.append(j)
            elif tok.kind == ")" and opened:
                self.closing[opened.pop()] = j

    def peek(self, ahead: int = 0) -> Token:
        # eof is last and is never looked past
        return self.tokens[self.i + ahead]

    def at(self, *kinds: str) -> bool:
        return self.tokens[self.i].kind in kinds

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(tok.span, "", expected=(what or f"'{kind}'",))
        return self.advance()

    # -- program -----------------------------------------------------------

    def program(self) -> Program:
        defs: dict[tuple[str, int], Def] = {}
        while not self.at("main"):
            if self.at("eof"):
                raise MissingMain(self.peek().span)
            d, span = self.definition()
            key = (d.name, len(d.params))
            if key in defs:
                raise DuplicateDefinition(span, *key)
            defs[key] = d
        self.expect("main")
        return Program(defs, self.goal())

    def definition(self) -> tuple[Def, SourceSpan]:
        name_tok = self.expect("ident", "a procedure definition or 'main'")
        self.expect("(")
        params: list[str] = []
        if not self.at(")"):
            params.append(self.expect("ident", "a parameter name").text)
            while self.at(","):
                self.advance()
                params.append(self.expect("ident", "a parameter name").text)
        self.expect(")")
        self.expect("=")
        body = self.goal()
        try:
            return Def(name_tok.text, tuple(params), body), name_tok.span
        except ValueError as err:
            raise ParseError(name_tok.span, str(err)) from None

    # -- goals -------------------------------------------------------------

    def goal(self) -> Goal:
        parts = [self.union_goal()]
        while self.at("else"):
            self.advance()
            parts.append(self.union_goal())
        return _right_nested(Else, parts)

    def union_goal(self) -> Goal:
        parts = [self.seq_goal()]
        while self.at("|"):
            self.advance()
            parts.append(self.seq_goal())
        return _right_nested(Union, parts)

    def seq_goal(self) -> Goal:
        parts = [self.atom_goal()]
        while self.at(";") and self.peek(1).kind in _ATOM_STARTS:
            self.advance()
            parts.append(self.atom_goal())
        return _right_nested(Seq, parts)

    def atom_goal(self) -> Goal:
        tok = self.peek()
        if tok.kind == "t":
            self.advance()
            return TrueGoal()
        if tok.kind == "f":
            self.advance()
            if self.at("("):
                self.advance()
                path = self.failarg()
                self.expect(")")
                return Fail(path)
            return Fail()
        if tok.kind == "case":
            return self.case_goal()
        if tok.kind == "ident" and self.peek(1).kind == "=":
            name = self.advance().text
            self.advance()
            return Assign(name, self.expr())
        if tok.kind == "(":
            close = self.closing.get(self.i)
            if close is None or self.tokens[close + 1].kind not in _OPERATORS:
                self.advance()
                g = self.goal()
                self.expect(")")
                return g

        # a test, or a call statement
        e = self.expr()
        if self.at(*RELOPS):
            op = self.advance().kind
            return Test(e, op, self.expr())
        if isinstance(e, CallExpr):
            return Call(e.name, e.args)
        raise ParseError(tok.span, "", expected=("a statement",))

    def case_goal(self) -> Goal:
        self.expect("case")
        self.expect("Failtree")
        self.expect("of")
        self.expect("{")
        arms = [self.case_arm()]
        default: Goal | None = None
        while self.at(";"):
            self.advance()
            if self.at("_"):
                self.advance()
                self.expect(":")
                default = self.goal()
                break
            arms.append(self.case_arm())
        self.expect("}")
        return Case(tuple(arms), default)

    def case_arm(self) -> tuple[FailPath, Goal]:
        tok = self.expect("path", "a failure path")
        try:
            path = FailPath.parse(tok.text)
        except ValueError as err:
            raise ParseError(tok.span, str(err)) from None
        self.expect(":")
        return path, self.goal()

    def failarg(self) -> FailPath:
        tok = self.peek()
        if tok.kind == "path":
            self.advance()
            try:
                return FailPath.parse(tok.text)
            except ValueError as err:
                raise ParseError(tok.span, str(err)) from None
        name = self.expect("ident", "a failure name or path").text
        segments = [name]
        while True:
            if self.at("path"):
                segments.extend(self.advance().text[1:].split("/"))
            elif self.at("/") and self.peek(1).kind == "ident":
                self.advance()
                segments.append(self.advance().text)
            else:
                break
        return user_path(segments)

    # -- expressions -------------------------------------------------------

    def expr(self) -> Expr:
        e = self.term()
        while self.at("+", "-"):
            op = self.advance().kind
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.at("*", "/"):
            op = self.advance().kind
            e = Binary(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(tok.value)
        if tok.kind == "str":
            self.advance()
            return StrLit(tok.value)
        if tok.kind == "-" and self.peek(1).kind == "int":
            self.advance()
            return IntLit(-self.advance().value)
        if tok.kind == "ident":
            name = self.advance().text
            if name == "read" and self.at("(") and self.peek(1).kind == ")":
                self.advance()
                self.advance()
                return Read()
            if self.at("("):
                self.advance()
                args: list[Expr] = []
                if not self.at(")"):
                    args.append(self.expr())
                    while self.at(","):
                        self.advance()
                        args.append(self.expr())
                self.expect(")")
                return CallExpr(name, tuple(args))
            return Var(name)
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError(tok.span, "", expected=("an expression",))


def _parse(source: str, rule):
    p = _Parser(tokenize(source))
    try:
        result = rule(p)
    except RecursionError:
        raise ParseError(p.peek().span, "nesting too deep") from None
    p.expect("eof", "end of input")
    return result


def parse_goal(source: str) -> Goal:
    return _parse(source, _Parser.goal)


def parse_program(source: str) -> Program:
    return _parse(source, _Parser.program)
