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
"""

from __future__ import annotations

from dataclasses import dataclass

from .failure import FailPath, user_path
from .syntax import (
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

_TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
_ONE_CHAR_OPS = "=<>+-*/;|:,(){}"


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "str", "path", "eof", or the keyword/operator text
    text: str
    span: SourceSpan
    value: object = None


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


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def emit(kind: str, text: str, l: int, c: int, value: object = None) -> None:
        tokens.append(Token(kind, text, SourceSpan(l, c, len(text)), value))

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col

        if ch == "/" and i + 1 < n and _is_ident_start(source[i + 1]):
            # a failure path: maximal run of /-joined identifiers
            j = i
            while j < n and source[j] == "/" and j + 1 < n and _is_ident_start(source[j + 1]):
                j += 1
                while j < n and _is_ident_char(source[j]):
                    j += 1
            text = source[i:j]
            emit("path", text, start_line, start_col)
            col += j - i
            i = j
            continue

        if ch.isdigit() or (
            ch == "-"
            and i + 1 < n
            and source[i + 1].isdigit()
            and (not tokens or tokens[-1].kind not in ("int", "ident", "str", ")"))
        ):
            # a leading minus folds into the literal unless the previous
            # token could end an expression (then it is binary minus)
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            text = source[i:j]
            emit("int", text, start_line, start_col, int(text))
            col += j - i
            i = j
            continue

        if ch == '"':
            j = i + 1
            while j < n and source[j] not in ('"', "\n"):
                j += 1
            if j >= n or source[j] != '"':
                raise LexError(SourceSpan(start_line, start_col, j - i), "unterminated string literal")
            text = source[i : j + 1]
            emit("str", text, start_line, start_col, text[1:-1])
            col += j + 1 - i
            i = j + 1
            continue

        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(source[j]):
                j += 1
            text = source[i:j]
            if text == "_":
                emit("_", text, start_line, start_col)
            elif text in KEYWORDS:
                emit(text, text, start_line, start_col)
            else:
                emit("ident", text, start_line, start_col)
            col += j - i
            i = j
            continue

        two = source[i : i + 2]
        if two in _TWO_CHAR_OPS:
            emit(two, two, start_line, start_col)
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR_OPS:
            emit(ch, ch, start_line, start_col)
            i += 1
            col += 1
            continue

        raise LexError(SourceSpan(start_line, start_col, 1), f"unrecognized character {ch!r}")

    tokens.append(Token("eof", "", SourceSpan(line, col, 0)))
    return tokens


# tokens that can begin an atomic goal; a `;` not followed by one of these
# separates case arms instead of sequencing
_ATOM_STARTS = frozenset({"t", "f", "case", "ident", "int", "str", "("})


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

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
        main = self.goal()
        self.expect("eof", "end of input")
        return Program(defs, main)

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
        g = self.union_goal()
        if self.at("else"):
            self.advance()
            return Else(g, self.goal())
        return g

    def union_goal(self) -> Goal:
        g = self.seq_goal()
        if self.at("|"):
            self.advance()
            return Union(g, self.union_goal())
        return g

    def seq_goal(self) -> Goal:
        g = self.atom_goal()
        if self.at(";") and self.peek(1).kind in _ATOM_STARTS:
            self.advance()
            return Seq(g, self.seq_goal())
        return g

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

        # Remaining forms share prefixes: a test, a call, or a parenthesized
        # goal.  Try the expression route first and fall back.
        mark = self.i
        expr_error: ParseError | None = None
        try:
            e = self.expr()
        except ParseError as err:
            expr_error = err
            e = None
        if e is not None:
            if self.at(*RELOPS):
                op = self.advance().kind
                return Test(e, op, self.expr())
            if isinstance(e, CallExpr):
                return Call(e.name, e.args)
        if tok.kind == "(":
            self.i = mark
            self.advance()
            g = self.goal()
            self.expect(")")
            return g
        if expr_error is not None:
            raise expr_error
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


def parse_goal(source: str) -> Goal:
    p = _Parser(tokenize(source))
    g = p.goal()
    p.expect("eof", "end of input")
    return g


def parse_program(source: str) -> Program:
    return _Parser(tokenize(source)).program()
