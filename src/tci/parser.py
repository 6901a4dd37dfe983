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
    arm       := "/" path ":" goal
    failarg   := [ "/" ] path
    path      := NAME { "/" NAME }       NAME := IDENT | keyword | "_"
    expr      := term { ("+"|"-") term }
    term      := factor { ("*"|"/") factor }
    factor    := INT | STRING | IDENT | IDENT "(" [ expr { "," expr } ] ")"
               | "read" "(" ")" | "(" expr ")" | "-" INT

`else`, `|` and `;` are right-associative, loosest to tightest in that
order.  `=` assigns; `==` compares.  A failure path with a leading `/`
is rooted at /F; without one it goes under /F/usr.  `-` and `/` are
one-character operator tokens wherever they appear: the parser alone
reads `-` INT as a negative literal and `/`-joined names as a path.
`//` starts a line comment.

Lexical classes are ASCII: an INT is `[0-9]+`, unsigned, an IDENT is
`[A-Za-z_][A-Za-z0-9_]*`, a STRING is `"` up to the next `"` on the same
line, and whitespace is space, tab, carriage return and newline.  Any
other character is a lexical error.

`tokenize` keeps the tokens as a list of texts and a string of kinds,
with no object per token.  It reads the source a chunk of a few KB at a
time, each ending just after a newline, so that no token straddles two
chunks: one `findall` per chunk gives its texts; the whitespace before a
token is one character-class run, and comments are entered only at a
`//`.  Equal texts then share one string, through a table local to the
call, for the life of the parse: a name or number used a thousand times
is held once, and every `Assign`, `Call`, `Def`, `Param` or `Var` name
taken from it is that one string.  A chunk's texts go through the table
before the next chunk is read, so the unshared strings of only one chunk
exist at a time.  A token's kind is one ASCII character (`KIND_CHARS`):
punctuation, `t`, `f` and `_` are their own character, and each other
kind (ident, int, str, eof, bad, the other keywords and the two-character
operators) has one of its own.  So the kinds of a source are one `str`
of a byte a token, where a list would take a pointer.  They are learned
per call, as code points, in a table seeded with the keywords and
punctuation: a new identifier, number or string gets its first
character's kind once, and every later occurrence costs one lookup, so
no Python code runs per repeated token.  The whole source is tokenized
before parsing starts, so a lexical error comes first.

The parser releases the tokens it has read: each time it pushes `;`,
`|` or `else` with more than half of the tokens read, it deletes the
read front of the texts, replaces the kinds by a copy of their unread
rest, and `Tokens.base` counts the tokens released.  Each release halves
the tokens at least, so the releases take linear time in all, and a
parse holds its tree plus at most twice the tokens it has not read yet.
At 9 bytes a token (a text pointer and a kind), that is less than the
part of the tree still to be built, so a parse peaks at its end, at the
tree and the leaf table: with a list slot a kind, it peaked at the
first release, where half the tree is built while both lists, which
CPython shrinks only once they are less than half full, are still
allocated in full.  A token's start offset is found only when an error
needs its `line:col` span, by matching the whole source again, so the
span of token `base + i` does not depend on what was released.

One parse builds one `Var` or `IntLit` node per distinct name or
unsigned literal text and shares it wherever that text occurs
(hash-consing): nodes are immutable, and no table keyed by identity
holds leaves.  Parameters are resolved in the same table: while a
definition's body parses, each parameter name maps to its `Param(name,
k)`, overlaid on the name's entry and deleted after the body, so the
body reads its k-th argument by position at no extra cost per token,
and the same name outside the body reads the global store.  The overlay
also enforces the parameter rules as the body is read: an assignment
whose target maps to a `Param` is noted, and once the body has parsed,
the definition is rejected if its parameters repeat or it assigned
one.  A literal's value is converted once per distinct text, in time
subquadratic in its digits.

One reducer parses goals and expressions alike: a shunting-yard
(Dijkstra 1961; Pratt, POPL 1973) over one explicit stack and one
operator table, loosest to tightest `else` < `|` < `;` < the prefix
`IDENT =` < relational < `+ -` < `* /`.  The stack also holds the open
`(`, call-argument and `case` contexts.  A `(` only groups, as in
`(x + 1) * 2 == y` or `(t; x = 1) | t`: whether an operand is a goal or
an expression is checked when it is reduced or when its context ends,
and a bare call expression there becomes a call statement.  No
expression operator follows a goal, so a test or an assignment ends at
a second relational operator; `t`, `f`, `case` and `IDENT =` start only
where a goal may start.  So the parser never backtracks, and nesting of
any depth parses without host recursion, at any recursion limit, in
time linear in the tokens.
"""

from __future__ import annotations

import re
from functools import cached_property

from .failure import user_path
from .record import Record, field_setters
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
    PRECEDENCE,
    Param,
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


class SourceSpan(Record):
    __slots__ = ("line", "column", "length")

    def __init__(self, line: int, column: int, length: int):
        _set_span_line(self, line)
        _set_span_column(self, column)
        _set_span_length(self, length)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


_set_span_line, _set_span_column, _set_span_length = field_setters(SourceSpan)


class Tokens:
    """The tokens of one source: their kinds as one string, a character a
    token (`KIND_CHARS`), and their texts as a list.

    A parse releases the tokens it has read from the front of both; `base`
    counts them, so index `i` is token `base + i` of the source.  Start
    offsets are built on first use, for an error's span: the parser itself
    reads only kinds and texts.
    """

    def __init__(self, source: str, kinds: str, texts: list[str]):
        self.source = source
        self.kinds = kinds
        self.texts = texts
        self.base = 0

    def __len__(self) -> int:
        return self.base + len(self.kinds)

    @cached_property
    def starts(self) -> list[int]:
        """The start offset of each token of the source, from a second pass of the regex that found the texts."""
        return [m.start(1) for m in _TOKEN.finditer(self.source)]

    def span(self, i: int) -> SourceSpan:
        """The `line:col` of token `i` of the source, from the newlines before it: a failed parse needs one span."""
        source, offset = self.source, self.starts[i]
        line_start = source.rfind("\n", 0, offset) + 1
        length = _TOKEN.match(source, offset).end(1) - offset
        return SourceSpan(source.count("\n", 0, offset) + 1, offset - line_start + 1, length)


class SourceError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class LexError(SourceError):
    pass


class ParseError(SourceError):
    pass


class DuplicateDefinition(ParseError):
    def __init__(self, span: SourceSpan, name: str, arity: int):
        super().__init__(span, f"duplicate definition of {name}/{arity}")
        self.name = name
        self.arity = arity


class MissingMain(ParseError):
    def __init__(self, span: SourceSpan):
        super().__init__(span, "program has no main goal")


# Characters of source per `findall` in `tokenize`, at least: a chunk runs on to
# the end of its line.
_CHUNK = 4096

_PUNCTUATION = ("==", "!=", "<=", ">=", *"=<>+-*/;|:,(){}")

# One match per token: a skipped prefix of whitespace and `//` comments,
# then the token's text as group 1.  The prefix enters its comment loop
# only at a `//`, so before most tokens it is one character-class run.
# `\Z` gives the empty text of eof, and `.` takes a bad character, or the
# `"` of a string with no closing quote.  No two alternatives before `\Z`
# can start on the same character, except the operators, where the
# two-character ones come first; identifiers, the commonest, are tried first.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:(?=//)(?://[^\n]*[ \t\r\n]*)+|)"
    r"([A-Za-z_][A-Za-z0-9_]*"
    r"|[0-9]+"
    r"|[=!<>]=|[-+*/;|:,(){}=<>]"
    r'|"[^"\n]*"'
    r"|\Z"
    r"|.)"
)

# The kind of each token as one ASCII character, so that a source's kinds are
# one `str` of a byte a token: punctuation, `t`, `f` and `_` are their own
# character, and each other kind has a letter or sign of its own.
KIND_CHARS = {
    "ident": "i", "int": "0", "str": '"', "eof": "$", "bad": "?",
    "else": "e", "case": "c", "of": "o", "main": "m", "Failtree": "F",
    "==": "E", "!=": "N", "<=": "L", ">=": "G",
    **{text: text for text in ("t", "f", "_", *"=<>+-*/;|:,(){}")},
}
KIND_NAMES = {char: name for name, char in KIND_CHARS.items()}

# A token's kind, as the code point of its character, is its text's entry
# here, if it has one, or else its first character's entry; any other
# character is a lexical error.
_BAD = ord(KIND_CHARS["bad"])
_KINDS_BY_TEXT = {**{text: ord(KIND_CHARS[text]) for text in (*KEYWORDS, "_", *_PUNCTUATION)}, '"': _BAD}
_KINDS_BY_FIRST_CHAR = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", ord(KIND_CHARS["ident"])),
    **dict.fromkeys("0123456789", ord(KIND_CHARS["int"])),
    '"': ord(KIND_CHARS["str"]),
    "": ord(KIND_CHARS["eof"]),
}


class _Kinds(dict):
    """Kinds of tokens by text, learned during one `tokenize` call: a text
    not yet seen gets its first character's kind, so a repeated name costs
    one lookup."""

    def __missing__(self, text: str) -> int:
        kind = self[text] = _KINDS_BY_FIRST_CHAR.get(text[:1], _BAD)
        return kind


def tokenize(source: str) -> Tokens:
    """The tokens of `source`, the last of kind eof; a bad character raises `LexError`.

    Equal texts are one string object, the first found, for as long as the
    tokens or the tree parsed from them live; no table outlives the call.
    """
    seen: dict[str, str] = {}
    texts: list[str] = []
    start = 0
    while True:
        # a chunk ends just after a newline, which no token holds
        end = source.find("\n", start + _CHUNK) + 1 or len(source)
        found = _TOKEN.findall(source, start, end)
        texts += map(seen.setdefault, found, found)
        del found
        if end == len(source):
            break
        del texts[-2:]  # the chunk's eof, matched after its last newline and then again, empty
        start = end
    if len(texts) > 1 and not texts[-2]:
        # eof matched after skipped whitespace or a comment, and then again,
        # empty, at the very end
        del texts[-1]
    kind_of = _Kinds(_KINDS_BY_TEXT)
    # a byte a token from the start: a list or a join would first hold a pointer a token
    kinds = bytes(map(kind_of.__getitem__, texts)).decode("ascii")
    tokens = Tokens(source, kinds, texts)
    if _BAD in map(kind_of.__getitem__, seen):  # one test per distinct text
        i = kinds.index(KIND_CHARS["bad"])
        if texts[i] != '"':
            raise LexError(tokens.span(i), f"unrecognized character {texts[i]!r}")
        # the string runs to the end of its line
        start, span = tokens.starts[i], tokens.span(i)
        end = source.find("\n", start)
        length = (len(source) if end < 0 else end) - start
        raise LexError(SourceSpan(span.line, span.column, length), "unterminated string literal")
    return tokens


# Up to this many digits `int()` is the fastest conversion; its time grows
# with the square of the digits (before Python 3.12).
_PLAIN_DIGITS = 3000


def decimal_int(text: str) -> int:
    """The value of `text`, ASCII digits after an optional `-`, in time subquadratic in its length.

    A long digit string is split in half and recombined as `hi * 10**len(lo) + lo`;
    each power of ten is computed once.
    """
    if len(text) <= _PLAIN_DIGITS:
        return int(text)
    if text[0] == "-":
        return -decimal_int(text[1:])
    powers: dict[int, int] = {}

    def convert(digits: str) -> int:
        if len(digits) <= _PLAIN_DIGITS:
            return int(digits)
        n = len(digits) // 2
        power = powers.get(n)
        if power is None:
            power = powers[n] = 10**n
        return convert(digits[:-n]) * power + convert(digits[-n:])

    return convert(text)


# tokens that can begin an atomic goal; a `;` not followed by one of these
# separates case arms instead of sequencing
_ATOM_STARTS = frozenset(map(KIND_CHARS.get, ("t", "f", "case", "ident", "int", "str", "(", "-")))

# tokens that can be a segment of a failure path
_NAMES = frozenset(map(KIND_CHARS.get, ("ident", "_", *KEYWORDS)))

# Operators by token, as (threshold, precedence, node or operator text),
# loosest to tightest: `else` < `|` < `;` < prefix `IDENT =` (4) <
# relational (5) < `+ -` < `* /`.  Before it is pushed, an operator reduces
# every stack entry whose precedence is above its threshold: its own
# precedence for the right-associative goal operators, one less for the
# left-associative arithmetic ones, and 3 for a relational operator, so
# that an `=` or a test before it is reduced to the goal it cannot follow.
# Any other token ends the innermost context (threshold 0).
_OPS = {
    KIND_CHARS["else"]: (1, 1, Else),
    "|": (2, 2, Union),
    ";": (3, 3, Seq),
    **{KIND_CHARS[op]: (3, 5, op) for op in RELOPS},
    **{op: (4 + prec, 5 + prec, op) for op, prec in PRECEDENCE.items()},
}
_END = (0, 0, None)


class _Leaves(dict):
    """The one `Var` or `IntLit` node of each name or unsigned literal text met in one parse.

    Nodes are immutable and leaves get no span, so every occurrence of a
    text can share one node; the table lives only as long as its parse.
    While a definition's body parses, its parameter names map to their
    `Param` nodes instead.
    """

    def __missing__(self, text: str) -> Expr:
        node = self[text] = IntLit(decimal_int(text)) if text[0].isdigit() else Var(text)
        return node


class _Parser:
    # the parameters the body being parsed assigns; a violation replaces this
    # shared empty default, so a valid parse allocates nothing for the check
    assigned_params: frozenset[str] = frozenset()

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.i = 0
        self.leaves = _Leaves()

    def span(self, i: int) -> SourceSpan:
        """The span of the token at list index `i`."""
        return self.tokens.span(self.tokens.base + i)

    def error(self, i: int, what: str) -> ParseError:
        """`expected <what>` at the token at list index `i`."""
        return ParseError(self.span(i), f"expected {what}")

    def expect(self, kind: str, what: str | None = None) -> str:
        """The current token's text, stepping past it, if it is of the kind named `kind`."""
        i, tokens = self.i, self.tokens
        if tokens.kinds[i] != KIND_CHARS[kind]:
            raise self.error(i, what or f"'{kind}'")
        self.i = i + 1
        return tokens.texts[i]

    # -- program -----------------------------------------------------------

    def program(self) -> Program:
        tokens = self.tokens
        defs: dict[tuple[str, int], Def] = {}
        # `tokens.kinds` read afresh: a release replaces the string
        while tokens.kinds[self.i] != "m":  # main
            if tokens.kinds[self.i] == "$":  # eof
                raise MissingMain(self.span(self.i))
            name_at = tokens.base + self.i  # absolute: the body's parse may release the name's token
            d = self.definition(name_at)
            key = (d.name, len(d.params))
            if key in defs:
                raise DuplicateDefinition(tokens.span(name_at), *key)
            defs[key] = d
        self.i += 1
        return Program(defs, self.goal())

    def definition(self, name_at: int) -> Def:
        """The definition that starts at the current token, token `name_at` of the source."""
        name = self.expect("ident", "a procedure definition or 'main'")
        self.expect("(")
        params: list[str] = []
        if self.tokens.kinds[self.i] != ")":
            params.append(self.expect("ident", "a parameter name"))
            while self.tokens.kinds[self.i] == ",":
                self.i += 1
                params.append(self.expect("ident", "a parameter name"))
        self.expect(")")
        self.expect("=")
        # the parameters overlay the leaf table for the body's parse only
        leaves = self.leaves
        for k, p in enumerate(params):
            leaves[p] = Param(p, k)
        body = self.goal()
        for p in params:
            leaves.pop(p, None)  # a duplicate is gone already
        if len(set(params)) != len(params):
            message = f"duplicate parameter in definition of {name}"
        elif self.assigned_params:
            names = ", ".join(sorted(self.assigned_params))
            message = f"definition of {name} assigns to its own parameter(s): {names}"
        else:
            return Def(name, tuple(params), body)
        raise ParseError(self.tokens.span(name_at), message)

    # -- goals -------------------------------------------------------------

    def goal(self) -> Goal:
        """One goal, by operator precedence (shunting-yard) on one explicit stack.

        `stack` is flat, three slots an entry with the precedence last.  It
        holds each operator that waits for its right operand as left
        operand, node or operator text, precedence (`IDENT =` as name,
        `Assign`, 4), over the frame of each context still open, innermost
        last, as data, name, precedence: `(`, a case arm or a case default
        at 0, and a call's arguments at -1.  The operand at hand is `x`.  A
        frame's precedence stops every reduction, so an operator or the end
        of a context reduces only inside its own context; and an operand
        under a precedence from 0 to 3 is in goal position, where `t`, `f`,
        `case` and `IDENT =` may start.  (Flat slots, not a tuple an
        entry: CPython keeps up to 2000 freed tuples of each size for
        reuse, so the entries of a long chain would stay allocated after
        the parse.)

        A `(` only groups; whether an operand is a goal or an expression is
        checked when it is reduced or when its context ends, and a bare
        `CallExpr` there becomes a `Call`.  An error that an operand is of
        the wrong kind points at the first token of the innermost operand
        of a goal operator, context or argument, `start`.
        """
        tokens, leaves = self.tokens, self.leaves
        kinds, texts = tokens.kinds, tokens.texts
        stack: list = [None, "goal", 0]
        i = start = self.i
        half = len(kinds) // 2
        while True:
            # an operand, or a prefix or context that opens before one
            kind = kinds[i]
            if kind == "i":  # ident
                if kinds[i + 1] == "(":
                    name = texts[i]
                    if kinds[i + 2] == ")":
                        x = Read() if name == "read" else CallExpr(name, ())
                        i += 3
                    else:
                        stack += (name, []), "call", -1
                        i = start = i + 2
                        continue
                elif kinds[i + 1] == "=" and 0 <= stack[-1] < 4:
                    # an assignment, where a goal may start; `definition`
                    # rejects one to a parameter once the body has parsed
                    name = texts[i]
                    if type(leaves.get(name)) is Param:
                        self.assigned_params |= {name}
                    stack += name, Assign, 4
                    i += 2
                    continue
                else:
                    x = leaves[texts[i]]
                    i += 1
            elif kind == "0":  # int
                x = leaves[texts[i]]
                i += 1
            elif kind == "(":
                stack += None, "(", 0
                i = start = i + 1
                continue
            elif kind == '"':  # str
                x = StrLit(texts[i][1:-1])
                i += 1
            elif kind == "-" and kinds[i + 1] == "0":  # a negative int
                x = IntLit(-decimal_int(texts[i + 1]))
                i += 2
            elif kind == "t" and 0 <= stack[-1] < 4:
                x = TrueGoal()
                i += 1
            elif kind == "f" and 0 <= stack[-1] < 4:
                if kinds[i + 1] == "(":
                    self.i = i + 2
                    x = Fail(self.fail_path("a failure name or path"))
                    self.expect(")")
                    i = self.i
                else:
                    x = Fail()
                    i += 1
            elif kind == "c" and 0 <= stack[-1] < 4:  # case
                self.i = i + 1
                self.expect("Failtree")
                self.expect("of")
                self.expect("{")
                stack += ([], self.case_arm()), "arm", 0
                i = start = self.i
                continue
            else:
                raise self.error(i, "an expression")

            # after an operand: reduce, then push an operator or end a context
            while True:
                threshold, prec, op = _OPS.get(kinds[i], _END)
                if prec > 3:
                    if isinstance(x, Goal):
                        threshold = prec = 0  # no expression operator follows a goal
                elif op is Seq and kinds[i + 1] not in _ATOM_STARTS:
                    threshold = prec = 0  # a `;` that separates case arms
                while stack[-1] > threshold:
                    top = stack[-1]
                    if top > 3:
                        if isinstance(x, Goal):
                            raise self.error(start, "an expression")
                        if top > 5:
                            x = Binary(stack[-2], stack[-3], x)
                        else:
                            x = Test(stack[-3], stack[-2], x) if top == 5 else Assign(stack[-3], x)
                            if prec > 3:
                                threshold = prec = 0  # no relational operator follows a goal
                    else:
                        if not isinstance(x, Goal):
                            x = self.statement(x, start)
                        x = stack[-2](stack[-3], x)
                    del stack[-3:]
                if prec:
                    if prec < 4:
                        if not isinstance(x, Goal):
                            x = self.statement(x, start)
                        if i > half:
                            # release the tokens read: each release deletes at
                            # least half the tokens, so all of them take linear
                            # time; the kinds left are copied to a new string
                            del texts[:i]
                            kinds = tokens.kinds = kinds[i:]
                            tokens.base += i
                            i = 0
                            half = len(kinds) // 2
                        start = i + 1
                    stack += x, op, prec
                    i += 1
                    break

                # the innermost context ends
                data, name = stack[-3], stack[-2]
                del stack[-3:]
                if name == "(":
                    if kinds[i] != ")":
                        raise self.error(i, "')'")
                    i += 1
                    continue
                if name == "call":
                    if isinstance(x, Goal):
                        raise self.error(start, "an expression")
                    data[1].append(x)
                    if kinds[i] == ",":
                        stack += data, name, -1
                        i = start = i + 1
                        break
                    if kinds[i] != ")":
                        raise self.error(i, "')'")
                    i += 1
                    x = CallExpr(data[0], tuple(data[1]))
                    continue
                if not isinstance(x, Goal):
                    x = self.statement(x, start)
                if name == "goal":
                    self.i = i
                    return x
                if name == "arm":
                    arms, path = data
                    arms.append((path, x))
                    default = None
                    if kinds[i] == ";":
                        self.i = i + 1
                        if kinds[i + 1] == "_":
                            self.i += 1
                            self.expect(":")
                            stack += arms, "default", 0
                        else:
                            stack += (arms, self.case_arm()), "arm", 0
                        i = start = self.i
                        break
                else:
                    arms, default = data, x
                if kinds[i] != "}":
                    raise self.error(i, "'}'")
                i += 1
                x = Case(tuple(arms), default)

    def statement(self, x: Expr, start: int) -> Call:
        """The call statement of call expression `x`; any other expression, starting at token `start`, is no goal."""
        if type(x) is CallExpr:
            return Call(x.name, x.args)
        raise self.error(start, "a statement")

    def case_arm(self) -> str:
        """An arm's path, which starts with `/`, stepping past it and its `:`."""
        if self.tokens.kinds[self.i] != "/":
            raise self.error(self.i, "a failure path")
        path = self.fail_path("a failure path")
        self.expect(":")
        return path

    def fail_path(self, what: str) -> str:
        """`["/"] NAME {"/" NAME}` as a path's text, stepping past it: rooted at /F with the `/`, else under /F/usr."""
        kinds, texts = self.tokens.kinds, self.tokens.texts
        start = i = self.i
        rooted = kinds[i] == "/"
        if rooted:
            i += 1
        if kinds[i] not in _NAMES:
            raise self.error(start, what)
        segments = [texts[i]]
        i += 1
        while kinds[i] == "/" and kinds[i + 1] in _NAMES:
            segments.append(texts[i + 1])
            i += 2
        self.i = i
        if not rooted:
            return user_path(segments)
        if segments[0] != "F":
            raise ParseError(self.span(start), f"failure path must be rooted at /F: {tuple(segments)!r}")
        return "/" + "/".join(segments)


def _parse(source: str, rule):
    p = _Parser(tokenize(source))
    result = rule(p)
    p.expect("eof", "end of input")
    return result


def parse_goal(source: str) -> Goal:
    return _parse(source, _Parser.goal)


def parse_program(source: str) -> Program:
    return _parse(source, _Parser.program)
