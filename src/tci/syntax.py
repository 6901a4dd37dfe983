"""Abstract syntax for TC programs.

A goal is a statement that either succeeds or fails; an expression denotes
an integer or string value.  Procedure definitions bind a parameter list
over a body goal; a program is a set of definitions keyed by name and
arity plus a main goal.  All nodes are immutable and compare structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .failure import FailPath, ROOT

RELOPS = ("==", "!=", "<", "<=", ">", ">=")
ARITH_OPS = ("+", "-", "*", "/")


class Expr:
    pass


class Goal:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class StrLit(Expr):
    value: str


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class CallExpr(Expr):
    name: str
    args: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Read(Expr):
    """The read() builtin: next integer from the input stream, -1 at end."""


@dataclass(frozen=True)
class TrueGoal(Goal):
    """The statement `t`; always succeeds."""


@dataclass(frozen=True)
class Fail(Goal):
    """The statement `f` / `f(path)`; always fails with the given path."""

    path: FailPath = ROOT


@dataclass(frozen=True)
class Assign(Goal):
    var: str
    expr: Expr


@dataclass(frozen=True)
class Test(Goal):
    left: Expr
    relop: str
    right: Expr


@dataclass(frozen=True)
class Seq(Goal):
    first: Goal
    second: Goal


@dataclass(frozen=True)
class Union(Goal):
    """`G1 | G2`: run both in order, succeed if at least one does."""

    first: Goal
    second: Goal


@dataclass(frozen=True)
class Else(Goal):
    """`G1 else G2`: run G1; on failure roll back and run the handler G2."""

    tried: Goal
    handler: Goal


@dataclass(frozen=True)
class Case(Goal):
    """`case Failtree of { path: G; ...; _: G }` over the ambient failure tree."""

    arms: tuple[tuple[FailPath, Goal], ...]
    default: Goal | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "arms", tuple((p, g) for p, g in self.arms))
        if not self.arms:
            raise ValueError("a case goal needs at least one arm")


@dataclass(frozen=True)
class Call(Goal):
    name: str
    args: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


TRUE = TrueGoal()


@dataclass(frozen=True)
class Def:
    """A procedure definition name(p1, ..., pn) = body.

    Parameters are distinct and read-only: the body may not assign to one.
    """

    name: str
    params: tuple[str, ...]
    body: Goal

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"duplicate parameter in definition of {self.name}")
        clobbered = assigned_vars(self.body) & set(self.params)
        if clobbered:
            names = ", ".join(sorted(clobbered))
            raise ValueError(f"definition of {self.name} assigns to its own parameter(s): {names}")


@dataclass(frozen=True)
class Program:
    defs: dict[tuple[str, int], Def]
    main: Goal


def expr_vars(e: Expr) -> set[str]:
    """Variable names an expression reads, walked with its own stack."""
    out: set[str] = set()
    stack = [e]
    while stack:
        match stack.pop():
            case Var(name):
                out.add(name)
            case Binary(_, left, right):
                stack += (left, right)
            case CallExpr(_, args):
                stack += args
    return out


def _own_vars(g: Goal) -> set[str]:
    """Variable names in a goal's own target and expressions, not in its sub-goals."""
    match g:
        case Assign(var, expr):
            return {var} | expr_vars(expr)
        case Test(left, _, right):
            return expr_vars(left) | expr_vars(right)
        case Call(_, args):
            return set().union(*map(expr_vars, args))
        case TrueGoal() | Fail() | Seq() | Union() | Else() | Case():
            return set()
    raise TypeError(f"not a goal: {g!r}")


def free_vars(g: Goal) -> set[str]:
    """All variable names a goal reads or assigns (procedure names excluded)."""
    out: set[str] = set()
    for sub in iter_goals(g):
        out |= _own_vars(sub)
    return out


def assigned_vars(g: Goal) -> set[str]:
    """Names appearing as assignment targets anywhere in the goal."""
    return {sub.var for sub in iter_goals(g) if isinstance(sub, Assign)}


def iter_goals(g: Goal) -> Iterator[Goal]:
    """The goal and every sub-goal, pre-order.

    The walk keeps its own stack, so a goal of any depth is walked in
    linear time without host recursion.
    """
    stack = [g]
    while stack:
        g = stack.pop()
        yield g
        match g:
            case Seq(first, second) | Union(first, second):
                stack += (second, first)
            case Else(tried, handler):
                stack += (handler, tried)
            case Case(arms, default):
                if default is not None:
                    stack.append(default)
                stack.extend(body for _, body in reversed(arms))


def _expr_atom(e: Expr) -> str:
    # Nested arithmetic is always parenthesized, so reading the text back
    # cannot re-associate it.
    text = pretty_expr(e)
    return f"({text})" if isinstance(e, Binary) else text


def pretty_expr(e: Expr) -> str:
    match e:
        case IntLit(value):
            return str(value)
        case StrLit(value):
            return f'"{value}"'
        case Var(name):
            return name
        case Binary(op, left, right):
            return f"{_expr_atom(left)} {op} {_expr_atom(right)}"
        case CallExpr(name, args):
            return f"{name}({', '.join(pretty_expr(a) for a in args)})"
        case Read():
            return "read()"
    raise TypeError(f"not an expression: {e!r}")


def _fail_text(path: FailPath) -> str:
    segs = path.segments
    if segs == ("F",):
        return "f"
    if len(segs) > 2 and segs[:2] == ("F", "usr"):
        return "f(" + "/".join(segs[2:]) + ")"
    return f"f({path})"


def _goal_atom(g: Goal) -> str:
    text = pretty_print(g)
    return f"({text})" if isinstance(g, (Seq, Union, Else)) else text


def pretty_print(g: Goal) -> str:
    """Concrete syntax for a goal; parses back to the same tree."""
    match g:
        case TrueGoal():
            return "t"
        case Fail(path):
            return _fail_text(path)
        case Assign(var, expr):
            return f"{var} = {pretty_expr(expr)}"
        case Test(left, relop, right):
            return f"{_expr_atom(left)} {relop} {_expr_atom(right)}"
        case Seq(first, second):
            return f"{_goal_atom(first)}; {_goal_atom(second)}"
        case Union(first, second):
            return f"{_goal_atom(first)} | {_goal_atom(second)}"
        case Else(tried, handler):
            return f"{_goal_atom(tried)} else {_goal_atom(handler)}"
        case Case(arms, default):
            parts = [f"{path}: {_goal_atom(body)}" for path, body in arms]
            if default is not None:
                parts.append(f"_: {_goal_atom(default)}")
            return "case Failtree of { " + "; ".join(parts) + " }"
        case Call(name, args):
            return f"{name}({', '.join(pretty_expr(a) for a in args)})"
    raise TypeError(f"not a goal: {g!r}")


def pretty_program(p: Program) -> str:
    lines = []
    for (_, _), d in sorted(p.defs.items()):
        lines.append(f"{d.name}({', '.join(d.params)}) = {pretty_print(d.body)}")
    lines.append(f"main {pretty_print(p.main)}")
    return "\n".join(lines) + "\n"


def shared_union_vars(g: Goal) -> list[tuple[Union, list[str]]]:
    """`|` nodes whose branches share variables, with the shared names, pre-order.

    The two branches of `|` are meant to be independent; sharing state
    between them makes the combined update order observable.  Each
    subtree's variable set is built once, children before parents
    (reversed pre-order), by merging the smaller set into the larger, so
    the walk does O(n log n) set-element work and no host recursion.
    """
    found = []
    done: list[set[str]] = []  # sets of the finished subtrees; a node's first child on top
    for sub in reversed(list(iter_goals(g))):
        match sub:
            case Seq() | Union() | Else():
                children = 2
            case Case(arms, default):
                children = len(arms) + (default is not None)
            case _:
                children = 0
        if isinstance(sub, Union) and (shared := done[-1] & done[-2]):
            found.append((sub, sorted(shared)))
        names = _own_vars(sub)
        for _ in range(children):
            child = done.pop()
            if len(child) > len(names):
                names, child = child, names
            names |= child
        done.append(names)
    found.reverse()
    return found
