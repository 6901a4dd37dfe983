import sys
from pathlib import Path

import pytest

from tci import Program, Store, eval_goal
from tci.syntax import (
    TRUE,
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
    Test,
    TrueGoal,
    Union,
    Var,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

EMPTY_PROGRAM = Program({}, TRUE)


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture
def default_recursion_limit():
    """Python's default limit, which `cli.main` raises for the rest of the process."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


def make_store(bindings=None, input_tokens=()) -> Store:
    return Store(input_tokens, bindings)


def run(goal, program=EMPTY_PROGRAM, bindings=None, input_tokens=()):
    """Evaluate a goal on a fresh store; returns (outcome, store)."""
    store = make_store(bindings, input_tokens)
    outcome = eval_goal(program, store, goal)
    return outcome, store


PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def recursive_pretty(node) -> str:
    """The structural definition of `pretty_print`, as a reference for the printer.

    A compound operand is parenthesized, except the right operand of the
    same right-associative `;`/`|`/`else` and the left operand of an
    arithmetic operator that binds at least as tightly as its parent.
    """

    def atom(sub) -> str:
        text = recursive_pretty(sub)
        return f"({text})" if isinstance(sub, (Binary, Seq, Union, Else)) else text

    def chain(left, sep, right, kind) -> str:
        return atom(left) + sep + (recursive_pretty(right) if isinstance(right, kind) else atom(right))

    match node:
        case IntLit(value):
            return str(value)
        case StrLit(value):
            return f'"{value}"'
        case Var(name) | Param(name, _):
            return name
        case Read():
            return "read()"
        case Binary(op, left, right):
            bare = isinstance(left, Binary) and PRECEDENCE[left.op] >= PRECEDENCE[op]
            return f"{recursive_pretty(left) if bare else atom(left)} {op} {atom(right)}"
        case Test(left, op, right):
            return f"{atom(left)} {op} {atom(right)}"
        case Call(name, args) | CallExpr(name, args):
            return f"{name}({', '.join(map(recursive_pretty, args))})"
        case TrueGoal():
            return "t"
        case Fail(path):
            segs = tuple(path[1:].split("/"))
            if segs == ("F",):
                return "f"
            if len(segs) > 2 and segs[:2] == ("F", "usr"):
                return "f(" + "/".join(segs[2:]) + ")"
            return f"f({path})"
        case Assign(var, expr):
            return f"{var} = {recursive_pretty(expr)}"
        case Seq(first, second):
            return chain(first, "; ", second, Seq)
        case Union(first, second):
            return chain(first, " | ", second, Union)
        case Else(tried, handler):
            return chain(tried, " else ", handler, Else)
        case Case(arms, default):
            parts = [f"{path}: {atom(body)}" for path, body in arms]
            if default is not None:
                parts.append(f"_: {atom(default)}")
            return "case Failtree of { " + "; ".join(parts) + " }"
    raise TypeError(node)
