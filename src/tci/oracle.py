"""Reference semantics and random program generator for differential testing.

`derive_bounded` answers whether a goal can be executed successfully,
searching the evaluation rules over immutable store values up to a depth
bound.  It shares the AST and the failure-path vocabulary with the
evaluator but none of its machinery: stores are threaded functionally
instead of mutated under an undo log, and a call substitutes its argument
values for the body's parameters by name instead of indexing a frame by
position, so a bug in one side is unlikely to hide the same bug in the
other.

`gen_program` produces small, deterministic, recursion-free programs (the
call graph is acyclic, keeping the search space finite), whose bodies read
their parameters as `Param` nodes, as the parser builds them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Mapping

from .failure import (
    Failure,
    ROOT,
    SYS_CASE,
    SYS_DIV0,
    SYS_TEST,
    SYS_UNBOUND,
    SYS_UNDEF,
    matches,
    throw,
)
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

Value = int | str

_RET = "ret"
_PRINT = "print"


@dataclass(frozen=True)
class StoreVal:
    """An immutable store value; updates build new instances."""

    bindings: dict[str, Value] = field(default_factory=dict)
    input: tuple[int, ...] = ()
    cursor: int = 0
    output: tuple[str, ...] = ()

    def bound(self, name: str, value: Value) -> StoreVal:
        return replace(self, bindings={**self.bindings, name: value})


@dataclass(frozen=True)
class Derivable:
    store: StoreVal


@dataclass(frozen=True)
class NotDerivable:
    tree: Failure


@dataclass(frozen=True)
class DepthExhausted:
    pass


Status = Derivable | NotDerivable | DepthExhausted


def derive_bounded(program: Program, store: StoreVal, goal: Goal, max_depth: int = 8) -> Status:
    return _derive(program, store, goal, None, max_depth)


def _derive(p: Program, sv: StoreVal, g: Goal, ambient: Failure | None, depth: int) -> Status:
    if depth <= 0:
        return DepthExhausted()
    match g:
        case TrueGoal():
            return Derivable(sv)
        case Fail(path):
            return NotDerivable(throw(path))
        case Assign(var, expr):
            r = _expr(p, sv, expr, ambient, depth)
            if not isinstance(r, tuple):
                return r
            sv2, value = r
            return Derivable(sv2.bound(var, value))
        case Test(left, relop, right):
            r = _expr(p, sv, left, ambient, depth)
            if not isinstance(r, tuple):
                return r
            sv2, lv = r
            r = _expr(p, sv2, right, ambient, depth)
            if not isinstance(r, tuple):
                return r
            sv3, rv = r
            if _holds(lv, relop, rv):
                return Derivable(sv3)
            return NotDerivable(throw(SYS_TEST))
        case Seq(first, second):
            r1 = _derive(p, sv, first, ambient, depth - 1)
            if not isinstance(r1, Derivable):
                return r1
            return _derive(p, r1.store, second, ambient, depth - 1)
        case Union(first, second):
            r1 = _derive(p, sv, first, ambient, depth - 1)
            if isinstance(r1, DepthExhausted):
                return r1
            if isinstance(r1, Derivable):
                r2 = _derive(p, r1.store, second, ambient, depth - 1)
                if isinstance(r2, DepthExhausted):
                    return r2
                if isinstance(r2, Derivable):
                    return r2  # both operands succeeded
                return r1  # only the first succeeded
            r2 = _derive(p, sv, second, ambient, depth - 1)
            if isinstance(r2, DepthExhausted):
                return r2
            if isinstance(r2, Derivable):
                return r2  # only the second succeeded
            return NotDerivable(Failure(r1.tree.paths | r2.tree.paths))
        case Else(tried, handler):
            r1 = _derive(p, sv, tried, ambient, depth - 1)
            if not isinstance(r1, NotDerivable):
                return r1
            return _derive(p, sv, handler, r1.tree, depth - 1)
        case Case(arms, default):
            if ambient is None:
                return NotDerivable(throw(SYS_CASE))
            for pattern, body in arms:
                if matches(pattern, ambient):
                    return _derive(p, sv, body, None, depth - 1)
            if default is not None:
                return _derive(p, sv, default, None, depth - 1)
            return NotDerivable(ambient)
        case Call(name, args):
            return _call(p, sv, name, args, ambient, depth)
    raise TypeError(f"not a goal: {g!r}")


def _call(
    p: Program,
    sv: StoreVal,
    name: str,
    args: tuple[Expr, ...],
    ambient: Failure | None,
    depth: int,
) -> Status:
    values: list[Value] = []
    for a in args:
        r = _expr(p, sv, a, ambient, depth)
        if not isinstance(r, tuple):
            return r
        sv, value = r
        values.append(value)
    defn = p.defs.get((name, len(values)))
    if defn is None:
        if name == _PRINT and len(values) == 1:
            v = values[0]
            line = v if isinstance(v, str) else str(v)
            return Derivable(replace(sv, output=sv.output + (line,)))
        return NotDerivable(throw(SYS_UNDEF))
    mapping = {q: _lit(v) for q, v in zip(defn.params, values)}
    return _derive(p, sv, substitute(defn.body, mapping, Param), ambient, depth - 1)


def _expr(
    p: Program,
    sv: StoreVal,
    e: Expr,
    ambient: Failure | None,
    depth: int,
) -> tuple[StoreVal, Value] | NotDerivable | DepthExhausted:
    match e:
        case IntLit(value):
            return sv, value
        case StrLit(value):
            return sv, value
        case Var(name):
            if name in sv.bindings:
                return sv, sv.bindings[name]
            return NotDerivable(throw(SYS_UNBOUND))
        case Binary(op, left, right):
            r = _expr(p, sv, left, ambient, depth)
            if not isinstance(r, tuple):
                return r
            sv2, lv = r
            r = _expr(p, sv2, right, ambient, depth)
            if not isinstance(r, tuple):
                return r
            sv3, rv = r
            if not (isinstance(lv, int) and isinstance(rv, int)):
                return NotDerivable(throw(SYS_TEST))
            if op == "+":
                return sv3, lv + rv
            if op == "-":
                return sv3, lv - rv
            if op == "*":
                return sv3, lv * rv
            if rv == 0:
                return NotDerivable(throw(SYS_DIV0))
            q = abs(lv) // abs(rv)  # truncating division, C-style
            return sv3, q if (lv < 0) == (rv < 0) else -q
        case CallExpr(name, args):
            r = _call(p, sv, name, args, ambient, depth)
            if isinstance(r, Derivable):
                sv2 = r.store
                if _RET in sv2.bindings:
                    return sv2, sv2.bindings[_RET]
                return NotDerivable(throw(SYS_UNBOUND))
            return r
        case Read():
            if sv.cursor < len(sv.input):
                return replace(sv, cursor=sv.cursor + 1), sv.input[sv.cursor]
            return sv, -1
    raise TypeError(f"not an expression: {e!r}")


def _holds(left: Value, op: str, right: Value) -> bool:
    if isinstance(left, int) and isinstance(right, int):
        return {
            "==": left == right,
            "!=": left != right,
            "<": left < right,
            "<=": left <= right,
            ">": left > right,
            ">=": left >= right,
        }[op]
    if isinstance(left, str) and isinstance(right, str) and op in ("==", "!="):
        return (left == right) if op == "==" else (left != right)
    return False


def _lit(v: Value) -> Expr:
    return StrLit(v) if isinstance(v, str) else IntLit(v)


def substitute_expr(e: Expr, bindings: Mapping[str, Expr], read: type = Var) -> Expr:
    if type(e) is read:
        return bindings.get(e.name, e)
    match e:
        case Binary(op, left, right):
            return Binary(op, substitute_expr(left, bindings, read), substitute_expr(right, bindings, read))
        case CallExpr(name, args):
            return CallExpr(name, tuple(substitute_expr(a, bindings, read) for a in args))
        case _:
            return e


def substitute(g: Goal, bindings: Mapping[str, Expr], read: type = Var) -> Goal:
    """Replace every read of the bound names throughout a goal, where a read is a node of type `read`.

    `read` is `Var` (a global) or `Param` (a parameter); reads of the other
    kind are left alone, so a call substitutes its arguments for the
    body's `Param`s and a `Var` of the same name still reads the store.
    Goals introduce no local binders, so replacement is plain.  Assignment
    targets are left alone: `Def` guarantees a body never assigns to one of
    its parameters.
    """
    match g:
        case TrueGoal() | Fail():
            return g
        case Assign(var, expr):
            return Assign(var, substitute_expr(expr, bindings, read))
        case Test(left, relop, right):
            return Test(substitute_expr(left, bindings, read), relop, substitute_expr(right, bindings, read))
        case Seq(first, second):
            return Seq(substitute(first, bindings, read), substitute(second, bindings, read))
        case Union(first, second):
            return Union(substitute(first, bindings, read), substitute(second, bindings, read))
        case Else(tried, handler):
            return Else(substitute(tried, bindings, read), substitute(handler, bindings, read))
        case Case(arms, default):
            return Case(
                tuple((p, substitute(body, bindings, read)) for p, body in arms),
                None if default is None else substitute(default, bindings, read),
            )
        case Call(name, args):
            return Call(name, tuple(substitute_expr(a, bindings, read) for a in args))
    raise TypeError(f"not a goal: {g!r}")


# -- program generation ------------------------------------------------------

_VARS = ("x", "y", "z", "w")
_PARAMS = ("u", "v")
_STRINGS = ("a", "b")
_PATHS = (
    ROOT,
    "/F/usr/EOF",
    "/F/usr/a",
    SYS_TEST,
)


def gen_program(seed: int, size_bound: int = 6) -> tuple[Program, StoreVal, tuple[int, ...]]:
    """A deterministic pseudo-random program, initial store, and input stream.

    Goals draw on every constructor within `size_bound` nodes; at most two
    procedure definitions of arity <= 2 with an acyclic call graph, so
    every run terminates.  Procedure bodies read every parameter name, not
    only their own, so a name that is a parameter elsewhere must resolve
    to the store rather than to a caller's argument.  Each body is
    generated with `Var` reads and then resolved: its own parameters are
    replaced by their `Param`s, which draws nothing from the random stream.
    """
    rng = random.Random(seed)
    defs: dict[tuple[str, int], Def] = {}
    callable_sigs: list[tuple[str, int]] = []
    n_defs = rng.randrange(3)
    # later names are generated first so earlier definitions may call them
    for name in reversed(("p", "q")[:n_defs]):
        arity = rng.randrange(3)
        body = _gen_goal(rng, rng.randrange(1, 4), tuple(callable_sigs), in_def=True)
        params = _PARAMS[:arity]
        body = substitute(body, {q: Param(q, k) for k, q in enumerate(params)})
        defs[(name, arity)] = Def(name, params, body)
        callable_sigs.append((name, arity))
    main = _gen_goal(rng, size_bound, tuple(callable_sigs), in_def=False)

    bindings: dict[str, Value] = {}
    for _ in range(rng.randrange(4)):
        var = rng.choice(_VARS)
        bindings[var] = rng.choice(_STRINGS) if rng.random() < 0.2 else rng.randrange(-3, 4)
    input_tokens = tuple(rng.randrange(-3, 4) for _ in range(rng.randrange(4)))
    return Program(defs, main), StoreVal(bindings=bindings, input=input_tokens), input_tokens


def _gen_goal(
    rng: random.Random,
    budget: int,
    callables: tuple[tuple[str, int], ...],
    in_def: bool,
) -> Goal:
    if budget >= 3 and rng.random() < 0.6:
        if budget >= 4 and rng.random() < 0.18:
            return _gen_case(rng, budget, callables, in_def)
        kind = rng.choice(("seq", "union", "else"))
        left_budget = budget // 2
        left = _gen_goal(rng, left_budget, callables, in_def)
        right = _gen_goal(rng, budget - 1 - left_budget, callables, in_def)
        if kind == "seq":
            return Seq(left, right)
        if kind == "union":
            return Union(left, right)
        return Else(left, right)
    return _gen_leaf(rng, callables, in_def)


def _gen_case(
    rng: random.Random,
    budget: int,
    callables: tuple[tuple[str, int], ...],
    in_def: bool,
) -> Goal:
    n_arms = 1 + rng.randrange(2)
    with_default = rng.random() < 0.5
    bodies = n_arms + (1 if with_default else 0)
    each = max(1, (budget - 1) // bodies)
    arms = tuple(
        (rng.choice(_PATHS), _gen_goal(rng, each, callables, in_def)) for _ in range(n_arms)
    )
    default = _gen_goal(rng, each, callables, in_def) if with_default else None
    return Case(arms, default)


def _gen_leaf(
    rng: random.Random,
    callables: tuple[tuple[str, int], ...],
    in_def: bool,
) -> Goal:
    r = rng.random()
    if callables and r < 0.18:
        name, arity = rng.choice(callables)
        return Call(name, tuple(_gen_expr(rng, 1, callables, in_def) for _ in range(arity)))
    if r < 0.32:
        return TrueGoal()
    if r < 0.46:
        return Fail(rng.choice(_PATHS))
    if r < 0.74:
        if in_def and rng.random() < 0.5:
            target = _RET
        else:
            target = rng.choice(_VARS)
        return Assign(target, _gen_expr(rng, 2, callables, in_def))
    return Test(
        _gen_expr(rng, 1, callables, in_def),
        rng.choice(RELOPS),
        _gen_expr(rng, 1, callables, in_def),
    )


def _gen_expr(
    rng: random.Random,
    depth: int,
    callables: tuple[tuple[str, int], ...],
    in_def: bool,
) -> Expr:
    r = rng.random()
    if r < 0.35:
        return IntLit(rng.randrange(-3, 4))
    if r < 0.60:
        pool = _VARS + _PARAMS if in_def else _VARS
        return Var(rng.choice(pool))
    if r < 0.68:
        return StrLit(rng.choice(_STRINGS))
    if r < 0.76:
        return Read()
    if depth > 0 and (callables and r < 0.82):
        name, arity = rng.choice(callables)
        return CallExpr(name, tuple(_gen_expr(rng, 0, callables, in_def) for _ in range(arity)))
    if depth > 0:
        return Binary(
            rng.choice(("+", "-", "*", "/")),
            _gen_expr(rng, depth - 1, callables, in_def),
            _gen_expr(rng, depth - 1, callables, in_def),
        )
    return IntLit(rng.randrange(-3, 4))
