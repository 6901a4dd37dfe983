"""Abstract syntax for TC programs.

A goal is a statement that either succeeds or fails; an expression denotes
an integer or string value.  Procedure definitions bind a parameter list
over a body goal; a program is a set of definitions keyed by name and
arity plus a main goal.  A `Var` reads the global store; a `Param` reads
an argument of the running call by its position in the parameter list,
and occurs only in a definition's body.  All nodes are immutable and
compare structurally.  A tree may share nodes: the parser builds one
`Var`, `Param` or `IntLit` per distinct text of a parse (or of a body).
No walk or printer depends on node identity, except the span tables
keyed by `id`, which skip those leaves.

Every node class is a `record.Record`: its fields are its `__slots__`,
its `__init__` sets each one once (after the check `Case` makes), and
from then on setting or deleting an attribute raises
`AttributeError`.  Nodes compare and hash by type and fields, and their
`repr` is the `Binary(op='+', left=IntLit(value=1), right=Var(name='x'))`
form of a dataclass.

`_children` is the one list of each node type's sub-nodes.  The walks
(`iter_goals`, the variable sets, the `|` lint) read the tree only
through it, each on its own stack.  The printer lays each node out as
literal pieces and sub-nodes (`_parts`) and emits them from a stack of
its own, recording where each goal's and call's text lies in the
printed text (its span).  `PRECEDENCE` is the arithmetic operators'
binding strength, which the printer uses to drop parentheses and the
parser to reduce expressions.
"""

from __future__ import annotations

from collections.abc import Iterator

from .failure import ROOT
from .record import Record, field_setters

RELOPS = ("==", "!=", "<", "<=", ">", ">=")
# arithmetic operators, all left-associative, by precedence (tightest highest)
PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


class Expr(Record):
    __slots__ = ()


class Goal(Record):
    __slots__ = ()


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        _set_int_lit_value(self, value)


(_set_int_lit_value,) = field_setters(IntLit)


class StrLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: str):
        _set_str_lit_value(self, value)


(_set_str_lit_value,) = field_setters(StrLit)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_var_name(self, name)


(_set_var_name,) = field_setters(Var)


class Param(Expr):
    """The `index`-th argument of the running call, read by a definition's body as its parameter `name`."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: int):
        _set_param_name(self, name)
        _set_param_index(self, index)


_set_param_name, _set_param_index = field_setters(Param)


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        _set_binary_op(self, op)
        _set_binary_left(self, left)
        _set_binary_right(self, right)


_set_binary_op, _set_binary_left, _set_binary_right = field_setters(Binary)


class CallExpr(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Expr, ...] = ()):
        _set_call_expr_name(self, name)
        _set_call_expr_args(self, tuple(args))


_set_call_expr_name, _set_call_expr_args = field_setters(CallExpr)


class Read(Expr):
    """The read() builtin: next integer from the input stream, -1 at end."""

    __slots__ = ()


class TrueGoal(Goal):
    """The statement `t`; always succeeds."""

    __slots__ = ()


class Fail(Goal):
    """The statement `f` / `f(path)`; always fails with the given path."""

    __slots__ = ("path",)

    def __init__(self, path: str = ROOT):
        _set_fail_path(self, path)


(_set_fail_path,) = field_setters(Fail)


class Assign(Goal):
    __slots__ = ("var", "expr")

    def __init__(self, var: str, expr: Expr):
        _set_assign_var(self, var)
        _set_assign_expr(self, expr)


_set_assign_var, _set_assign_expr = field_setters(Assign)


class Test(Goal):
    __slots__ = ("left", "relop", "right")

    def __init__(self, left: Expr, relop: str, right: Expr):
        _set_test_left(self, left)
        _set_test_relop(self, relop)
        _set_test_right(self, right)


_set_test_left, _set_test_relop, _set_test_right = field_setters(Test)


class Seq(Goal):
    __slots__ = ("first", "second")

    def __init__(self, first: Goal, second: Goal):
        _set_seq_first(self, first)
        _set_seq_second(self, second)


_set_seq_first, _set_seq_second = field_setters(Seq)


class Union(Goal):
    """`G1 | G2`: run both in order, succeed if at least one does."""

    __slots__ = ("first", "second")

    def __init__(self, first: Goal, second: Goal):
        _set_union_first(self, first)
        _set_union_second(self, second)


_set_union_first, _set_union_second = field_setters(Union)


class Else(Goal):
    """`G1 else G2`: run G1; on failure roll back and run the handler G2."""

    __slots__ = ("tried", "handler")

    def __init__(self, tried: Goal, handler: Goal):
        _set_else_tried(self, tried)
        _set_else_handler(self, handler)


_set_else_tried, _set_else_handler = field_setters(Else)


class Case(Goal):
    """`case Failtree of { path: G; ...; _: G }` over the ambient failure tree."""

    __slots__ = ("arms", "default")

    def __init__(self, arms: tuple[tuple[str, Goal], ...], default: Goal | None = None):
        arms = tuple((p, g) for p, g in arms)
        if not arms:
            raise ValueError("a case goal needs at least one arm")
        _set_case_arms(self, arms)
        _set_case_default(self, default)


_set_case_arms, _set_case_default = field_setters(Case)


class Call(Goal):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: tuple[Expr, ...] = ()):
        _set_call_name(self, name)
        _set_call_args(self, tuple(args))


_set_call_name, _set_call_args = field_setters(Call)


TRUE = TrueGoal()


class Def(Record):
    """A procedure definition name(p1, ..., pn) = body.

    The body reads its k-th parameter as `Param(pk, k)`, as the parser
    builds it; a `Var` of the same name in the body reads the global
    store, so a hand-built body must use `Param` for its parameters.  The
    parser also enforces the parameter rules as it reads the body: the
    parameters are distinct, and the body assigns to none of them.  A
    hand-built `Def` is not checked.
    """

    __slots__ = ("name", "params", "body")

    def __init__(self, name: str, params: tuple[str, ...], body: Goal):
        _set_def_name(self, name)
        _set_def_params(self, tuple(params))
        _set_def_body(self, body)


_set_def_name, _set_def_params, _set_def_body = field_setters(Def)


class Program(Record):
    __slots__ = ("defs", "main")

    def __init__(self, defs: dict[tuple[str, int], Def], main: Goal):
        _set_program_defs(self, defs)
        _set_program_main(self, main)


_set_program_defs, _set_program_main = field_setters(Program)


def _children(node: Goal | Expr) -> tuple[Goal | Expr, ...]:
    """The goals and expressions a node holds, in field order.

    For `Case` that is the arm bodies, then the default.
    """
    t = type(node)
    if t is Seq or t is Union:
        return (node.first, node.second)
    if t is Assign:
        return (node.expr,)
    if t is Binary or t is Test:
        return (node.left, node.right)
    if t is Call or t is CallExpr:
        return node.args
    if t is Else:
        return (node.tried, node.handler)
    if t is Case:
        bodies = tuple(body for _, body in node.arms)
        return bodies if node.default is None else bodies + (node.default,)
    return ()


def _walk(root: Goal | Expr) -> Iterator[Goal | Expr]:
    """`root` and every node below it, pre-order.

    The walk keeps its own stack, so a tree of any depth is walked in
    linear time without host recursion.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack += _children(node)[::-1]


def iter_goals(g: Goal) -> Iterator[Goal]:
    """The goal and every sub-goal, pre-order, without host recursion.

    No expression holds a goal, so these are the goals of `_walk` in its order.
    """
    return (node for node in _walk(g) if isinstance(node, Goal))


def _own_vars(node: Goal | Expr) -> set[str]:
    """The store variable a node itself reads (`Var`) or assigns (`Assign`), not those below it.

    A `Param` reads no store variable, so the `|` lint never names one.
    """
    t = type(node)
    return {node.name} if t is Var else {node.var} if t is Assign else set()


def expr_vars(e: Expr) -> set[str]:
    """Store variable names an expression reads (parameters excluded)."""
    return {node.name for node in _walk(e) if type(node) is Var}


def free_vars(g: Goal) -> set[str]:
    """All store variable names a goal reads or assigns (procedure and parameter names excluded)."""
    out: set[str] = set()
    for node in _walk(g):
        out |= _own_vars(node)
    return out


# Up to this many bits (2,467 digits) an int is converted by `str()`,
# which is then about as fast as binary splitting and within the
# interpreter's default limit of 4,300 digits; it is also the splitting's
# base case.
_PLAIN_BITS = 1 << 13


def int_text(n: int) -> str:
    """The decimal digits of `n`, in time subquadratic in their number.

    `str()` of an int is quadratic in its digits before Python 3.12.  A
    longer `n` is split into binary halves, recursively, which are
    recombined as exact `decimal.Decimal`s (`hi * 2**w + lo`), whose
    multiplication is subquadratic; after CPython 3.12's
    `_pylong.int_to_decimal_string`.  Each power `2**w` is built once.
    """
    if n.bit_length() <= _PLAIN_BITS:
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    import decimal  # only here, so that starting `tci` does not load it

    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        p = powers.get(w)
        if p is None:
            half = w >> 1
            p = powers[w] = decimal.Decimal(2) ** w if w <= _PLAIN_BITS else power(half) * power(w - half)
        return p

    def convert(m: int, w: int) -> decimal.Decimal:  # 0 <= m < 2**w
        if w <= _PLAIN_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(hi, w - half) * power(half) + convert(m - (hi << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def _fail_text(path: str) -> str:
    if path == ROOT:
        return "f"
    if path.startswith("/F/usr/"):
        return "f(" + path[len("/F/usr/"):] + ")"
    return f"f({path})"


# An operand of one of these types is parenthesized, unless the grammar
# reads it the same way without.
_COMPOUND = frozenset({Binary, Seq, Union, Else})


def _atom(node: Goal | Expr, parens: bool = True) -> tuple:
    """An operand's parts: a compound one in parentheses (if `parens`), so reading it
    back cannot re-associate it, and a literal or variable as its text, which
    saves the printer a round on its stack.
    """
    t = type(node)
    if t is IntLit:
        return (int_text(node.value),)
    if t is Var or t is Param:
        return (node.name,)
    return ("(", node, ")") if parens and t in _COMPOUND else (node,)


def _chain(left: Goal, sep: str, right: Goal, t: type) -> tuple:
    """`left sep right` for a right-associative `;`, `|` or `else` node of type `t`."""
    head = ("(", left, ")" + sep) if type(left) in _COMPOUND else (left, sep)
    return head + ((right,) if type(right) is t else _atom(right))


def _parts(node: Goal | Expr) -> tuple:
    """One node's text as literal pieces and sub-nodes, in order; the most frequent types first.

    A literal or variable reaches it only as the root of a print: as an
    operand, `_atom` has already turned it into its text.
    """
    t = type(node)
    if t is Seq:
        return _chain(node.first, "; ", node.second, Seq)
    if t is Assign:
        return (node.var + " = ",) + _atom(node.expr, parens=False)
    if t is Binary:
        left, op = node.left, node.op
        bare = type(left) is Binary and PRECEDENCE[left.op] >= PRECEDENCE[op]
        return ((left,) if bare else _atom(left)) + (f" {op} ",) + _atom(node.right)
    if t is Test:
        return _atom(node.left) + (f" {node.relop} ",) + _atom(node.right)
    if t is Call or t is CallExpr:
        parts = [node.name + "("]
        for i, arg in enumerate(node.args):
            if i:
                parts.append(", ")
            parts += _atom(arg, parens=False)
        parts.append(")")
        return tuple(parts)
    if t is Union:
        return _chain(node.first, " | ", node.second, Union)
    if t is Else:
        return _chain(node.tried, " else ", node.handler, Else)
    if t is TrueGoal:
        return ("t",)
    if t is Fail:
        return (_fail_text(node.path),)
    if t is StrLit:
        return (f'"{node.value}"',)
    if t is IntLit or t is Var or t is Param:
        return _atom(node)
    if t is Read:
        return ("read()",)
    if t is Case:
        parts = ["case Failtree of { "]
        arms = list(node.arms)
        if node.default is not None:
            arms.append(("_", node.default))
        for i, (label, body) in enumerate(arms):
            parts.append(("; " if i else "") + label + ": ")
            parts += _atom(body)
        parts.append(" }")
        return tuple(parts)
    raise TypeError(f"not a goal or expression: {node!r}")


# A span: where a node's text lies in the text of the root it was printed
# under, as (start, end, printed), with `printed[0]` the root's text.
Span = tuple[int, int, list[str]]

# Expressions other than calls get no span: no trace line shows them.
_SPANLESS = frozenset({IntLit, Var, Param, Binary, StrLit, Read})


def pretty_print(g: Goal, spans: dict[int, Span] | None = None) -> str:
    """Concrete syntax for a goal; parses back to the same tree.

    A compound operand is parenthesized, except where the grammar reads
    it the same way without: the right operand of the same
    right-associative `;`, `|` or `else`, and the left operand of an
    arithmetic operator when the operand's own operator binds at least
    as tightly (`a + b - c`, `a * b + c`; but `a - (b - c)`).  A node's
    text is therefore one contiguous piece of its parent's text.

    The text is emitted piece by piece from one explicit stack, which
    holds literal pieces, nodes still to print and, for each node being
    printed that gets a span, its `(id, start)`, popped where its text
    ends.  So a goal of any depth prints in linear time without host
    recursion.  With `spans`, the walk records `spans[id(node)] =
    (start, end, printed)` for the goal and every goal and call below
    it: once the call returns, `printed[0]` is the goal's text and
    `printed[0][start:end]` the node's.  A node that occurs twice keeps
    the span of one occurrence; both texts are the same.  The caller
    keeps every node in `spans` alive while it reads them, so that no
    `id` is reused.
    """
    pieces: list[str] = []
    printed: list[str] = []
    pos = 0
    stack: list = [g]
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            pos += len(item)
        elif type(item) is tuple:
            spans[item[0]] = (item[1], pos, printed)
        else:
            if spans is not None and type(item) not in _SPANLESS:
                stack.append((id(item), pos))
            stack += reversed(_parts(item))
    printed.append("".join(pieces))
    return printed[0]


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
    for node in reversed(list(_walk(g))):
        if type(node) is Union and (shared := done[-1] & done[-2]):
            found.append((node, sorted(shared)))
        names = _own_vars(node)
        for _ in _children(node):
            child = done.pop()
            if len(child) > len(names):
                names, child = child, names
            names |= child
        done.append(names)
    found.reverse()
    return found
