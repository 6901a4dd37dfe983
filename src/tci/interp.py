"""The TC evaluator.

Every goal evaluates to an outcome: `Success`, or a `failure.Failure`,
the set of failure paths the goal failed with.  A failing goal leaves no
trace in the store that anything reads.  Only three places read the
store after a failure, and only they take a checkpoint, a mark in the
store: each operand of a `|` chain, the tried operand of an `else`, and
the root goal of a run.  Each opens its mark before the operand and ends
it after: on failure it rolls the store back to the mark, on success it
commits, and either way the enclosing mark is the innermost open one
again.  A success's edits stay undoable by the enclosing mark: the
store keeps each name's first old value per open mark, at most (open
marks + 1) * (names + 2) values, and a commit merges the closed mark's
table into the enclosing one, whose older values win.  Every other rule
lets a failure propagate with its partial edits in place, and the
nearest enclosing catch point undoes them, so partial updates never
escape a failure at any nesting level.  The unions on a chain's spine
(in `G1 | (G2 | G3)`, the `|` that is the second operand of the one
before) take no mark of their own.  A union that fails has rolled back
each of its operands already, so its mark would have nothing to undo;
and an operand's commit straight into the enclosing mark leaves that
mark's table as the spine's commits would, because older values win.
So an n-operand chain opens at most n marks.  A host-stack overflow
ends a run with every mark its descent opened still open: `run` rolls
back to its own mark, which ends them all.

A run takes one of two loops, chosen once by `run`: the traced loop
(`_eval`, with `_expr` for expressions and `_enter` to start a call)
when it keeps a trace, else the untraced loop (`_run`, with `_value`).
Both apply the same rules and end with the same outcome, store and
`Budget.used`.  One step is one iteration of a loop: it spends a unit of
the budget, picks the goal's rule by testing `type(goal) is ...`, most
frequent types first, and runs it in the same host frame; expressions
are dispatched the same way.  A step in a tail position, where nothing
is left to do after it, replaces the step that reached it and the loop
goes on.  The tail positions are a `;`'s second operand once the first
has succeeded, an `else`'s handler after the rollback, the chosen `case`
arm or default, and the body of a call in goal position, under the
callee's frame.  So tail recursion runs in constant host stack.  A `|`
chain's step walks the spine in one loop, each spine union spending its
step when it is reached, so a chain of any width takes constant host
stack and is bounded only by the budget.  Outcomes are immutable, so
they are shared: one Success, and one Failure for each fixed /F/sys path
the machine throws, built at import; an `else` hands its tried operand's
Failure on as the ambient failure that `case` reads, and a `case` with
no matching arm fails with that same object.

The traced loop is the reference: it holds the generic rules only, and
every step has its trace line.  Every operand that is not in a tail
position (a `;`'s first, an `else`'s tried operand, each `|` operand,
arguments, calls in expression position) is run by a nested call of
`_eval` or `_expr`, one host frame deeper, and a call's arguments by
`_enter`, which returns the body to run and its trace head.

The untraced loop holds no trace code, and three fast paths.  A leaf
operand runs in the frame of the step that holds it, and spends its own
step there: a `;`'s first operand when it is a test or an assignment
runs as the loop's next step, and the guard of an `else` and the `;`
around it, and an `f` operand of a `|`, are spent inline by the `else`
and `|` rules.  Such a fast path is taken only when the budget covers
every step it spends inline, so `Budget.used` and the step where
`/F/sys/depth` fires are as the generic rules give them.  The guard and
`f` paths also open no mark where nothing can be undone (shallow
backtracking, after Carlsson, ICLP 1989), decided by node types at the
step.  An `f` operand of a `|` opens none.  Nor does the guard `G` of
an `else` whose tried operand is `(G; rest)`, when `G` is a test whose
operands are parameters, variables or literals: the `else` rule reads
and compares them itself, and if the guard fails the handler runs at
once, with the guard's own failure as the ambient failure; only a guard
that holds opens the mark, around `rest`.  A guard over leaves reads the
store but never writes it, and `f` writes nothing, so the marks skipped
would have had nothing to undo, and outcomes and stores are as the
generic rules leave them.  A test with a call or `read()` in an operand
can edit the store (the callee's assignments, the input cursor) before
it fails, and so can an assignment before the test; both keep their
mark.  `_enter` is inline in the untraced `Call` rule, so a goal-position
call evaluates its arguments, finds its definition and goes on into the
body in the same frame, and in `_value`'s `CallExpr` rule, so a call
nested in an argument takes one host frame, not two.  So an untraced
non-tail level such as `p(n) = (n == 0; ret = 0) else ret = 1 + p(n -
1)` takes three host frames (`_run` for the assignment, `_value` for the
sum and for the call), as it does traced, and each call nested in an
argument, as in `g(g(...))`, takes one, where a traced run takes two
(`_expr` and `_enter`).

A call evaluates its arguments in the caller's frame and runs the
procedure body unchanged with the list of those values as its frame.
The parser has resolved each parameter read in a body to a `Param`
holding the parameter's position, so a `Param` reads `frame[index]` and
a `Var` reads the store, with no name looked up in the frame.  A callee
never sees its caller's frame, and nothing writes a frame: an `Assign`
writes the store by name, and a body reads its parameters only through
`Param` slots.  So frames need no undo.

`G1 | G2` runs both operands in order (the second from the first's result
state when it succeeded) and succeeds if at least one does.  A chain
`G1 | ... | Gn` runs its n operands in order in the same way.  If every
operand fails, the chain fails with the first failed operand's Failure
itself, unless a later operand fails with a path outside it: only then
are the paths put into one set, from which one Failure is built.  So a
failure of k paths that propagates through d unions whose other
operands fail with a subset of its paths (often `/F/sys/test`) is not
copied d times.  `G1 else G2` runs the handler only after rolling G1
back, and makes G1's Failure available to `case Failtree of` goals for
the handler's dynamic extent.

The trace is a list of lines in pre-order, one per goal step and one
per call in expression position, each indented two spaces per enclosing
step: `[rule R] text => result`.  Indentation stops at `MAX_INDENT`
(32) levels: a line under more steps is indented 32 levels and starts
with their number, `(40) [rule R] ...`, so a line's length does not
grow with its depth.  A traced run keeps each line as a record of five
slots in one flat list, `Evaluator.trace`: its level (the steps open
around it), its rule, its head (a call's frame, or ""), its step's
span and its result text; `trace_lines` makes the text of records, and
`render_trace` writes them a batch at a time when the run ends, so
the text of the whole trace is never held at once.  (The lines cannot
be written as the run goes: a step's line comes before its sub-steps'
lines, and its rule and result are known only when it exits.)  A step reserves its record on entry
and fills it in on exit, when its rule and result are known.  A step
that goes on into a tail position (rule 6, 11, `case` or 4) has the
same result as the last step of its loop: its record is filled in with
an empty result when the loop goes on, and the result is stored into
its last slot when that last step returns.  Each spine union of a `|`
chain keeps its own record, reserved when the union is reached, and the
chain's records are closed right to left when it ends: a union's result
is the chain's outcome from its own operand on, and its rule comes from
its operand and that rest.  Their `failure(...)` texts come from one
growing set of paths whose smallest are kept as text, so a traced chain
takes time linear in its width.  A traced run prints each root once,
recording where the text of each goal and call below it lies (its span):
the run's goal on entry, and a procedure body on its first call.  The
table of spans is dropped when `run` returns; the records keep the
spans they show, and with them the printed text.  A line's text is its
step's span cut to `TRACE_WIDTH` characters (the last three `...` when
the span is longer), and only the characters kept are copied, so a `;`
chain is not printed again for every enclosing step.  A `failure(...)`
result is cut the same way.  Rule ids: 1 success of `t`, 4 a procedure
call, 5 an assignment, 6 sequencing, 7/8/9 the three ways a `|` can
succeed (both operands, only the second, only the first), 10/11 an
`else` whose first operand succeeded/failed.  Tests, case dispatch,
calls in expression position, and rule-less failures are tagged `test`,
`case`, `call-expr`, and `fail`.  The first line under a call's line is
the procedure body, prefixed once with the callee's frame, e.g.
`[rule 11] {n = 1} (n == 0; ret = 1) else (...) => success`.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

from .failure import (
    Failure,
    MAX_INDENT,
    SYS_CASE,
    SYS_DEPTH,
    SYS_DIV0,
    SYS_TEST,
    SYS_UNBOUND,
    SYS_UNDEF,
    matches,
    throw,
)
from .record import Record
from .store import Store, UnboundVariable, Value
from .syntax import (
    Assign,
    Binary,
    Call,
    CallExpr,
    Case,
    Else,
    Expr,
    Fail,
    Goal,
    IntLit,
    Param,
    Program,
    Read,
    Seq,
    Span,
    StrLit,
    Test,
    TrueGoal,
    Union,
    Var,
    int_text,
    pretty_print,
)

DEFAULT_MAX_STEPS = 1_000_000

# A procedure invoked in expression position reports its result through
# this global: the caller reads it immediately when the call returns.
RET_VAR = "ret"

PRINT_BUILTIN = "print"

# A trace line shows at most this many characters of its goal's text.
TRACE_WIDTH = 160

# The indentation of a trace line at each level up to MAX_INDENT.
_INDENTS = tuple("  " * level for level in range(MAX_INDENT + 1))

# A trace record as `_open_line` reserves it: level, rule, head, span, result.
_RESERVED = (0, "", "", None, "")

# Trace lines made and written at a time: a batch's text stays small
# beside the records still waiting.
TRACE_BATCH = 64

# The running call's argument values, by parameter position; a `Param` reads its slot.
Frame = Sequence[Value]


class Success(Record):
    """The goal succeeded; its effects are in the evaluator's store."""

    __slots__ = ()


Outcome = Success | Failure

# The evaluator's one Success, which it tests for by identity, and its
# failures at fixed paths.
_SUCCESS = Success()
_FAIL_TEST = throw(SYS_TEST)
_FAIL_UNBOUND = throw(SYS_UNBOUND)
_FAIL_DIV0 = throw(SYS_DIV0)
_FAIL_UNDEF = throw(SYS_UNDEF)
_FAIL_DEPTH = throw(SYS_DEPTH)
_FAIL_CASE = throw(SYS_CASE)


class Budget:
    """Step allowance, one unit per goal evaluated; exhaustion fails with /F/sys/depth.

    Each of `Evaluator`'s loops spends from `remaining` inline, one test
    and one decrement per step.
    """

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS):
        self.max_steps = max_steps
        self.remaining = max_steps

    @property
    def used(self) -> int:
        return self.max_steps - self.remaining


class _EvalFailure(Exception):
    """Internal: aborts expression evaluation, carrying the failure outcome."""

    def __init__(self, out: Failure):
        self.out = out


def _int_div(a: int, b: int) -> int:
    # truncating division, C-style
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def format_value(v: Value) -> str:
    """How print() renders a value on the output stream."""
    return v if isinstance(v, str) else int_text(v)


def format_binding(name: str, v: Value) -> str:
    """A binding as run output and trace frames show it: `n = 1`, `s = "a"`."""
    return f'{name} = "{v}"' if isinstance(v, str) else f"{name} = {int_text(v)}"


def _frame_text(params: tuple[str, ...], frame: Frame) -> str:
    """A call's parameter bindings as its trace line shows them, e.g. `{n = 1, s = "a"}`."""
    return "{" + ", ".join(format_binding(name, v) for name, v in zip(params, frame)) + "}"


def _result_text(out: Outcome) -> str:
    """A step's result as its trace line shows it, cut to `TRACE_WIDTH` as a goal's text is."""
    if isinstance(out, Success):
        return "success"
    if len(out.paths) == 1:  # most failures; it saves a `_FailureText` per line
        [path] = out.paths
        text = f"failure({path})"
        return text if len(text) <= TRACE_WIDTH else text[:TRACE_WIDTH - 3] + "..."
    text = _FailureText()
    text.add(out.paths)
    return text.text()


class _FailureText:
    """The `failure(...)` text of a growing set of paths, cut to `TRACE_WIDTH`, in time linear in the paths.

    The text lists the paths sorted, so only its smallest paths are kept:
    `seen` holds the text of every path added, `head` the smallest of
    them, sorted, just as many as fill `TRACE_WIDTH` characters (or all
    of them), `head_length` is the length of `failure(` and `head`
    joined (for a nonempty head), and `length` that of the whole text.
    """

    __slots__ = ("seen", "head", "head_length", "length")

    def __init__(self):
        self.seen: set[str] = set()
        self.head: list[str] = []
        self.head_length = len("failure(") - 2
        self.length = len("failure()") - 2

    def add(self, paths) -> None:
        seen, head = self.seen, self.head
        for text in paths:
            if text in seen:
                continue
            seen.add(text)
            self.length += len(text) + 2
            if self.head_length >= TRACE_WIDTH and text > head[-1]:
                continue
            i = len(head)
            while i and head[i - 1] > text:
                i -= 1
            head.insert(i, text)
            self.head_length += len(text) + 2
            while self.head_length - len(head[-1]) - 2 >= TRACE_WIDTH:
                self.head_length -= len(head.pop()) + 2

    def text(self) -> str:
        if self.length <= TRACE_WIDTH:
            return "failure(" + ", ".join(self.head) + ")"
        return ("failure(" + ", ".join(self.head))[:TRACE_WIDTH - 3] + "..."


class Evaluator:
    """One evaluation run over one store.  Not shared between threads."""

    def __init__(self, program: Program, store: Store, budget: Budget | None = None, trace: bool = False):
        self.program = program
        self.store = store
        self.budget = budget if budget is not None else Budget()
        # the trace records, five slots per line (see the module docstring)
        self.trace: list | None = [] if trace else None
        self._depth = 0  # traced steps now open: the indent of the next trace line
        self._spans: dict[int, Span] | None = None  # id(node) -> span of its text, while a traced `run` runs
        # the last failure of several paths a trace line showed, and its text:
        # a failure that propagates through d steps is rendered once, not d times
        self._shown_paths: frozenset[str] | None = None
        self._shown_text = ""

    def run(self, goal: Goal) -> Outcome:
        """Evaluate one goal, by the traced loop or the untraced one; on failure the store is as `run` found it."""
        store, trace = self.store, self.trace
        if trace is not None:
            entry_lines = len(trace)
            # Every node this run prints is alive until it returns (the
            # program and `goal`), so no id in the table is reused.
            self._spans = {}
            pretty_print(goal, self._spans)
        mark = store.checkpoint()
        try:
            out = self._run(goal, None, ()) if trace is None else self._eval(goal, None, ())
        except RecursionError:
            # The object program out-recursed the host stack before the step
            # budget fired; report it as the same depth failure, after undoing
            # every edit the aborted descent made, whatever marks it left open.
            store.rollback(mark)
            out = _FAIL_DEPTH
            if trace is not None:
                del trace[entry_lines:]
                self._depth = 0
                self._close_line(self._open_line(), "fail", "", goal, self._result(out))
                self._depth = 0
            return out
        finally:
            self._spans = None
        if out is _SUCCESS:
            store.commit()
        else:
            store.rollback(mark)
        return out

    # -- the untraced loop ---------------------------------------------------

    def _run(self, g: Goal, ambient: Failure | None, frame: Frame) -> Outcome:
        """Untraced steps from `g` on: `_eval`'s rules, with the fast paths and `_enter` inline.

        `g`, `ambient` and `frame` are as in `_eval`; a step in a tail
        position replaces them and loops.  The `is` chain tests the most
        frequent goal types first: a test comes after an `else` here,
        since the guards run inline.
        """
        budget = self.budget
        store = self.store
        defs = self.program.defs
        then = None  # the `;`'s second operand, while its leaf first operand runs
        while True:
            if budget.remaining <= 0:
                return _FAIL_DEPTH
            budget.remaining -= 1
            t = type(g)
            if t is Seq:
                first = g.first
                if type(first) is Assign or type(first) is Test:
                    # the leaf runs as this loop's next step, and `then` holds the rest
                    g, then = first, g.second
                    continue
                out = self._run(first, ambient, frame)
                if out is _SUCCESS:
                    g = g.second
                    continue
            elif t is Assign:
                try:
                    value = self._value(g.expr, ambient, frame)
                except _EvalFailure as fail:
                    out = fail.out
                else:
                    store.bind(g.var, value)
                    out = _SUCCESS
            elif t is Call:
                # `_enter`, inline: the body goes on in this frame
                values = []
                try:
                    for a in g.args:
                        if type(a) is Param:
                            values.append(frame[a.index])
                        elif type(a) is IntLit:
                            values.append(a.value)
                        else:
                            values.append(self._value(a, ambient, frame))
                except _EvalFailure as fail:
                    out = fail.out
                else:
                    defn = defs.get((g.name, len(values)))
                    if defn is not None:
                        g, frame = defn.body, values
                        continue
                    if g.name == PRINT_BUILTIN and len(values) == 1:
                        store.emit_output(format_value(values[0]))
                        out = _SUCCESS
                    else:
                        out = _FAIL_UNDEF
            elif t is Else:
                tried = g.tried
                if type(tried) is Seq and type(tried.first) is Test and budget.remaining >= 2:
                    # A guard over leaves reads the store and never writes it, so
                    # it runs here before any mark opens, spending the `;`'s step
                    # and its own.  An unbound variable reads as None.
                    guard = tried.first
                    left, right = guard.left, guard.right
                    lt, rt = type(left), type(right)
                    if (lt is Param or lt is Var or lt is IntLit or lt is StrLit) and (
                        rt is IntLit or rt is Param or rt is Var or rt is StrLit
                    ):
                        budget.remaining -= 2
                        if lt is Param:
                            lv = frame[left.index]
                        elif lt is Var:
                            lv = store.bindings.get(left.name)
                        else:
                            lv = left.value
                        if rt is IntLit or rt is StrLit:
                            rv = right.value
                        elif rt is Param:
                            rv = frame[right.index]
                        else:
                            rv = store.bindings.get(right.name)
                        op = guard.relop
                        if lv is None or rv is None:
                            out = _FAIL_UNBOUND
                        elif type(lv) is int and type(rv) is int or (
                            type(lv) is str and type(rv) is str and (op == "==" or op == "!=")
                        ):
                            out = _SUCCESS if _COMPARE[op](lv, rv) else _FAIL_TEST
                        else:
                            out = _FAIL_TEST
                        if out is not _SUCCESS:
                            g, ambient = g.handler, out
                            continue
                        tried = tried.second
                mark = store.checkpoint()
                out = self._run(tried, ambient, frame)
                if out is _SUCCESS:
                    store.commit()
                else:
                    store.rollback(mark)
                    g, ambient = g.handler, out
                    continue
            elif t is Test:
                out = self._test(g, ambient, frame, self._value)
            elif t is Union:
                # `_eval`'s chain walk, where an `f` operand writes nothing, so
                # it opens no mark; its step runs here.
                whole: Outcome | None = None
                more: set[str] | None = None
                union = g
                operand = g.first
                while True:
                    if type(operand) is Fail and budget.remaining > 0:
                        budget.remaining -= 1
                        if more is not None:
                            more.add(operand.path)
                        elif whole is None:
                            whole = throw(operand.path)
                        elif whole is not _SUCCESS and operand.path not in whole.paths:
                            more = {*whole.paths, operand.path}
                    else:
                        mark = store.checkpoint()
                        out = self._run(operand, ambient, frame)
                        if out is _SUCCESS:
                            store.commit()
                            whole, more = _SUCCESS, None
                        else:
                            store.rollback(mark)
                            if more is not None:
                                more |= out.paths
                            elif whole is None:
                                whole = out
                            elif whole is not _SUCCESS and not out.paths <= whole.paths:
                                more = {*whole.paths, *out.paths}
                    if union is None:
                        break
                    operand = union.second
                    if type(operand) is not Union:
                        union = None
                        continue
                    union = operand
                    if budget.remaining <= 0:
                        if more is not None:
                            more.add(SYS_DEPTH)
                        elif whole is not _SUCCESS and SYS_DEPTH not in whole.paths:
                            more = {*whole.paths, SYS_DEPTH}
                        break
                    budget.remaining -= 1
                    operand = union.first
                out = whole if more is None else Failure(more)
            elif t is TrueGoal:
                out = _SUCCESS
            elif t is Fail:
                out = throw(g.path)
            elif t is Case:
                if ambient is None:
                    out = _FAIL_CASE
                else:
                    for pattern, body in g.arms:
                        if matches(pattern, ambient):
                            break
                    else:
                        body = g.default
                    if body is None:
                        out = ambient
                    else:
                        g, ambient = body, None
                        continue
            else:
                raise TypeError(f"not a goal: {g!r}")
            if then is None or out is not _SUCCESS:
                return out
            g, then = then, None  # the leaf was a `;`'s first operand: go on to its second

    def _value(self, e: Expr, ambient: Failure | None, frame: Frame) -> Value:
        """An expression's value in an untraced run; a failure raises `_EvalFailure`.

        `_expr`'s rules, with `_enter` inline in the `CallExpr` rule, so a
        nested call in an argument takes one host frame.
        """
        t = type(e)
        if t is Binary:
            # A literal, parameter or variable operand is read here, without a call.
            left, right = e.left, e.right
            lt, rt = type(left), type(right)
            try:
                if lt is Param:
                    lv = frame[left.index]
                elif lt is IntLit:
                    lv = left.value
                elif lt is Var:
                    lv = self.store.lookup(left.name)
                else:
                    lv = self._value(left, ambient, frame)
                if rt is IntLit:
                    rv = right.value
                elif rt is Param:
                    rv = frame[right.index]
                elif rt is Var:
                    rv = self.store.lookup(right.name)
                else:
                    rv = self._value(right, ambient, frame)
            except UnboundVariable:
                raise _EvalFailure(_FAIL_UNBOUND) from None
            if not (type(lv) is int and type(rv) is int):
                raise _EvalFailure(_FAIL_TEST)
            op = e.op
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if rv == 0:
                raise _EvalFailure(_FAIL_DIV0)
            return _int_div(lv, rv)
        if t is CallExpr:
            # `_enter`, inline.  No checkpoint of its own: a failure here fails
            # the enclosing goal, and the nearest catch point rolls back what
            # the call did.
            values = []
            for a in e.args:
                if type(a) is Param:
                    values.append(frame[a.index])
                elif type(a) is IntLit:
                    values.append(a.value)
                else:
                    values.append(self._value(a, ambient, frame))
            defn = self.program.defs.get((e.name, len(values)))
            if defn is not None:
                out = self._run(defn.body, ambient, values)
                if out is not _SUCCESS:
                    raise _EvalFailure(out)
            elif e.name == PRINT_BUILTIN and len(values) == 1:
                self.store.emit_output(format_value(values[0]))
            else:
                raise _EvalFailure(_FAIL_UNDEF)
            name = RET_VAR
        elif t is Param:
            return frame[e.index]
        elif t is Var:
            name = e.name
        elif t is IntLit or t is StrLit:
            return e.value
        elif t is Read:
            return self.store.read_input()
        else:
            raise TypeError(f"not an expression: {e!r}")
        # a variable, or the result of a call
        try:
            return self.store.lookup(name)
        except UnboundVariable:
            raise _EvalFailure(_FAIL_UNBOUND) from None

    # -- the traced loop -----------------------------------------------------

    def _result(self, out: Outcome) -> str:
        """`_result_text(out)`; the text of several paths is built again only for other paths than the last such."""
        if out is _SUCCESS:
            return "success"
        if len(out.paths) == 1:
            return _result_text(out)
        if out.paths is not self._shown_paths:
            if out.paths != self._shown_paths:
                self._shown_text = _result_text(out)
            self._shown_paths = out.paths  # the next line likely shows this same set
        return self._shown_text

    def _open_line(self) -> int:
        """Reserve the trace record of a step being entered; returns the index of its first slot."""
        trace = self.trace
        at = len(trace)
        trace += _RESERVED
        self._depth += 1
        return at

    def _close_line(self, at: int, rule: int | str, head: str, node: Goal | Expr, result: str) -> None:
        """Fill in a step's record: its level, `rule`, `head`, its node's span, and `result`.

        The level counts the steps open around the step, not its own.  A
        deferred tail step is filled in with an empty `result`, and its
        result is stored when its loop's last step returns.
        """
        self.trace[at:at + 5] = self._depth - 1, rule, head, self._spans[id(node)], result

    def _close_spine(self, levels: list, rest: Outcome) -> int | str:
        """Write the lines of a `|` chain's spine unions, right to left; returns the first one's rule.

        `levels` holds three items per spine union, in chain order: its
        line, the union, and its first operand's paths (None when that
        operand succeeded).  `rest` is the outcome of what follows the
        last: the last operand, or /F/sys/depth when the budget ran out
        at the next union.  A union's rule comes from its first operand
        and the rest of the chain, and its result is the chain's outcome
        from its own operand on.  The first union's line is left to the
        step's own close.
        """
        text = None  # the failed paths from the line being written on, built only once a line shows them
        ok = rest is _SUCCESS
        while True:
            first = levels.pop()
            union = levels.pop()
            line = levels.pop()
            if first is None:
                rule = 7 if ok else 9
                ok = True
            elif ok:
                rule = 8
            else:
                rule = "fail"
            if not levels:
                return rule
            if not ok:
                if text is None:
                    text = _FailureText()
                    text.add(rest.paths)
                text.add(first)
            self._close_line(line, rule, "", union, "success" if ok else text.text())
            self._depth -= 1

    def _eval(self, g: Goal, ambient: Failure | None, frame: Frame, head: str = "") -> Outcome:
        """Traced steps from `g` on: each spends a unit of the budget, then runs the rule of its goal's type.

        A step in a tail position replaces `g`, `ambient`, `frame` and
        `head` and loops; the steps it replaces get its outcome, and their
        trace lines stay open until it returns.  Only the `|` and `else`
        rules take store checkpoints, around the operands whose failure
        they catch; every other rule leaves a failure's partial edits to
        the nearest such catch point (or `run`).

        `frame` is the running call's argument list, which the `Param`
        reads of its body index (empty for the run's root goal).  `head`
        prefixes the step's trace text.
        """
        trace = self.trace
        deferred: list[int] = []  # the lines of the tail steps this loop went through
        budget = self.budget
        while True:
            at = self._open_line()
            if budget.remaining <= 0:
                rule: int | str = "fail"
                out: Outcome = _FAIL_DEPTH
                break
            budget.remaining -= 1
            t = type(g)
            if t is Seq:
                rule = 6
                out = self._eval(g.first, ambient, frame)
                if out is _SUCCESS:
                    self._close_line(at, rule, head, g, "")
                    deferred.append(at)
                    g, head = g.second, ""
                    continue
            elif t is Assign:
                rule = 5
                try:
                    value = self._expr(g.expr, ambient, frame)
                except _EvalFailure as fail:
                    out = fail.out
                else:
                    self.store.bind(g.var, value)
                    out = _SUCCESS
            elif t is Call:
                rule = 4
                out = self._enter(g.name, g.args, ambient, frame)
                if type(out) is tuple:
                    self._close_line(at, rule, head, g, "")
                    deferred.append(at)
                    g, frame, head = out
                    continue
            elif t is Test:
                rule = "test"
                out = self._test(g, ambient, frame, self._expr)
            elif t is Else:
                store = self.store
                mark = store.checkpoint()
                out = self._eval(g.tried, ambient, frame)
                if out is _SUCCESS:
                    store.commit()
                    rule = 10
                else:
                    store.rollback(mark)
                    rule = 11
                    self._close_line(at, rule, head, g, "")
                    deferred.append(at)
                    g, ambient, head = g.handler, out, ""
                    continue
            elif t is Union:
                # A chain `G1 | G2 | ... | Gn` runs as one step, walking its
                # spine (`g` and each `Union` that is the second operand of
                # the one before) in one loop.  Each operand runs under its
                # own mark; each spine union after `g` spends a step when it
                # is reached, after the operand before it.
                store = self.store
                # The chain's outcome so far: None before an operand has run, the
                # first failed operand's Failure while every operand failed, and
                # _SUCCESS once one succeeded.  `more` holds every failed path
                # once an operand adds one outside that Failure.
                whole: Outcome | None = None
                more: set[str] | None = None
                levels = []  # per spine union: its line, itself, its first operand's paths or None
                line = at
                union = g
                operand = g.first
                while True:
                    mark = store.checkpoint()
                    out = self._eval(operand, ambient, frame)
                    if out is _SUCCESS:
                        store.commit()
                        whole, more = _SUCCESS, None
                    else:
                        store.rollback(mark)
                        if more is not None:
                            more |= out.paths
                        elif whole is None:
                            whole = out
                        elif whole is not _SUCCESS and not out.paths <= whole.paths:
                            more = {*whole.paths, *out.paths}
                    if union is None:  # that was the last operand
                        break
                    levels += line, union, None if out is _SUCCESS else out.paths
                    operand = union.second
                    if type(operand) is not Union:
                        union = None
                        continue
                    union = operand
                    line = self._open_line()
                    if budget.remaining <= 0:
                        out = _FAIL_DEPTH
                        if more is not None:
                            more.add(SYS_DEPTH)
                        elif whole is not _SUCCESS and SYS_DEPTH not in whole.paths:
                            more = {*whole.paths, SYS_DEPTH}
                        self._close_line(line, "fail", "", union, self._result(out))
                        self._depth -= 1
                        break
                    budget.remaining -= 1
                    operand = union.first
                rule = self._close_spine(levels, out)
                out = whole if more is None else Failure(more)
            elif t is TrueGoal:
                rule = 1
                out = _SUCCESS
            elif t is Fail:
                rule = "fail"
                out = throw(g.path)
            elif t is Case:
                rule = "case"
                if ambient is None:
                    out = _FAIL_CASE
                else:
                    for pattern, body in g.arms:
                        if matches(pattern, ambient):
                            break
                    else:
                        body = g.default
                    if body is None:
                        out = ambient
                    else:
                        self._close_line(at, rule, head, g, "")
                        deferred.append(at)
                        g, ambient, head = body, None, ""
                        continue
            else:
                raise TypeError(f"not a goal: {g!r}")
            break
        result = self._result(out)
        self._close_line(at, rule, head, g, result)
        self._depth -= 1 + len(deferred)
        while deferred:  # popping frees each index as its line is done
            trace[deferred.pop() + 4] = result
        return out

    def _enter(
        self, name: str, args: tuple[Expr, ...], ambient: Failure | None, frame: Frame
    ) -> Outcome | tuple[Goal, Frame, str]:
        """Start a traced call: its outcome if it ends here, else (body, callee frame, body's trace head).

        The arguments are evaluated in the caller's frame, and their list
        is the callee's frame; a failing argument, the `print` builtin and
        an undefined procedure end the call here.  The trace head names
        each parameter.
        """
        # A loop, not a comprehension: before Python 3.12 a comprehension
        # runs in a function frame of its own.  A parameter or an integer
        # argument is read here, without a call.
        values = []
        try:
            for a in args:
                if type(a) is Param:
                    values.append(frame[a.index])
                elif type(a) is IntLit:
                    values.append(a.value)
                else:
                    values.append(self._expr(a, ambient, frame))
        except _EvalFailure as fail:
            return fail.out
        defn = self.program.defs.get((name, len(values)))
        if defn is None:
            if name == PRINT_BUILTIN and len(values) == 1:
                self.store.emit_output(format_value(values[0]))
                return _SUCCESS
            return _FAIL_UNDEF
        if id(defn.body) not in self._spans:
            pretty_print(defn.body, self._spans)
        return defn.body, values, _frame_text(defn.params, values) + " "

    def _test(self, g: Test, ambient: Failure | None, frame: Frame, value) -> Outcome:
        """The test rule: read both operands, then compare them.

        Integers compare by every relop, strings only by (in)equality, and
        any other pair fails the test.  A parameter, variable or integer
        operand is read here, without a call; any other is evaluated by
        `value`, the loop's expression evaluator (`_value` or `_expr`).
        """
        left, right = g.left, g.right
        try:
            if type(left) is Param:
                lv = frame[left.index]
            elif type(left) is Var:
                lv = self.store.lookup(left.name)
            elif type(left) is IntLit:
                lv = left.value
            else:
                lv = value(left, ambient, frame)
            if type(right) is IntLit:
                rv = right.value
            elif type(right) is Param:
                rv = frame[right.index]
            elif type(right) is Var:
                rv = self.store.lookup(right.name)
            else:
                rv = value(right, ambient, frame)
        except _EvalFailure as fail:
            return fail.out
        except UnboundVariable:
            return _FAIL_UNBOUND
        op = g.relop
        if type(lv) is int and type(rv) is int or type(lv) is str and type(rv) is str and (op == "==" or op == "!="):
            return _SUCCESS if _COMPARE[op](lv, rv) else _FAIL_TEST
        return _FAIL_TEST

    def _expr(self, e: Expr, ambient: Failure | None, frame: Frame) -> Value:
        """An expression's value in a traced run; a failure raises `_EvalFailure`.

        `Binary` and `CallExpr` are tested first: the rules that hold an
        operand read a leaf operand themselves.
        """
        t = type(e)
        if t is Binary:
            # A literal, parameter or variable operand is read here, without a call.
            left, right = e.left, e.right
            try:
                if type(left) is IntLit:
                    lv = left.value
                elif type(left) is Param:
                    lv = frame[left.index]
                elif type(left) is Var:
                    lv = self.store.lookup(left.name)
                else:
                    lv = self._expr(left, ambient, frame)
                if type(right) is IntLit:
                    rv = right.value
                elif type(right) is Param:
                    rv = frame[right.index]
                elif type(right) is Var:
                    rv = self.store.lookup(right.name)
                else:
                    rv = self._expr(right, ambient, frame)
            except UnboundVariable:
                raise _EvalFailure(_FAIL_UNBOUND) from None
            if not (type(lv) is int and type(rv) is int):
                raise _EvalFailure(_FAIL_TEST)
            op = e.op
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if rv == 0:
                raise _EvalFailure(_FAIL_DIV0)
            return _int_div(lv, rv)
        if t is CallExpr:
            # No checkpoint of its own: a failure here fails the enclosing
            # goal, and the nearest catch point rolls back what the call did.
            at = self._open_line()
            out = self._enter(e.name, e.args, ambient, frame)
            if type(out) is tuple:
                body, callee_frame, head = out
                out = self._eval(body, ambient, callee_frame, head)
            self._close_line(at, "call-expr", "", e, self._result(out))
            self._depth -= 1
            if out is not _SUCCESS:
                raise _EvalFailure(out)
            name = RET_VAR
        elif t is Param:
            return frame[e.index]
        elif t is Var:
            name = e.name
        elif t is IntLit or t is StrLit:
            return e.value
        elif t is Read:
            return self.store.read_input()
        else:
            raise TypeError(f"not an expression: {e!r}")
        # a variable, or the result of a call
        try:
            return self.store.lookup(name)
        except UnboundVariable:
            raise _EvalFailure(_FAIL_UNBOUND) from None


def eval_goal(program: Program, store: Store, goal: Goal, budget: Budget | None = None) -> Outcome:
    return Evaluator(program, store, budget).run(goal)


def trace_lines(records: list) -> list[str]:
    """The text lines of trace records, in order: `[rule R] head text => result`, indented by level.

    A line's text is its span cut to `TRACE_WIDTH` characters, and only
    the characters kept are copied.
    """
    lines = []
    deepest = _INDENTS[MAX_INDENT]
    for level, rule, head, (start, end, printed), result in zip(*[iter(records)] * 5):
        if end - start <= TRACE_WIDTH:
            text = printed[0][start:end]
        else:
            text = printed[0][start:start + TRACE_WIDTH - 3] + "..."
        indent = _INDENTS[level] if level <= MAX_INDENT else f"{deepest}({level}) "
        lines.append(f"{indent}[rule {rule}] {head}{text} => {result}")
    return lines


def render_trace(records: list, stream) -> None:
    """Write the lines of trace records to `stream`, `TRACE_BATCH` at a time, emptying `records`.

    The records are taken from the front, so the text written and the
    records still waiting are never both held whole.
    """
    records.reverse()
    slots = 5 * TRACE_BATCH
    while records:
        batch = records[:-slots - 1:-1]  # the next batch's slots, back in order
        del records[-slots:]
        stream.write("\n".join(trace_lines(batch)) + "\n")


def run_main(
    program: Program,
    input_tokens=(),
    budget: Budget | None = None,
    trace: bool = False,
) -> tuple[Outcome, Store, list | None]:
    """Run a program's main goal on a fresh store; returns (outcome, final store, trace records).

    Output is buffered in the store and kept only when main succeeds; a
    failing run is rolled back to the empty store, so it observably did
    nothing.
    """
    store = Store(input_tokens)
    ev = Evaluator(program, store, budget=budget, trace=trace)
    return ev.run(program.main), store, ev.trace
