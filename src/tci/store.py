"""Machine state with an undo log.

The store holds the variable bindings, a cursor over the pre-supplied
input stream, and the output buffer.  Edits are recorded in an undo log
so that a failing goal can restore the exact state it started from.

A mark is a position in the log, and `floor` is the newest live one (0,
the log's bottom, when none is open).  The evaluator opens a mark only
where it catches a failure (each `|` operand, an `else`'s tried
operand, a run's root goal), not per step.  `checkpoint` opens a mark
at the log's length and returns the enclosing mark.  The catch point
ends its mark with `rollback` if the operand failed or `commit` if it
succeeded, passing that enclosing mark, which both reopen; so marks
nest as the catch points do.  `rollback` reverses every entry above
the open mark.  To abandon marks opened inside its own, as a run does
when the host stack overflows, a caller sets `floor` back to its mark
first.

A binding is logged only when a rollback could need its old value: when
the name has no bind entry at or above `floor` (conditional trailing, as
in the WAM).  The store keeps the index of each name's newest bind
entry, and each bind entry the index it replaced, which `rollback` and
`commit` restore.  `commit` also folds: it pops the bind entries on top
of the log whose name has an older entry at or above the reopened mark,
since rolling back to that mark would undo them anyway.  Every read and
print is logged.

So the log holds what the live marks could undo, not every edit made.
A success costs a few attribute accesses plus one pop per folded entry,
and a failure the entries it undoes.  Bound, for binds of `N` names with
at most `H` marks open at once: above a mark, each name has at most one
entry whose previous entry is below it, at most `N` such entries.  A
mark closed inside it leaves behind only its entries up to the last of
those, and the open inner mark's entries lie above them, so the log
holds at most `N * (N + 1) ** H` entries, however long the run.  The
bound is approached only by nesting that buries a name's entries under
names new at each level; tail recursion through an `else` handler keeps
one entry per name (`count(100000)` holds 2).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

Value = int | str

EOF_SENTINEL = -1


class UnboundVariable(Exception):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class Store:
    def __init__(self, input_tokens: Iterable[int] = (), bindings: Mapping[str, Value] | None = None):
        self.bindings: dict[str, Value] = dict(bindings or {})
        self.input: list[int] = list(input_tokens)
        self.cursor: int = 0
        self.output: list[str] = []
        self.floor: int = 0  # the newest live mark
        # Entries, newest last: (name, old value or None if unbound, index of
        # the name's previous bind entry or -1) for a bind, the old cursor
        # for a read, None for a print.
        self._undo: list[tuple[str, Value | None, int] | int | None] = []
        self._last: dict[str, int] = {}  # name -> index of its newest bind entry, -1 for none

    # -- transactions ------------------------------------------------------

    def checkpoint(self) -> int:
        """Open a mark at the undo log's length; returns the enclosing mark."""
        outer = self.floor
        self.floor = len(self._undo)
        return outer

    def commit(self, outer: int) -> None:
        """End the open mark by success: reopen `outer`, folding the entries it would undo anyway."""
        undo, last = self._undo, self._last
        while undo:
            entry = undo[-1]
            if type(entry) is not tuple or entry[2] < outer:
                break
            undo.pop()
            last[entry[0]] = entry[2]
        self.floor = outer

    def rollback(self, outer: int) -> None:
        """End the open mark by failure: reverse every edit made above it, then reopen `outer`."""
        undo = self._undo
        floor = self.floor
        if len(undo) > floor:
            bindings, last = self.bindings, self._last
            for entry in reversed(undo[floor:]):
                if type(entry) is tuple:
                    name, old, prev = entry
                    if old is None:
                        del bindings[name]
                    else:
                        bindings[name] = old
                    last[name] = prev
                elif entry is None:
                    self.output.pop()
                else:
                    self.cursor = entry
            del undo[floor:]
        self.floor = outer

    @property
    def undo_depth(self) -> int:
        return len(self._undo)

    # -- edits -------------------------------------------------------------

    def bind(self, name: str, value: Value) -> None:
        bindings, last = self.bindings, self._last
        prev = last.get(name, -1)
        if prev < self.floor:
            undo = self._undo
            last[name] = len(undo)
            undo.append((name, bindings.get(name), prev))
        bindings[name] = value

    def lookup(self, name: str) -> Value:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def read_input(self) -> int:
        """Next input token, advancing the cursor; the sentinel -1 at exhaustion."""
        if self.cursor < len(self.input):
            value = self.input[self.cursor]
            self._undo.append(self.cursor)
            self.cursor += 1
            return value
        return EOF_SENTINEL

    def emit_output(self, line: str) -> None:
        self._undo.append(None)
        self.output.append(line)

    # -- observation -------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, Value], int, tuple[str, ...]]:
        """The observable state: (bindings, cursor, output)."""
        return dict(self.bindings), self.cursor, tuple(self.output)

    def __repr__(self) -> str:
        return f"Store(bindings={self.bindings!r}, cursor={self.cursor}, output={self.output!r})"
