"""Machine state with a table of old values per open mark.

The store holds the variable bindings, a cursor over the pre-supplied
input stream, and the output buffer.  A mark lets a failing goal
restore the exact state the mark opened on.

The evaluator opens a mark only where it catches a failure (each `|`
operand, an `else`'s tried operand, a run's root goal), not per step.
`checkpoint` opens a mark and returns it: the number of marks now
open.  Each mark has a table of the first old value of every name
bound since it opened (None for a name that was unbound), and the
cursor and the output's length before its first read and first print,
under two reserved keys that are not names.  The table is made on the
first edit, so a mark that edits nothing allocates nothing.  The edits
made with no mark open, and the outermost mark's once it succeeds, go
to a base table that nothing restores.

The catch point ends its mark with `commit` if the operand succeeded
or `rollback(mark)` if it failed, so marks nest as the catch points do.
`commit` merges the innermost table into the enclosing one, iterating
over the smaller of the two, and the enclosing table's values win:
they are older.  `rollback(mark)` writes back every table from the
innermost to `mark`'s and drops them, so it also ends the marks opened
inside `mark`, as a run does when the host stack overflows.

So the store holds what the open marks could undo, not every edit
made: at most (open marks + 1) * (names + 2) old values, however long
the run (`count(100000)`, tail recursion through an `else` handler,
ends holding 2).  A success costs one merge, which iterates over the
smaller table only, and a failure the old values it writes back.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

Value = int | str

EOF_SENTINEL = -1

# A table's keys for the cursor before a mark's first read and the output's
# length before its first print; every other key is a name.
_CURSOR = object()
_OUTPUT = object()


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
        # The innermost open mark's table (the base table while none is open),
        # None before its first edit, and below it the enclosing ones, the base's first.
        self._table: dict[object, Value | None] | None = None
        self._outer: list[dict[object, Value | None] | None] = []

    # -- transactions ------------------------------------------------------

    def checkpoint(self) -> int:
        """Open a mark; returns it, the number of marks now open."""
        self._outer.append(self._table)
        self._table = None
        return len(self._outer)

    def commit(self) -> None:
        """End the innermost mark by success: merge its table into the enclosing one."""
        inner, outer = self._table, self._outer.pop()
        if inner and outer:
            if len(inner) >= len(outer):
                inner.update(outer)
                outer = inner
            else:
                for key, old in inner.items():
                    if key not in outer:
                        outer[key] = old
        self._table = outer or inner

    def rollback(self, mark: int) -> None:
        """End `mark`, and every mark opened inside it, by failure: restore the state it opened on."""
        outer_tables = self._outer
        while True:
            table = self._table
            if table:
                self.cursor = table.pop(_CURSOR, self.cursor)
                del self.output[table.pop(_OUTPUT, len(self.output)):]
                for name, old in table.items():
                    if old is None:
                        del self.bindings[name]
                    else:
                        self.bindings[name] = old
            self._table = outer_tables.pop()
            if len(outer_tables) < mark:
                return

    @property
    def undo_depth(self) -> int:
        """The old values held, over every open mark's table and the base table."""
        return sum(map(len, filter(None, (self._table, *self._outer))))

    # -- edits -------------------------------------------------------------

    def bind(self, name: str, value: Value) -> None:
        # `_keep` inline, reading the old value only when it is kept: every assignment comes here
        bindings, table = self.bindings, self._table
        if table is None:
            self._table = {name: bindings.get(name)}
        elif name not in table:
            table[name] = bindings.get(name)
        bindings[name] = value

    def _keep(self, key: object, old: int) -> None:
        """Note `old` under `key` in the innermost table, unless an older value is there."""
        if self._table is None:
            self._table = {}
        self._table.setdefault(key, old)

    def lookup(self, name: str) -> Value:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def read_input(self) -> int:
        """Next input token, advancing the cursor; the sentinel -1 at exhaustion."""
        cursor = self.cursor
        if cursor < len(self.input):
            self._keep(_CURSOR, cursor)
            self.cursor = cursor + 1
            return self.input[cursor]
        return EOF_SENTINEL

    def emit_output(self, line: str) -> None:
        self._keep(_OUTPUT, len(self.output))
        self.output.append(line)

    # -- observation -------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, Value], int, tuple[str, ...]]:
        """The observable state: (bindings, cursor, output)."""
        return dict(self.bindings), self.cursor, tuple(self.output)

    def __repr__(self) -> str:
        return f"Store(bindings={self.bindings!r}, cursor={self.cursor}, output={self.output!r})"
