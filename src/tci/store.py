"""Machine state with an undo log.

The store holds the variable bindings, a cursor over the pre-supplied
input stream, and the output buffer.  Every edit is recorded in an undo
log so that a failing goal can restore the exact state it started from.
A checkpoint is a mark: the log's length when it is taken.  Rolling back
to a mark reverses every edit logged above it; a goal that succeeds does
nothing, and its edits stay in the log for any enclosing mark to undo.
The evaluator takes a mark only where it catches a failure (each `|`
operand, an `else`'s tried operand, a run's root goal), not per step.
Failure cost is proportional to the edits undone; success costs one
length read per catch point.  The log lives as long as its store.
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
        self._undo: list[tuple] = []

    # -- transactions ------------------------------------------------------

    def checkpoint(self) -> int:
        """A mark to roll back to: the undo log's length now."""
        return len(self._undo)

    def rollback(self, mark: int) -> None:
        """Reverse every edit made since `checkpoint` returned `mark`."""
        while len(self._undo) > mark:
            entry = self._undo.pop()
            match entry[0]:
                case "bind":
                    _, name, had_old, old = entry
                    if had_old:
                        self.bindings[name] = old
                    else:
                        del self.bindings[name]
                case "cursor":
                    self.cursor = entry[1]
                case "emit":
                    self.output.pop()

    @property
    def undo_depth(self) -> int:
        return len(self._undo)

    # -- edits -------------------------------------------------------------

    def bind(self, name: str, value: Value) -> None:
        had_old = name in self.bindings
        self._undo.append(("bind", name, had_old, self.bindings.get(name)))
        self.bindings[name] = value

    def lookup(self, name: str) -> Value:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundVariable(name) from None

    def read_input(self) -> int:
        """Next input token, advancing the cursor; the sentinel -1 at exhaustion."""
        if self.cursor < len(self.input):
            value = self.input[self.cursor]
            self._undo.append(("cursor", self.cursor))
            self.cursor += 1
            return value
        return EOF_SENTINEL

    def emit_output(self, line: str) -> None:
        self._undo.append(("emit",))
        self.output.append(line)

    # -- observation -------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, Value], int, tuple[str, ...]]:
        """The observable state: (bindings, cursor, output)."""
        return dict(self.bindings), self.cursor, tuple(self.output)

    def __repr__(self) -> str:
        return f"Store(bindings={self.bindings!r}, cursor={self.cursor}, output={self.output!r})"
