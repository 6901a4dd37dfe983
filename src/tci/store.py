"""Machine state with transactional checkpoints.

The store holds the variable bindings, a cursor over the pre-supplied
input stream, and the output buffer.  Every edit goes through an undo log
so that a failing goal can restore the exact state it started from; a
checkpoint marks a log depth, commit folds the edits above it into the
enclosing transaction, rollback reverses them.  The evaluator opens a
checkpoint only where it catches a failure (each `|` operand, an
`else`'s tried operand, a run's root goal), not per step.  Failure cost
is proportional to the edits undone; success costs one push/pop per
catch point.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

Value = int | str

EOF_SENTINEL = -1


class CheckpointUnderflow(RuntimeError):
    """Commit/rollback without a matching checkpoint; an interpreter bug, not a program failure."""


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
        self._marks: list[int] = []

    # -- transactions ------------------------------------------------------

    def checkpoint(self) -> None:
        self._marks.append(len(self._undo))

    def commit(self) -> None:
        """Keep the edits made since the top checkpoint; they now belong to the enclosing one."""
        if not self._marks:
            raise CheckpointUnderflow("commit without checkpoint")
        self._marks.pop()
        if not self._marks:
            self._undo.clear()

    def rollback(self) -> None:
        """Reverse every edit made since the top checkpoint."""
        if not self._marks:
            raise CheckpointUnderflow("rollback without checkpoint")
        depth = self._marks.pop()
        while len(self._undo) > depth:
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

    def _require_open(self) -> None:
        if not self._marks:
            raise CheckpointUnderflow("edit outside any checkpoint")

    @property
    def open_checkpoints(self) -> int:
        return len(self._marks)

    @property
    def undo_depth(self) -> int:
        return len(self._undo)

    # -- edits -------------------------------------------------------------

    def bind(self, name: str, value: Value) -> None:
        self._require_open()
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
        self._require_open()
        if self.cursor < len(self.input):
            value = self.input[self.cursor]
            self._undo.append(("cursor", self.cursor))
            self.cursor += 1
            return value
        return EOF_SENTINEL

    def emit_output(self, line: str) -> None:
        self._require_open()
        self._undo.append(("emit",))
        self.output.append(line)

    # -- observation -------------------------------------------------------

    def snapshot(self) -> tuple[dict[str, Value], int, tuple[str, ...]]:
        """The observable state: (bindings, cursor, output)."""
        return dict(self.bindings), self.cursor, tuple(self.output)

    def __repr__(self) -> str:
        return f"Store(bindings={self.bindings!r}, cursor={self.cursor}, output={self.output!r})"
