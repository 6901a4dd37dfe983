"""Hierarchical failure classification.

Failures are identified by paths rooted at /F, organized like directories:
/F/usr/EOF is a user-thrown end-of-input failure, /F/sys/div0 a division by
zero.  A handler registered for a path catches every failure at or below
it, so /F/usr catches /F/usr/EOF and /F catches everything.  A failing
evaluation carries a tree of such paths (several branches of a `|` may
fail for different reasons at once).
"""

from __future__ import annotations

import re

from .record import Record, set_field

_SEGMENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class FailPath(Record):
    """One failure kind, written /F/seg/.../seg.  The first segment is always F."""

    __slots__ = ("segments",)

    def __init__(self, segments: tuple[str, ...]):
        segments = tuple(segments)
        if not segments or segments[0] != "F":
            raise ValueError(f"failure path must be rooted at /F: {segments!r}")
        for seg in segments:
            if not _SEGMENT_RE.match(seg):
                raise ValueError(f"bad failure path segment: {seg!r}")
        set_field(self, "segments", segments)

    @classmethod
    def parse(cls, text: str) -> FailPath:
        if not text.startswith("/"):
            raise ValueError(f"failure path must start with '/': {text!r}")
        return cls(tuple(text[1:].split("/")))

    def is_prefix_of(self, other: FailPath) -> bool:
        return self.segments == other.segments[: len(self.segments)]

    def __str__(self) -> str:
        return "/" + "/".join(self.segments)


ROOT = FailPath(("F",))

# Failures raised by the machine itself, rather than by an f(...) statement.
SYS_TEST = FailPath(("F", "sys", "test"))
SYS_UNBOUND = FailPath(("F", "sys", "unbound"))
SYS_DIV0 = FailPath(("F", "sys", "div0"))
SYS_UNDEF = FailPath(("F", "sys", "undef"))
SYS_DEPTH = FailPath(("F", "sys", "depth"))
SYS_CASE = FailPath(("F", "sys", "case"))


def user_path(segments: tuple[str, ...] | list[str]) -> FailPath:
    """Path for a user-thrown failure: f(a/b) lands under /F/usr."""
    return FailPath(("F", "usr", *segments))


class ExceptionTree(Record):
    """The failure kinds carried by one failing outcome (a nonempty path set)."""

    __slots__ = ("paths",)

    def __init__(self, paths: frozenset[FailPath]):
        paths = frozenset(paths)
        if not paths:
            raise ValueError("an exception tree is never empty")
        set_field(self, "paths", paths)

    def sorted_paths(self) -> list[str]:
        return sorted(str(p) for p in self.paths)

    def __str__(self) -> str:
        return render(self)


def throw(path: FailPath) -> ExceptionTree:
    return ExceptionTree(frozenset((path,)))


def merge(a: ExceptionTree, b: ExceptionTree) -> ExceptionTree:
    return ExceptionTree(a.paths | b.paths)


def matches(handler: FailPath, tree: ExceptionTree) -> bool:
    """True when the handler path is an ancestor (or equal) of some failure in the tree."""
    return any(handler.is_prefix_of(p) for p in tree.paths)


# A trace line and a line of a drawn failure tree are indented by at most
# this many levels; a deeper line is indented as far and starts with its
# level: `(40) `.
MAX_INDENT = 32


def render(tree: ExceptionTree) -> str:
    """Deterministic tree drawing; children sorted by segment name.

    The drawing is made in pre-order on an explicit stack, so a path of
    any length is drawn without host recursion.  A line deeper than
    `MAX_INDENT` levels keeps the first 32 levels of its prefix and
    then starts with its level, `(40) └─ a`, as a trace line does, so
    the drawing's size is linear in the segments drawn.
    """
    root: dict = {}
    for path in tree.paths:
        node = root
        for seg in path.segments[1:]:
            node = node.setdefault(seg, {})
    lines = ["F"]
    stack = _entries(root, "", 0)
    while stack:
        name, node, prefix, level, last = stack.pop()
        lead = prefix if level <= MAX_INDENT else f"{prefix}({level}) "
        lines.append(lead + ("└─ " if last else "├─ ") + name)
        if level < MAX_INDENT:
            prefix += "   " if last else "│  "
        stack += _entries(node, prefix, level + 1)
    return "\n".join(lines)


def _entries(node: dict, prefix: str, level: int) -> list[tuple[str, dict, str, int, bool]]:
    """A node's children as (name, subtree, prefix, level, is last), last first: the top of a stack."""
    names = sorted(node, reverse=True)
    return [(name, node[name], prefix, level, i == 0) for i, name in enumerate(names)]
