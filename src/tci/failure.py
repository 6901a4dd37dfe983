"""Hierarchical failure classification.

A failure path is its text: a string rooted at /F and organized like a
directory path, "/F/usr/EOF" for a user-thrown end-of-input failure,
"/F/sys/div0" for a division by zero.  A failing outcome is a `Failure`,
the nonempty set of paths it carries (several operands of a `|` may fail
for different reasons at once).  A handler path catches every failure at
or below it, segment by segment, so /F/usr catches /F/usr/EOF but not
/F/usrx, and /F catches everything.
"""

from __future__ import annotations

from .record import Record, field_setters

ROOT = "/F"

# Failures raised by the machine itself, rather than by an f(...) statement.
SYS_TEST = "/F/sys/test"
SYS_UNBOUND = "/F/sys/unbound"
SYS_DIV0 = "/F/sys/div0"
SYS_UNDEF = "/F/sys/undef"
SYS_DEPTH = "/F/sys/depth"
SYS_CASE = "/F/sys/case"


def user_path(segments: tuple[str, ...] | list[str]) -> str:
    """Path for a user-thrown failure: f(a/b) lands under /F/usr."""
    return "/F/usr/" + "/".join(segments)


class Failure(Record):
    """A failing outcome: the nonempty set of failure paths it carries."""

    __slots__ = ("paths",)

    def __init__(self, paths: frozenset[str]):
        paths = frozenset(paths)
        if not paths:
            raise ValueError("a failure carries at least one path")
        _set_failure_paths(self, paths)


(_set_failure_paths,) = field_setters(Failure)


def throw(path: str) -> Failure:
    return Failure(frozenset((path,)))


def matches(handler: str, failure: Failure) -> bool:
    """True when the handler path is an ancestor (or equal) of some path of the failure."""
    below = handler + "/"
    return any(p == handler or p.startswith(below) for p in failure.paths)


# A trace line and a line of a drawn failure tree are indented by at most
# this many levels; a deeper line is indented as far and starts with its
# level: `(40) `.
MAX_INDENT = 32


def render(failure: Failure) -> str:
    """Deterministic tree drawing of a failure's paths; children sorted by segment name.

    The drawing is made in pre-order on an explicit stack, so a path of
    any length is drawn without host recursion.  A line deeper than
    `MAX_INDENT` levels keeps the first 32 levels of its prefix and
    then starts with its level, `(40) └─ a`, as a trace line does, so
    the drawing's size is linear in the segments drawn.
    """
    root: dict = {}
    for path in failure.paths:
        node = root
        for seg in path.split("/")[2:]:
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
