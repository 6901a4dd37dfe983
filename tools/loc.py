"""Print the code lines of each `tci` module and their total.

    python3 tools/loc.py                   # this checkout's src/tci
    python3 tools/loc.py ../other-checkout # another checkout's src/tci

A code line is a source line that is not blank, not only a comment and
not part of a docstring.  A docstring is a string literal that is the
first statement of a module, class or function, and all its lines are
left out.  Every other line that some token covers counts, so each line
of a statement that spans several lines, a multi-line string included,
counts once, and a line with code and a trailing comment counts.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tokens that are not code: they cover no line a reader counts as code.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    covered: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            covered.update(range(token.start[0], token.end[0] + 1))
    return len(covered - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit("usage: python3 tools/loc.py [CHECKOUT]")
    package = (Path(argv[0]) if argv else ROOT) / "src" / "tci"
    modules = sorted(package.glob("*.py"))
    if not modules:
        sys.exit(f"loc: no modules under {package}")
    total = 0
    for path in modules:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
