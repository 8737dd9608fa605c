"""Count the code lines of each module of `src/firmfold`.

A code line holds at least one token other than a comment and is not
part of a module, class or function docstring; blank lines and comment
lines do not count.  Prints one JSON object: each module's count by
file name, and their total.

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import io
import json
import tokenize
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "firmfold"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in `source`."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    modules = {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(SOURCES.glob("*.py"))
    }
    print(json.dumps({"modules": modules, "total": sum(modules.values())}))


if __name__ == "__main__":
    main()
