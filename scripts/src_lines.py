#!/usr/bin/env python3
"""Count the lines of each module of a source tree.

    python3 scripts/src_lines.py [DIR]

For every ``*.py`` file under DIR (``src`` by default), sorted by path, it
prints the total number of lines and the number of code-only lines, then
the sums over all files.  A code-only line holds at least one token that
is not a comment, a line break, an indentation change or part of a
docstring, the string that opens a module, class or function body; a
token that spans lines counts on each line it spans.  Standard library
only (``ast`` and ``tokenize``).
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_starts(tree: ast.AST) -> set:
    """(line, column) of the first token of every docstring in tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple:
    """(total lines, code-only lines) of one module's source."""
    docs = docstring_starts(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT and tok.start not in docs:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src")
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 1
    total = code = 0
    for path in files:
        t, c = count(path.read_text())
        total, code = total + t, code + c
        print(f"{t:6d} {c:6d}  {path}")
    print(f"{total:6d} {code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
