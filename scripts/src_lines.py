#!/usr/bin/env python3
"""Count the lines of each module of a package and in total: all lines, then
docstring, comment-only, blank and the remaining code lines, which add up to
all lines.

Docstring lines are those of ``ast.get_docstring`` over the module, its
classes and functions, so a closing quote on a line of its own counts as
code. Blank lines inside a string literal are not counted as blank.

Example:
    python scripts/src_lines.py            # src/fuzzcluster
    python scripts/src_lines.py path/to/package
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("lines", "docstring", "comment", "blank", "code")
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fuzzcluster"


def count(text: str) -> dict[str, int]:
    """The COLUMNS counts of one module's source text."""
    lines = text.splitlines()
    docstring = sum(
        len(doc.splitlines())
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and (doc := ast.get_docstring(node)) is not None
    )
    comment, in_string = 0, set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and tok.line.lstrip().startswith("#"):
            comment += 1
        elif tok.type == tokenize.STRING:
            in_string.update(range(tok.start[0], tok.end[0] + 1))
    blank = sum(1 for i, line in enumerate(lines, 1) if not line.strip() and i not in in_string)
    return dict(
        lines=len(lines),
        docstring=docstring,
        comment=comment,
        blank=blank,
        code=len(lines) - docstring - comment - blank,
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    rows = {path.name: count(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    rows["total"] = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[c]:>11}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
