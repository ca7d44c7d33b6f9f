#!/usr/bin/env python3
"""List the statements of src/fuzzcluster that a pytest run never executes in
this process.

A line tracer limited to the package's files is installed with
``sys.settrace`` and ``threading.settrace`` before anything imports the
package; then ``pytest.main`` runs on the arguments, with
``--hypothesis-seed=0`` unless they set a seed: the hypothesis tests then
draw the same examples, so the list is the same every run. Every statement
of the package that no traced line reached is printed as
``module:line: statement``, and the last line is their count. Imports are
skipped, and so are ``global``/``nonlocal`` statements and bare constants
(docstrings, ``...``), which compile to no code. Code that only subprocesses run (``python -m``, a
script started by a test) is never traced, so it is listed.

Example:
    python scripts/untested_lines.py                       # the whole suite
    python scripts/untested_lines.py tests/test_config.py -q -k preset
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fuzzcluster"
NO_CODE = (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def trace_lines(prefix: str) -> set[tuple[str, int]]:
    """Start tracing; the returned set gains (file, line) for each line run in
    a file whose path starts with prefix."""
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(on_call)
    sys.settrace(on_call)
    return hits


def statements(path: Path):
    """(first line, lines that count as running it, source text) of each
    statement of a module that compiles to code. A compound statement runs
    when its header or its first body statement does; a decorated one may
    report its decorator's line."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt) or isinstance(node, NO_CODE):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        end = body[0].lineno if body else node.end_lineno
        yield node.lineno, range(start, end + 1), lines[node.lineno - 1].strip()


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    hits = trace_lines(prefix)
    import pytest  # after the tracer, so that nothing imports the package untraced

    if not any(arg.startswith("--hypothesis-seed") for arg in argv):
        argv = [*argv, "--hypothesis-seed=0"]
    code = pytest.main(argv)
    sys.settrace(None)
    threading.settrace(None)
    missed = [
        f"{path.name}:{line}: {source}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, span, source in sorted(statements(path), key=lambda s: s[0])
        if not any((str(path), n) in hits for n in span)
    ]
    print("\n".join(missed))
    print(f"{len(missed)} statements never run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
