import re
import runpy
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "src_lines.py"
MODULES = sorted((ROOT / "src" / "fuzzcluster").glob("*.py"))


def test_src_lines_line_counts_equal_wc_l():
    table = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True, timeout=60
    ).stdout.splitlines()
    wc = subprocess.run(
        ["wc", "-l", *map(str, MODULES)], capture_output=True, text=True, check=True, timeout=60
    ).stdout.splitlines()
    rows = {line.split()[0]: [int(v) for v in line.split()[1:]] for line in table[1:]}
    expected = {Path(line.split()[1]).name: int(line.split()[0]) for line in wc}
    assert {name: row[0] for name, row in rows.items()} == expected
    # docstring, comment, blank and code lines add up to all lines
    assert all(row[0] == sum(row[1:]) for row in rows.values())


def test_src_lines_counts_each_kind_of_line():
    text = '''"""Module.

Second paragraph."""
import os  # trailing comment is code

# a comment


def f():
    """One line."""
    s = """

    """
    return s
'''
    count = runpy.run_path(str(SCRIPT))["count"]
    # the blank line inside the docstring is a docstring line, the one inside
    # s a code line; lines 5, 7 and 8 are blank
    assert count(text) == dict(lines=14, docstring=4, comment=1, blank=3, code=6)


def test_untested_lines_lists_what_the_selection_never_runs():
    # the selected test raises the duplicate-key error and runs no round
    selection = "tests/test_config.py::test_duplicate_key_rejected"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "untested_lines.py"), selection, "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    count = int(lines[-1].removesuffix(" statements never run"))
    listed = lines[-1 - count : -1]
    assert all(re.fullmatch(r"\w+\.py:\d+: \S.*", line) for line in listed), listed
    assert not any(line.endswith("duplicate key {key!r}\")") for line in listed)
    assert any(line.endswith(': raise ValueError("no alive nodes")') for line in listed)


@pytest.mark.parametrize(
    "argv, passed",
    [
        (["-q"], ["-q", "--hypothesis-seed=0"]),
        (["-q", "--hypothesis-seed=7"], ["-q", "--hypothesis-seed=7"]),
        (["--hypothesis-seed", "7"], ["--hypothesis-seed", "7"]),
    ],
)
def test_untested_lines_fixes_the_hypothesis_seed_unless_given(argv, passed, monkeypatch, capsys):
    main = runpy.run_path(str(ROOT / "scripts" / "untested_lines.py"))["main"]
    calls = []
    monkeypatch.setattr(pytest, "main", lambda args: calls.append(args) or 0)
    # the probe's own tracer must not replace the one a probe of the whole
    # suite runs this test under
    monkeypatch.setattr(sys, "settrace", lambda f: None)
    monkeypatch.setattr(threading, "settrace", lambda f: None)
    assert main(argv) == 0
    assert calls == [passed]
    assert capsys.readouterr().out.endswith(" statements never run\n")
