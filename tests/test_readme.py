"""README.md code that readers copy must run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block in the README section under this heading."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    section = re.split(r"\n## ", section, maxsplit=1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_library_use_block_runs(capsys):
    code = python_block("## Library use")
    assert "from fuzzcluster import run_simulation" in code
    exec(compile(code, f"{README.name} (Library use)", "exec"), {"__name__": "readme"})
    fnd, hnd, lnd = capsys.readouterr().out.split()
    assert 0 < int(fnd) <= int(hnd) <= int(lnd)
