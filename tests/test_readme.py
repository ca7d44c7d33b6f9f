"""README.md agrees with the code: the blocks readers copy run as written,
and the config keys and block constants it quotes are the code's."""
import importlib
import re
from pathlib import Path

import pytest

from fuzzcluster import config

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """The README text under this heading, up to the next ``##`` heading."""
    text = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.split(r"\n## ", text, maxsplit=1)[0]


def python_block(heading: str) -> str:
    """The first ```python block in the README section under this heading."""
    match = re.search(r"```python\n(.*?)```", section(heading), re.S)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_library_use_block_runs(capsys):
    code = python_block("## Library use")
    assert "from fuzzcluster import run_simulation" in code
    exec(compile(code, f"{README.name} (Library use)", "exec"), {"__name__": "readme"})
    fnd, hnd, lnd = capsys.readouterr().out.split()
    assert 0 < int(fnd) <= int(hnd) <= int(lnd)


# key families the parser matches by prefix rather than by name
CONFIG_FAMILIES = ("mf1.", "mf2.", "rule1.", "rule2.", "blur.")


def test_config_keys_match_the_parser():
    text = section("## Config files")
    required, optional = text.split("\nRequired: ", 1)[1].split("\n\nOptional", 1)
    # an Optional bullet names its keys before its dash, and a `key = value`
    # example in one names a key too
    leads = re.findall(r"^- (.*?)(?: — |$)", optional, re.M)
    spans = re.findall(r"`([^`]+)`", " ".join([required, *leads]))
    spans += re.findall(r"`([^`]+ = [^`]+)`", optional)
    keys = {re.match(r"[\w.]+", span)[0] for span in spans}
    plain = {k for k in keys if not k.startswith(CONFIG_FAMILIES)}
    assert plain == set(config._PARSERS)
    # the keys listed as required build a config alone, and each is missed when dropped
    listed = set(re.findall(r"`(\w+)`", required))
    ch3 = config._parse_lines(config.PRESETS["ch3"], "ch3")
    pairs = {k: v for k, v in ch3.items() if k in listed}
    assert set(pairs) == listed
    config.config_from_pairs(pairs)
    for key in sorted(listed):
        with pytest.raises(config.ConfigError, match=f"^missing required key '{key}'$"):
            config.config_from_pairs({k: v for k, v in pairs.items() if k != key})
    assert {f for f in CONFIG_FAMILIES if any(k.startswith(f) for k in keys)} == {*CONFIG_FAMILIES}


# the block sizes README's memory paragraph quotes, as `module.NAME` = value
BLOCK_CONSTANTS = (
    "ROW_CHUNK",
    "FIRE_CHUNK",
    "KM_BLOCK",
    "BLOCK_ENTRIES",
    "TABLE_STEPS",
    "SURFACE_POINTS",
)


def test_block_constants_match_the_code():
    text = README.read_text(encoding="utf-8")
    quoted = re.findall(rf"`(\w+)\.({'|'.join(BLOCK_CONSTANTS)})` = ([\d,]+)", text)
    assert {name for _, name, _ in quoted} == set(BLOCK_CONSTANTS)
    for module, name, value in quoted:
        code = getattr(importlib.import_module(f"fuzzcluster.{module}"), name)
        assert int(value.replace(",", "")) == code, f"README quotes {module}.{name} = {value}"
