"""README.md agrees with the code: the blocks readers copy run as written,
and the config keys, flags, output columns and code names it quotes are the
code's."""
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import fuzzcluster
from fuzzcluster import cli, config, csvio
from fuzzcluster.simulator import SimResult

README = Path(__file__).resolve().parents[1] / "README.md"


def section(heading: str) -> str:
    """The README text under this heading, up to the next heading of its
    level or above."""
    text = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    level = heading.split(" ", 1)[0]
    return re.split(rf"\n#{{1,{len(level)}}} ", text, maxsplit=1)[0]


def python_block(heading: str) -> str:
    """The first ```python block in the README section under this heading."""
    match = re.search(r"```python\n(.*?)```", section(heading), re.S)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_library_use_block_runs(capsys):
    code = python_block("## Library use")
    assert "from fuzzcluster import run_simulation" in code
    exec(compile(code, f"{README.name} (Library use)", "exec"), {"__name__": "readme"})
    # a capped run, whose rounds relay, then its second half resumed from the
    # state kept before round 31, ending on the run's last total energy
    capped, resumed = capsys.readouterr().out.splitlines()
    played, relayed = map(int, capped.split())
    assert played == 60 and relayed > 0
    assert resumed == "31 61 True"


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


def test_command_line_table_lists_every_flag():
    table = re.findall(r"^\| `(--[\w-]+)", section("## Command line"), re.M)
    options = {
        opt
        for action in cli.build_parser()._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert sorted(table) == sorted(options)


def test_outputs_list_every_column(tmp_path):
    """Each writer's header, as its file's first line, is quoted in order."""
    result = SimResult([], None, None, None, None, None, 1, "leach", np.zeros((0, 2)))
    cfg = config.parse_config("ch3")
    writers = {
        "metrics": lambda path: csvio.write_metrics_csv(result, path),
        "summary": lambda path: csvio.write_summary_csv([result], path),
        "positions": lambda path: csvio.write_positions_csv(np.zeros((1, 2)), path),
        "clusters": lambda path: csvio.write_clusters_csv(lambda on_round: None, path),
        "fis1_surface": lambda path: csvio.write_fis1_surface(cfg.rules1, 11, path, grid=2),
        "fis2_surface": lambda path: csvio.write_fis2_surface(cfg.rules2, path, grid=2),
    }
    quoted = {
        tuple(col.strip() for col in span.split(","))
        for span in re.findall(r"`([^`]+)`", section("### Outputs"))
    }
    for name, write in writers.items():
        path = tmp_path / f"{name}.csv"
        write(path)
        header = tuple(path.read_text(encoding="utf-8").split("\n", 1)[0].split(","))
        assert header in quoted, f"{name}: {','.join(header)} is not under ### Outputs"


def test_code_references_resolve():
    """Every backticked name that starts with a fuzzcluster module, as in
    `fis2.km_type_reduce` or `fuzzcluster.fis1`, is importable."""
    modules = {m.name for m in pkgutil.iter_modules(fuzzcluster.__path__)}
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    refs = set()
    for span in re.findall(r"`([^`]+)`", text):
        path = re.match(r"(fuzzcluster\.)?([\w.]*)", span)
        module, *names = path[2].split(".")
        if module in modules and (names or path[1]):
            refs.add((module, *names))
    assert len(refs) >= 10, refs
    for module, *names in sorted(refs):
        obj = importlib.import_module(f"fuzzcluster.{module}")
        for name in names:
            assert hasattr(obj, name), ".".join((module, *names))
            obj = getattr(obj, name)
