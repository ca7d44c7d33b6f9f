"""What the benchmark in perfbench/ relies on in the package.

perfbench/tracer.py wraps package functions by module and name for --trace 1,
and perfbench/probe.py ends a surface dump at its first engine call by
replacing the engine names that csvio holds. A refactor that renames or
bypasses any of them breaks the benchmark without failing another test.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from fuzzcluster import csvio
from fuzzcluster.fis1 import default_rulebase1
from fuzzcluster.fis2 import default_rulebase2

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "module,name", [(m, f) for m, f, _ in (*tracer.SPANS, *tracer.COUNTS)], ids=lambda v: v
)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


class FirstEngineCall(Exception):
    pass


def _stop(*_args, **_kwargs):
    raise FirstEngineCall


@pytest.mark.parametrize(
    "write",
    [
        lambda path: csvio.write_fis1_surface(default_rulebase1(), 1001, path),
        lambda path: csvio.write_fis2_surface(default_rulebase2(), path),
    ],
    ids=["fis1", "fis2"],
)
def test_surface_writer_calls_engine_before_any_data_row(tmp_path, monkeypatch, write):
    monkeypatch.setattr(csvio, "eval_fis1", _stop)
    monkeypatch.setattr(csvio, "eval_t2fis", _stop)
    path = tmp_path / "surface.csv"
    with pytest.raises(FirstEngineCall):
        write(path)
    assert len(path.read_text(encoding="utf-8").splitlines()) <= 1  # the header at most
