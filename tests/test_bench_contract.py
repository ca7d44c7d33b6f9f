"""What the benchmark in perfbench/ relies on in the package.

perfbench/tracer.py wraps package functions by module and name for --trace 1
and reads each CSV writer's file size as the writer returns,
perfbench/probe.py ends a surface dump at its first engine call by
replacing the engine names that csvio holds, and perfbench/worker.py captures
each round through the plan's ``clusters`` and ``routes`` views for the checks
in perfbench/checks.py. perfbench/workloads.py dumps the engine surfaces from
the rule bases parse_config puts in ``cfg.rules1`` and ``cfg.rules2``, and
perfbench/checks.py compares them within 1e-9 with perfbench/oracle.py's
engines. Those read the rule bases as data: ``inputs``, ``outputs`` and each
variable's ``terms`` and each rule's ``antecedents`` and ``consequents`` of a
RuleBase1; ``distance_mfs``, ``energy_mfs``, each footprint's
``lower_scale`` and its sets' ``kind`` and ``points``, and each rule's
``w_radius`` and ``w_chance`` of a RuleBase2. A refactor that renames or
bypasses any of them breaks the benchmark without failing another test.
"""
import importlib
import importlib.util
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fuzzcluster import cli, csvio, fis1, fis2, simulator
from fuzzcluster.config import PRESETS, PROTOCOL_NAMES, parse_config
from fuzzcluster.fis1 import RuleBase1, default_rulebase1
from fuzzcluster.fis2 import RuleBase2, default_rulebase2
from fuzzcluster.protocols import KINDS
from fuzzcluster.simulator import run_simulation


def _load(name: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


tracer, oracle = _load("tracer"), _load("oracle")


@pytest.mark.parametrize(
    "module,name", [(m, f) for m, f, _ in (*tracer.SPANS, *tracer.COUNTS)], ids=lambda v: v
)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def count_stage_calls(monkeypatch) -> dict[str, int]:
    """Counts, by name, the calls the engines make to their stages through
    the module."""
    calls = {}
    for mod, name in ((fis1, "infer_mamdani"), (fis1, "defuzz_coa"), (fis2, "km_type_reduce")):
        def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


def test_engine_stages_are_called_through_their_modules(monkeypatch):
    # the tracer times fis1.infer, fis1.defuzz and fis2.km by wrapping these
    # module names: a stage inlined into its engine would read 0 s there
    calls = count_stage_calls(monkeypatch)
    rb = default_rulebase1()
    x = np.linspace(0.0, 1.0, 40)
    inputs = {"distance": x, "energy": x[::-1], "concentration": (3 * x) % 1.0}
    assert len({col.tobytes() for col in fis1.term_firings(rb, inputs).T}) == 35
    fis1.eval_fis1(rb, inputs)
    # each distinct firing column once, in 16-column chunks, 2 outputs each
    assert calls == {"infer_mamdani": 3, "defuzz_coa": 6}
    fis2.eval_t2fis(default_rulebase2(), x, x)
    assert calls["km_type_reduce"] == 1


def test_copies_of_one_point_are_aggregated_once(monkeypatch):
    calls = count_stage_calls(monkeypatch)
    point = {"distance": 0.3, "energy": 0.7, "concentration": 0.45}
    out = fis1.eval_fis1(default_rulebase1(), {**point, "distance": np.full(40, 0.3)})
    assert calls == {"infer_mamdani": 1, "defuzz_coa": 2}
    one = fis1.eval_fis1(default_rulebase1(), point)
    for name, v in out.items():
        assert v.tobytes() == np.repeat(one[name], 40).tobytes()


def test_traced_round_counters_stay_plain_numbers():
    # the tracer's hooks read len(compete_final_chs(...)), its first argument,
    # and assign_members(...)[1] as the orphan count; metrics go out as JSON
    cfg = parse_config("ch3")
    cfg = replace(cfg, protocol=replace(cfg.protocol, r_max=15.0), max_rounds=5)
    t = tracer.Tracer()
    t.install()
    try:
        result = run_simulation(cfg)
    finally:
        t.uninstall()
    metrics = t.layer_metrics()
    json.dumps(metrics)
    assert metrics["protocols.orphans"] == sum(m.orphan_fallbacks for m in result.rounds) > 0
    assert 0 < metrics["protocols.heads"] < metrics["protocols.candidates"]


def test_each_writer_finishes_its_file_before_returning(tmp_path):
    # the tracer adds each writer's file size as the writer returns: a writer
    # that left lines buffered or unwritten would count fewer bytes
    t = tracer.Tracer()
    t.install()
    try:
        argv = ["--preset", "ch2-scenario2", "--rounds", "3", "--dump-clusters"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    finally:
        t.uninstall()
    names = {"metrics.csv", "clusters.csv", "positions.csv", "summary.csv"}
    assert {p.name for p in tmp_path.iterdir()} == names
    assert t.layer_metrics()["csvio.bytes"] == sum(p.stat().st_size for p in tmp_path.iterdir())


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


def test_worker_captures_each_round_through_the_module_names(monkeypatch):
    # perfbench/worker.py replaces simulator.run_protocol_round and
    # simulator.Xorshift64Star, reads each round's index as args[3] and keeps
    # the one generator of each run for the draw checks
    rounds, rngs = [], []
    real_round, real_rng = simulator.run_protocol_round, simulator.Xorshift64Star

    def captured_round(*args, **kwargs):
        rounds.append(args[3])
        return real_round(*args, **kwargs)

    def new_rng(seed):
        rngs.append(real_rng(seed))
        return rngs[-1]

    monkeypatch.setattr(simulator, "run_protocol_round", captured_round)
    monkeypatch.setattr(simulator, "Xorshift64Star", new_rng)
    result = run_simulation(replace(parse_config("ch3"), max_rounds=3))
    assert rounds == [1, 2, 3] == [m.round for m in result.rounds]
    assert len(rngs) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_plan_views_have_the_types_the_worker_pickles(kind):
    # the worker pickles (c.head, c.radius, c.members) and plan.routes; the
    # checks index with the heads and test members for truth
    cfg = parse_config("ch3")
    cfg = replace(cfg, protocol=replace(cfg.protocol, kind=kind), max_rounds=3)
    plans = []
    run_simulation(cfg, on_round=lambda r, plan: plans.append(plan))
    assert len(plans) == 3
    for plan in plans:
        clusters = plan.clusters
        assert len(clusters) == len(plan.heads)
        for c in clusters:
            assert type(c.head) is int and type(c.radius) is float and type(c.members) is list
            assert all(type(m) is int for m in c.members)
        assert set(plan.routes) == set(plan.heads.tolist())
        assert all(hop is None or type(hop) is int for hop in plan.routes.values())


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_NAMES))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_parsed_config_carries_both_rule_bases(tmp_path, preset, protocol):
    # the surface workload reads `cfg.rules2 or default_rulebase2(cfg.blur, ...)`
    # and `cfg.rules1 or ...`: the fallbacks name fields SimConfig no longer has
    path = tmp_path / f"{preset}.cfg"
    path.write_text(re.sub(r"protocol = \S+", f"protocol = {protocol}", PRESETS[preset]))
    cfg = parse_config(str(path))
    assert cfg.protocol.kind == PROTOCOL_NAMES[protocol]
    assert isinstance(cfg.rules1, RuleBase1) and isinstance(cfg.rules2, RuleBase2)
    assert cfg.rules1 and cfg.rules2


def test_oracle_reads_the_rule_bases_parse_config_builds():
    rng = np.random.default_rng(11)
    cfg = parse_config("ch2-scenario1")
    x = rng.random((20, len(cfg.rules1.inputs)))
    got = fis1.eval_fis1(
        cfg.rules1, {var.name: col for var, col in zip(cfg.rules1.inputs, x.T)}, cfg.coa_samples
    )
    ref = oracle.t1_reference(cfg.rules1, x, cfg.coa_samples)
    assert np.abs(np.column_stack(list(got.values())) - ref).max() <= 1e-9
    rb2 = parse_config("ch3").rules2
    db, re_ = rng.random((2, 20))
    got = np.array(fis2.eval_t2fis(rb2, db, re_))
    assert np.abs(got - np.array(oracle.t2_reference(rb2, db, re_))).max() <= 1e-9
