"""The CSV writers write the bytes of the reference writers in
tests/csv_reference.py: every preset and protocol, edge-case floats, missing
lifetime events and both engine surfaces."""
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import csv_reference as reference
from fuzzcluster import csvio
from fuzzcluster.config import PRESETS, PROTOCOL_NAMES, parse_config
from fuzzcluster.fis1 import default_rulebase1
from fuzzcluster.fis2 import default_rulebase2
from fuzzcluster.simulator import RoundMetrics, run_simulation


def assert_same_bytes(tmp_path, name, args, ref_args=None, **kwargs):
    """csvio.<name> and csv_reference.<name> write the same bytes from args
    (the reference from ref_args where given); returns the text."""
    new, ref = tmp_path / "new.csv", tmp_path / "reference.csv"
    getattr(csvio, name)(*args, new, **kwargs)
    getattr(reference, name)(*(args if ref_args is None else ref_args), ref, **kwargs)
    assert new.read_bytes() == ref.read_bytes()
    return ref.read_text(encoding="utf-8")


# line shapes the dump must cover: LEACH has heads without members, r_max =
# 15 m leaves type2fl orphans (radius 0 and no members, where type2fl's own
# heads have a radius), and a multi-hop preset relays through heads as well
# as sending to the sink
SHAPES = {
    ("ch2-scenario1", "leach", None): {"no members", "sink"},
    ("ch2-scenario2", "fuzzy-unequal", None): {"sink", "head"},
    ("ch3", "type2fl", 15.0): {"radius 0, no members", "sink"},
}
CASES = [(preset, proto, None) for preset in sorted(PRESETS) for proto in sorted(PROTOCOL_NAMES)]


def shapes(rows):
    found = set()
    for _, _, member, radius, hop in rows:
        found.add("sink" if hop is None else "head")
        if member is None:
            found.add("no members")
            if radius == 0.0:
                found.add("radius 0, no members")
    return found


@pytest.mark.parametrize("preset,protocol,r_max", [*CASES, ("ch3", "type2fl", 15.0)])
def test_run_outputs_match_reference(tmp_path, preset, protocol, r_max):
    cfg = parse_config(preset)
    params = replace(cfg.protocol, kind=PROTOCOL_NAMES[protocol])
    if r_max is not None:
        params = replace(params, r_max=r_max)
    blocks, rows = [], []

    def collect(rnd, plan):
        blocks.append(csvio.cluster_rows(rnd, plan))
        rows.extend(reference.cluster_rows(rnd, plan))

    result = run_simulation(replace(cfg, protocol=params, max_rounds=3), on_round=collect)
    assert shapes(rows) >= SHAPES.get((preset, protocol, r_max), set())
    assert all(type(b) is str for b in blocks) and len(blocks) == len(result.rounds)
    assert_same_bytes(tmp_path, "write_clusters_csv", [blocks], [rows])
    assert_same_bytes(tmp_path, "write_metrics_csv", [result])
    assert_same_bytes(tmp_path, "write_positions_csv", [result.positions])
    assert_same_bytes(tmp_path, "write_summary_csv", [[result]])


def test_summary_leaves_missing_events_empty(tmp_path):
    results = [
        SimpleNamespace(fnd=None, hnd=None, lnd=None, seed=1),
        SimpleNamespace(fnd=3, hnd=None, lnd=None, seed=2),
        SimpleNamespace(fnd=3, hnd=40, lnd=None, seed=3),
        SimpleNamespace(fnd=0, hnd=40, lnd=2848, seed=-4),
    ]
    text = assert_same_bytes(tmp_path, "write_summary_csv", [iter(results)], [results])
    assert text.splitlines()[1:3] == [",,,1", "3,,,2"]
    assert_same_bytes(tmp_path, "write_summary_csv", [[]])


@pytest.mark.parametrize("grid", [21, 2, 4])
def test_fis1_surface_matches_reference(tmp_path, grid):
    assert_same_bytes(tmp_path, "write_fis1_surface", [default_rulebase1(), 1001], grid=grid)


@pytest.mark.parametrize("grid", [101, 2, 7])
def test_fis2_surface_matches_reference(tmp_path, grid):
    assert_same_bytes(tmp_path, "write_fis2_surface", [default_rulebase2()], grid=grid)


@pytest.mark.parametrize("grid", [0, 1])
@pytest.mark.parametrize(
    "name,args",
    [
        ("write_fis1_surface", [default_rulebase1(), 1001]),
        ("write_fis2_surface", [default_rulebase2()]),
    ],
    ids=["fis1", "fis2"],
)
def test_surface_rejects_a_grid_below_two_steps(tmp_path, name, args, grid):
    # one step cannot span [0, 1]: grid=1 divided by zero and grid=0 wrote a bare header
    path = tmp_path / "surface.csv"
    message = f"grid: need at least 2 steps to span [0, 1], got {grid}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(csvio, name)(*args, path, grid=grid)
    assert not path.exists()


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@example(values=[-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1e308])
@given(values=st.lists(FLOATS, min_size=1))
def test_float_fields_match_csv_writer(tmp_path, values):
    # the same floats in every float field: metrics energies, positions and
    # cluster radii, with 0, 1 and 2 members per head and sink and head hops
    n = len(values)
    rounds = [RoundMetrics(i, n, 0, x, -x, i % 3) for i, x in enumerate(values)]
    positions = np.array([values, values[::-1]]).T
    sizes = np.arange(n) % 3
    plan = SimpleNamespace(
        heads=np.arange(n),
        radius=np.array(values),
        sizes=sizes,
        members=np.arange(n, n + sizes.sum()),
        next_hop=np.arange(n) - 1,
    )
    assert_same_bytes(tmp_path, "write_metrics_csv", [SimpleNamespace(rounds=rounds)])
    assert_same_bytes(tmp_path, "write_positions_csv", [positions])
    blocks, rows = [csvio.cluster_rows(n, plan)], reference.cluster_rows(n, plan)
    assert_same_bytes(tmp_path, "write_clusters_csv", [blocks], [rows])
