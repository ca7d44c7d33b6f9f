"""The CSV writers write the bytes of the reference writers in
tests/csv_reference.py: every preset and protocol, edge-case floats, missing
lifetime events and both engine surfaces."""
import copy
import math
import re
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

import csv_reference as reference
from fuzzcluster import csvio
from fuzzcluster.config import PRESETS, PROTOCOL_NAMES, parse_config
from fuzzcluster.fis1 import (
    T1_TERMS,
    RuleBase1,
    default_rulebase1,
    trapezoidal,
    triangular,
)
from fuzzcluster.fis2 import T2_INPUT_TERMS, default_rulebase2
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
    run_cfg = replace(cfg, protocol=params, max_rounds=3)
    blocks, rows, results = [], [], []

    def simulate(on_round):
        def collect(rnd, plan):
            blocks.append(csvio.cluster_rows(rnd, plan))
            rows.extend(reference.cluster_rows(rnd, plan))
            on_round(rnd, plan)

        results.append(run_simulation(run_cfg, on_round=collect))
        return results[-1]

    # the reference writes the rows collected while the package's writer ran
    assert_same_bytes(tmp_path, "write_clusters_csv", [simulate], [rows])
    (result,) = results
    assert shapes(rows) >= SHAPES.get((preset, protocol, r_max), set())
    assert all(type(b) is str for b in blocks) and len(blocks) == len(result.rounds)
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


# The writers make calls of at most csvio.SURFACE_POINTS (882) points; the
# references make one call per db value. The type-1 writer evaluates one step
# per membership pattern of each input: grids 21 (12 patterns of 21 steps,
# two calls), 2 and 4 (each step its own pattern) and 10 (7 patterns), one
# call each, and 30 (20 patterns, 8,000 points in ten calls). The type-2
# writer evaluates every point, each step its own pattern: grids 101 (twelve
# calls, the last of 499 points) and 102 (twelve), whose calls end inside db
# rows, and 7 (one call).
@pytest.mark.parametrize("grid", [21, 2, 4, 10, 30])
def test_fis1_surface_matches_reference(tmp_path, grid):
    assert_same_bytes(tmp_path, "write_fis1_surface", [default_rulebase1(), 1001], grid=grid)


@pytest.mark.parametrize("grid", [101, 2, 7, 102])
def test_fis2_surface_matches_reference(tmp_path, grid):
    assert_same_bytes(tmp_path, "write_fis2_surface", [default_rulebase2()], grid=grid)


# Rule bases of any input partition, with grid steps on or off their
# breakpoints, and one whose zero-area radius term gives NaN outputs: the
# type-1 writer evaluates one step per membership pattern of each input, the
# reference every point.
KNOTS = st.one_of(st.integers(0, 20).map(lambda i: i / 20), st.floats(0.0, 1.0, allow_subnormal=False))


@st.composite
def three_terms(draw, labels):
    """A left shoulder, a triangle and a right shoulder that cover [0, 1]."""
    k = sorted(draw(st.lists(KNOTS, min_size=7, max_size=7)))
    if not (k[1] < k[2] and k[4] < k[5]):
        reject()
    return {
        labels[0]: trapezoidal(0.0, 0.0, k[0], k[2]),
        labels[1]: triangular(k[1], k[3], k[5]),
        labels[2]: trapezoidal(k[4], k[6], 1.0, 1.0),
    }


INPUT_OVERRIDES = st.fixed_dictionaries(
    {}, optional={name: three_terms(T1_TERMS[name]) for name in ("distance", "energy", "concentration")}
)


def with_point_radius_term(rb):
    """rb with its radius term ``medium`` shrunk to the point 0.5: a point that
    fires only rules concluding it has no radius area, so NaN outputs."""
    radius = copy.copy(rb.outputs[0])
    point = trapezoidal(0.5, 0.5, 0.5, 0.5)
    terms = tuple((t, point if t == "medium" else mf) for t, mf in radius.terms)
    object.__setattr__(radius, "terms", terms)  # after LinguisticVariable's coverage check
    return RuleBase1(rb.inputs, (radius, rb.outputs[1]), rb.rules)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(overrides={}, grid=21, samples=100, degenerate=True)
@given(
    overrides=INPUT_OVERRIDES,
    grid=st.integers(2, 30),
    samples=st.integers(11, 1001),
    degenerate=st.booleans(),
)
def test_fis1_surface_matches_reference_on_any_partition(tmp_path, overrides, grid, samples, degenerate):
    try:
        rb = default_rulebase1(overrides)
    except ValueError:  # a midpoint whose membership rounds to 0
        reject()
    if degenerate:
        rb = with_point_radius_term(rb)
    text = assert_same_bytes(tmp_path, "write_fis1_surface", [rb, samples], grid=grid)
    if degenerate and not overrides and grid == 21 and samples % 2 == 0:
        # only the rule (far, avg, med) fires at (0.5, 0.5, 0.5), and no
        # sample of an even count lies on the point 0.5
        assert "5.0000000000000000e-01,5.0000000000000000e-01,5.0000000000000000e-01,nan,nan\n" in text


# Footprints of any width and input partitions of any shape: the type-2
# writer evaluates every point in calls of at most SURFACE_POINTS points, the
# reference one db value at a time; at grid 30 (900 points) a call ends
# inside the last db row.
BLURS = st.floats(0.0, 0.9)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(blur=0.9, blurs={"energy": 0.0}, overrides={}, grid=30)
@given(
    blur=BLURS,
    blurs=st.fixed_dictionaries({}, optional={name: BLURS for name in T2_INPUT_TERMS}),
    overrides=st.fixed_dictionaries(
        {}, optional={name: three_terms(terms) for name, terms in T2_INPUT_TERMS.items()}
    ),
    grid=st.integers(2, 30),
)
def test_fis2_surface_matches_reference_on_any_footprint(tmp_path, blur, blurs, overrides, grid):
    try:
        rb = default_rulebase2(blur, blurs, overrides)
    except ValueError:  # a partition its variable's coverage check rejects
        reject()
    assert_same_bytes(tmp_path, "write_fis2_surface", [rb], grid=grid)


# each writer at its default grid: the engine, the db values and the points
# it evaluates, for the type-1 writer one step per membership pattern of each
# input, 12 of 21 (tests/test_fis1.py)
SURFACES = [
    ("write_fis1_surface", [default_rulebase1(), 1001], "eval_fis1", 21, 12**3),
    ("write_fis2_surface", [default_rulebase2()], "eval_t2fis", 101, 101 * 101),
]


@pytest.mark.parametrize("name,args,engine,dbs,points_evaluated", SURFACES, ids=["fis1", "fis2"])
def test_surface_writer_groups_db_values_into_few_engine_calls(
    tmp_path, monkeypatch, name, args, engine, dbs, points_evaluated
):
    events, points = [], []
    real_engine, real_write = getattr(csvio, engine), csvio._write_lines

    def counted(rb, x, *rest):
        events.append("call")
        points.append(np.size(x["distance"] if isinstance(x, dict) else x))
        return real_engine(rb, x, *rest)

    def recorded(path, header, lines):
        # each item of lines is the text of one db value
        real_write(path, header, (events.append("db") or text for text in lines))

    monkeypatch.setattr(csvio, engine, counted)
    monkeypatch.setattr(csvio, "_write_lines", recorded)
    getattr(csvio, name)(*args, tmp_path / "surface.csv")
    assert events[0] == "call"  # before any data row
    assert events.count("db") == dbs
    assert 1 < events.count("call") < dbs
    assert sum(points) == points_evaluated and max(points) <= csvio.SURFACE_POINTS


# Traced peak of a surface dump on a rule base whose tables a first dump has
# built. One engine call per db value peaked at 283 kB (type-1) and 345 kB
# (type-2); the grouped calls hold one type-1 firing slice and one full
# Karnik-Mendel block, under the bound of one 1000-point engine call.
SURFACE_PEAK_BOUND = 768 * 1024


@pytest.mark.parametrize("name,args", [entry[:2] for entry in SURFACES], ids=["fis1", "fis2"])
def test_surface_peak_memory_is_bounded(tmp_path, name, args):
    path = tmp_path / "surface.csv"
    getattr(csvio, name)(*args, path)
    tracemalloc.start()
    try:
        getattr(csvio, name)(*args, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SURFACE_PEAK_BOUND


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
    rows = reference.cluster_rows(n, plan)
    assert_same_bytes(tmp_path, "write_clusters_csv", [lambda on_round: on_round(n, plan)], [rows])


def test_member_id_table_grows_to_the_largest_id(tmp_path):
    # cluster_rows takes member id texts from a table grown to the largest id
    # it has seen: a plan beyond the table grows it, and a smaller plan after
    # it reads from the grown table
    top = len(csvio._ID_TEXT) + 1000

    def plan(heads, sizes, members):
        return SimpleNamespace(
            heads=np.array(heads),
            radius=np.linspace(1.0, 2.0, len(heads)),
            sizes=np.array(sizes),
            members=np.array(members, dtype=np.intp),
            next_hop=np.arange(len(heads)) - 1,
        )

    for rnd, p in enumerate([plan([3, 5], [2, 2], [top, 7, top - 1, 0]), plan([4, 8], [3, 0], [1, 2, 9])]):
        rows = reference.cluster_rows(rnd, p)
        assert_same_bytes(tmp_path, "write_clusters_csv", [lambda on_round: on_round(rnd, p)], [rows])
        assert len(csvio._ID_TEXT) == top + 1


@pytest.mark.parametrize(
    "ids,why",
    [([1, 2], "id 0 is missing"), ([2, 0, 3, 1, 5], "id 4 is missing"), ([-1, 0], "id -1 is negative")],
    ids=["no-zero", "gap", "negative"],
)
def test_positions_with_ids_outside_0_to_n_name_the_file_and_the_id(tmp_path, ids, why):
    path = tmp_path / "pos.csv"
    path.write_text("id,x,y\n" + "".join(f"{i},1.0,2.0\n" for i in ids), encoding="utf-8")
    message = f"{path}: node ids must run 0..n-1, but {why}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        csvio.read_positions_csv(path)
