import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import centroid_oracle, mf_at, peak_point, traced_peak
from fuzzcluster.fis1 import (
    CHANCE_TERMS,
    FIRE_CHUNK,
    RADIUS_TERMS,
    ROW_CHUNK,
    RULES_27,
    DegenerateOutputError,
    LinguisticVariable,
    Rule1,
    RuleBase1,
    default_rulebase1,
    defuzz_coa,
    eval_fis1,
    infer_mamdani,
    membership_patterns,
    mf_centroid,
    mf_sample,
    term_firings,
    trapezoidal,
    triangular,
)
from fuzzcluster.fis2 import Rule2, default_rulebase2, eval_t2fis


# --- membership functions ----------------------------------------------------


def test_triangle_peak():
    assert mf_at(triangular(0.2, 0.5, 0.8), 0.5) == 1.0


def test_triangle_rising_edge_hand_value():
    # (0.35 - 0.2) / (0.5 - 0.2)
    assert mf_at(triangular(0.2, 0.5, 0.8), 0.35) == pytest.approx(0.5, abs=1e-12)


def test_trapezoid_outside_support():
    assert mf_at(trapezoidal(0.6, 0.8, 1.0, 1.0), 0.1) == 0.0


def test_breakpoints_exact():
    tri = triangular(0.2, 0.5, 0.8)
    assert mf_at(tri, 0.2) == 0.0
    assert mf_at(tri, 0.5) == 1.0
    assert mf_at(tri, 0.8) == 0.0
    trap = trapezoidal(0.1, 0.3, 0.6, 0.9)
    assert mf_at(trap, 0.1) == 0.0
    assert mf_at(trap, 0.3) == 1.0
    assert mf_at(trap, 0.6) == 1.0
    assert mf_at(trap, 0.9) == 0.0


def test_shoulder_plateau_at_domain_edges():
    assert mf_at(trapezoidal(0.0, 0.0, 0.2, 0.4), 0.0) == 1.0
    assert mf_at(trapezoidal(0.6, 0.8, 1.0, 1.0), 1.0) == 1.0


def test_malformed_breakpoints_rejected():
    with pytest.raises(ValueError):
        triangular(0.5, 0.2, 0.8)
    with pytest.raises(ValueError):
        trapezoidal(0.0, 0.5, 0.4, 1.0)


@pytest.mark.parametrize(
    "build, points",
    [
        (lambda: trapezoidal(0, 0, math.nan, 1), r"\(0.0, 0.0, nan, 1.0\)"),
        (lambda: triangular(0, math.inf, 1), r"\(0.0, inf, 1.0\)"),
        (
            lambda: default_rulebase1({"distance": {"close": trapezoidal(0, 0, math.nan, 0.5)}}),
            r"\(0.0, 0.0, nan, 0.5\)",
        ),
    ],
    ids=["trap-nan", "tri-inf", "override-nan"],
)
def test_non_finite_breakpoints_rejected(build, points):
    with pytest.raises(ValueError, match=f"breakpoints must be finite: {points}"):
        build()


@st.composite
def valid_mfs(draw):
    pts = sorted(draw(st.lists(st.floats(0, 1), min_size=4, max_size=4)))
    if draw(st.booleans()):
        return triangular(pts[0], pts[1], pts[3])
    return trapezoidal(*pts)


@given(valid_mfs(), st.floats(0, 1))
def test_mf_eval_bounded(mf, x):
    assert 0.0 <= mf_at(mf, x) <= 1.0


@given(valid_mfs())
def test_mf_piecewise_linear_between_breakpoints(mf):
    # constant finite-difference slope strictly inside every breakpoint interval
    pts = mf.points
    for a, b in zip(pts, pts[1:]):
        if b - a < 1e-6:
            continue
        xs = np.linspace(a + (b - a) * 0.1, b - (b - a) * 0.1, 5)
        ys = mf_at(mf, xs)
        slopes = np.diff(ys) / np.diff(xs)
        assert np.allclose(slopes, slopes[0], atol=1e-7)


@given(valid_mfs())
def test_mf_sample_matches_scalar_eval(mf):
    xs = np.linspace(0, 1, 97)
    sampled = mf_sample(mf, xs)
    assert np.allclose(sampled, mf_at(mf, xs), atol=1e-12)


# --- linguistic variables -----------------------------------------------------


def test_duplicate_term_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        LinguisticVariable("v", (("a", triangular(0, 0.5, 1)), ("a", triangular(0, 0.5, 1))))


def test_support_outside_domain_rejected():
    for mf in (triangular(-0.1, 0.5, 1.0), trapezoidal(0.0, 0.5, 1.0, 1.5)):
        message = f"v: term 'a' support {mf.support} leaves [0, 1]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinguisticVariable("v", (("a", mf),))


def test_coverage_hole_rejected():
    with pytest.raises(ValueError, match="covers"):
        LinguisticVariable(
            "v", (("a", triangular(0, 0.1, 0.2)), ("b", trapezoidal(0.9, 0.95, 1, 1)))
        )


@pytest.mark.parametrize(
    "left,right,hole",
    [
        (trapezoidal(0, 0, 0.3, 0.501), trapezoidal(0.504, 0.6, 1, 1), 0.501),  # a gap
        (triangular(0, 0, 0.5025), triangular(0.5025, 1, 1), 0.5025),  # one point
        # both sets are 1 at their vertical edges: only the midpoint is bare
        (trapezoidal(0, 0, 0.501, 0.501), trapezoidal(0.504, 0.504, 1, 1), 0.5025),
    ],
    ids=["gap", "point", "vertical-edges"],
)
def test_coverage_hole_between_grid_points_rejected(left, right, hole):
    # every hole falls between the points of a 201-point grid over [0, 1]
    assert mf_at(left, 0.5025)[0] == mf_at(right, 0.5025)[0] == 0.0
    with pytest.raises(ValueError, match=rf"^v: no term covers x={hole}$"):
        LinguisticVariable("v", (("a", left), ("b", right)))
    bridge = triangular(0.5, 0.5025, 0.505)
    LinguisticVariable("v", (("a", left), ("b", right), ("c", bridge)))
    assert default_rulebase1() and default_rulebase2()


def test_term_peaks():
    rb = default_rulebase1()
    dist = rb.inputs[0]
    assert peak_point(dist.term("close")) == pytest.approx(0.1)
    assert peak_point(dist.term("far")) == pytest.approx(0.5)
    assert peak_point(dist.term("farthest")) == pytest.approx(0.9)


# --- inference -----------------------------------------------------------------


def _tiny_rulebase(rules):
    x = LinguisticVariable("x", (("lo", triangular(0, 0, 1)), ("hi", triangular(0, 1, 1))))
    y = LinguisticVariable(
        "y", (("low", trapezoidal(0, 0, 0.3, 0.6)), ("high", trapezoidal(0.4, 0.7, 1, 1)))
    )
    return RuleBase1((x,), (y,), rules)


@pytest.mark.parametrize(
    "rule, side",
    [(Rule1(("lo", "hi"), ("low",)), "inputs"), (Rule1(("lo",), ("low", "high")), "outputs")],
    ids=["antecedents", "consequents"],
)
def test_rule_of_the_wrong_arity_rejected(rule, side):
    message = f"rule1.2: rule {rule} arity != 1 {side}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _tiny_rulebase((Rule1(("hi",), ("high",)), rule))


def test_no_rule_fires_gives_zero_aggregate():
    rb = _tiny_rulebase((Rule1(("lo",), ("low",)),))
    # "lo" has zero membership at 1.0
    mu = infer_mamdani(rb, term_firings(rb, {"x": np.array([1.0])}))["y"]
    assert np.all(mu == 0.0)
    assert np.isnan(defuzz_coa(mu, _grid(1001))).tolist() == [True]


def test_single_rule_full_strength_is_identity_clip():
    rb = _tiny_rulebase((Rule1(("hi",), ("high",)),))
    mu = infer_mamdani(rb, term_firings(rb, {"x": np.array([1.0])}))["y"]
    expected = mf_sample(trapezoidal(0.4, 0.7, 1, 1), _grid(1001))
    assert np.array_equal(mu, [expected])


def test_two_rules_pointwise_max():
    # memberships at x=0.6: "lo" fires 0.4, "hi" fires 0.6
    rb = _tiny_rulebase((Rule1(("lo",), ("low",)), Rule1(("hi",), ("high",))))
    mu = infer_mamdani(rb, term_firings(rb, {"x": np.array([0.6])}))["y"]
    xs = _grid(1001)

    def low_mf(x):  # trap(0, 0, 0.3, 0.6) written out by hand
        if x <= 0.3:
            return 1.0
        if x >= 0.6:
            return 0.0
        return (0.6 - x) / 0.3

    def high_mf(x):  # trap(0.4, 0.7, 1, 1)
        if x <= 0.4:
            return 0.0
        if x >= 0.7:
            return 1.0
        return (x - 0.4) / 0.3

    for i in range(0, len(xs), 100):  # 11 grid points
        x = xs[i]
        expected = max(min(0.4, low_mf(x)), min(0.6, high_mf(x)))
        assert mu[0, i] == pytest.approx(expected, abs=1e-12)


def test_missing_input_variable_rejected():
    rb = default_rulebase1()
    with pytest.raises(ValueError, match="missing input"):
        term_firings(rb, {"distance": 0.5, "energy": 0.5})


@pytest.mark.parametrize("engine", [term_firings, eval_fis1], ids=["firings", "eval"])
def test_unknown_input_variable_rejected(engine):
    x = {"distance": 0.5, "energy": 0.5, "concentration": 0.5, "concentraton": 0.5}
    with pytest.raises(ValueError, match="unknown input variable 'concentraton'"):
        engine(default_rulebase1(), x)


def test_input_outside_domain_rejected():
    rb = default_rulebase1()
    with pytest.raises(ValueError, match=r"^distance=1\.5 outside \[0, 1\]$"):
        eval_fis1(rb, {"distance": 1.5, "energy": 0.5, "concentration": 0.5})


# --- defuzzification -----------------------------------------------------------


def test_coa_symmetric_triangle():
    grid = _grid(1001)
    mu = mf_sample(triangular(0.3, 0.5, 0.7), grid)[None]
    assert defuzz_coa(mu, grid)[0] == pytest.approx(0.5, abs=1e-12)


def _grid(n):
    return (np.arange(n) + 0.5) / n


def test_coa_shoulder_trapezoid_against_closed_form():
    mf = trapezoidal(0.0, 0.0, 0.2, 0.4)
    grid = _grid(1001)
    oracle = centroid_oracle([(0.0, 1.0), (0.2, 1.0), (0.4, 0.0)])
    assert oracle == pytest.approx(7.0 / 45.0, abs=1e-12)
    assert defuzz_coa(mf_sample(mf, grid)[None], grid)[0] == pytest.approx(oracle, abs=1e-4)


def test_coa_two_equal_lobes():
    grid = _grid(1001)
    lobes = np.maximum(
        np.minimum(0.6, mf_sample(triangular(0.2, 0.3, 0.4), grid)),
        np.minimum(0.6, mf_sample(triangular(0.6, 0.7, 0.8), grid)),
    )
    assert defuzz_coa(lobes[None], grid)[0] == pytest.approx(0.5, abs=1e-9)


def test_centroid_of_a_set_without_area_raises():
    # the type-2 consequent weights are centroids, so a point term cannot weigh a rule
    with pytest.raises(DegenerateOutputError, match=r"^membership function has zero area$"):
        mf_centroid(trapezoidal(0.5, 0.5, 0.5, 0.5))


def test_coa_of_fortran_ordered_samples_matches_c_order():
    # a column-major block sums its rows in another order, which moves last bits
    mu = np.random.default_rng(7).uniform(0.0, 1.0, (16, 1001))
    c_order = defuzz_coa(mu, _grid(1001))
    f_order = defuzz_coa(np.asfortranarray(mu), _grid(1001))
    assert f_order.tobytes() == c_order.tobytes()


def test_coa_overwrites_mu_only_when_asked():
    mu = np.random.default_rng(8).uniform(0.0, 1.0, (5, 1001))
    kept = mu.copy()
    fresh = defuzz_coa(mu, _grid(1001))
    assert mu.tobytes() == kept.tobytes()
    assert defuzz_coa(mu, _grid(1001), overwrite=True).tobytes() == fresh.tobytes()
    assert mu.tobytes() == (kept * _grid(1001)).tobytes()  # the moments, in place


def pairwise_sum(a: list[float]) -> float:
    """numpy's pairwise summation of a contiguous float64 vector, as
    DOUBLE_pairwise_sum in numpy/_core/src/umath/loops_utils.h.src: fewer
    than 8 entries add in order; up to 128 add into 8 interleaved
    accumulators that combine as a tree, then the tail in order; longer
    vectors split at half rounded down to a multiple of 8."""
    n = len(a)
    if n < 8:
        res = 0.0
        for v in a:
            res += v
        return res
    if n <= 128:
        r = a[:8]
        i = 8
        while i < n - n % 8:
            r = [acc + v for acc, v in zip(r, a[i : i + 8])]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in a[i:]:
            res += v
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return pairwise_sum(a[:n2]) + pairwise_sum(a[n2:])


@pytest.mark.parametrize("samples", [1001, 101])
def test_coa_row_sums_follow_numpy_pairwise_order(samples):
    # defuzz_coa's bits rest on numpy adding each C-contiguous row with the
    # blocking above (checked on numpy 2.4.6); another blocking fails here
    # before it moves a golden
    mu = np.random.default_rng(samples).uniform(0.0, 1.0, (ROW_CHUNK, samples))
    xs = _grid(samples)
    rows = mu.tolist()
    assert mu.sum(axis=1).tolist() == [pairwise_sum(row) for row in rows]
    expected = [
        pairwise_sum([m * x for m, x in zip(row, xs.tolist())]) / pairwise_sum(row) for row in rows
    ]
    assert defuzz_coa(mu, xs).tolist() == expected


@given(st.integers(0, 10_000), st.floats(0.01, 1.0))
def test_coa_scale_invariance(seed, k):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0, 1, (1, 101))
    scaled = np.clip(mu * k, 0.0, 1.0)
    if k <= 1.0:  # clipping never engages, scaling is exact
        assert abs(defuzz_coa(mu, _grid(101))[0] - defuzz_coa(scaled, _grid(101))[0]) < 1e-9


@given(st.integers(0, 10_000))
def test_coa_within_hull_of_fired_consequents(seed):
    rng = np.random.default_rng(seed)
    rb = default_rulebase1()
    x = {
        "distance": float(rng.uniform()),
        "energy": float(rng.uniform()),
        "concentration": float(rng.uniform()),
    }
    aggs = infer_mamdani(rb, term_firings(rb, x))
    firing = {
        rule: min(
            mf_at(var.term(t), x[var.name]) for var, t in zip(rb.inputs, rule.antecedents)
        )
        for rule in rb.rules
    }
    for j, var in enumerate(rb.outputs):
        fired = [r.consequents[j] for r, f in firing.items() if f > 0]
        supports = [var.term(t).support for t in fired]
        lo = min(s[0] for s in supports)
        hi = max(s[1] for s in supports)
        assert lo - 1e-9 <= defuzz_coa(aggs[var.name], _grid(1001)) <= hi + 1e-9


# --- whole-engine behaviour ----------------------------------------------------


def test_close_high_high_lands_in_very_strong():
    rb = default_rulebase1()
    inputs = {
        "distance": peak_point(rb.inputs[0].term("close")),
        "energy": peak_point(rb.inputs[1].term("high")),
        "concentration": peak_point(rb.inputs[2].term("high")),
    }
    chance = eval_fis1(rb, inputs)["chance"]
    lo, hi = rb.outputs[1].term("very_strong").support
    assert lo < chance < hi


def test_farthest_high_high_lands_in_large():
    rb = default_rulebase1()
    inputs = {
        "distance": peak_point(rb.inputs[0].term("farthest")),
        "energy": peak_point(rb.inputs[1].term("high")),
        "concentration": peak_point(rb.inputs[2].term("high")),
    }
    radius = eval_fis1(rb, inputs)["radius"]
    lo, hi = rb.outputs[0].term("large").support
    assert lo < radius < hi


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=50)
def test_outputs_stay_normalized(db, re, conc):
    rb = default_rulebase1()
    out = eval_fis1(rb, {"distance": db, "energy": re, "concentration": conc})
    assert 0.0 <= out["radius"] <= 1.0
    assert 0.0 <= out["chance"] <= 1.0


# Peak traced allocation of one eval_fis1 call on a fresh rule base, so its
# cached tables count too: 441 points is a fis1 surface dump, 100 an epoch-end
# round of ch2-scenario1 and 1000 one of ch2-scenario2. The previous engine
# peaked at 678 kB and 672 kB; the bound keeps per-chunk blocks, caches and
# the distinct firing columns from growing the resident size.
PEAK_BOUND = 768 * 1024


@pytest.mark.parametrize("n", [441, 100, 1000])
def test_eval_peak_memory_is_bounded(n):
    rb = default_rulebase1()
    x = np.linspace(0.0, 1.0, n)
    peak, _ = traced_peak(
        lambda: eval_fis1(rb, {"distance": x, "energy": x[::-1], "concentration": (3 * x) % 1.0}, 1001)
    )
    assert peak <= PEAK_BOUND


def test_warm_eval_keeps_at_most_two_chunk_blocks_alive():
    # the rule base's own block is allocated by the first call; after it, a
    # call's temporaries are the repeat of one cover level at a time
    rb = default_rulebase1()
    x = np.linspace(0.0, 1.0, 40)
    inputs = {"distance": x, "energy": x[::-1], "concentration": (3 * x) % 1.0}
    eval_fis1(rb, inputs, 1001)
    assert traced_peak(eval_fis1, rb, inputs, 1001)[0] <= 2 * ROW_CHUNK * 1001 * 8


def test_firing_slice_takes_no_block_of_128_kib():
    # glibc malloc maps a block of 128 KiB or more afresh, and its pages are
    # faulted in, on every slice; the minimum over the inputs is taken one
    # input at a time so that the widest slice stays below that
    rb = default_rulebase1()
    x = np.linspace(0.0, 1.0, FIRE_CHUNK)
    inputs = {"distance": x, "energy": x[::-1], "concentration": (3 * x) % 1.0}
    term_firings(rb, inputs)  # builds the firing plan
    largest = []

    def after_each_c_call(frame, event, arg):
        if event == "c_return":
            largest.append(max((t.size for t in tracemalloc.take_snapshot().traces), default=0))

    tracemalloc.start()
    sys.setprofile(after_each_c_call)
    try:
        term_firings(rb, inputs)
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    # the largest block is the (rules per term, output terms + 1, points)
    # minimum, or one input's gather: 7 rules per term at most, 17 terms
    assert max(largest) == 7 * 17 * FIRE_CHUNK * 8 < 128 * 1024


def test_infer_into_a_block_matches_fresh_blocks():
    rb = default_rulebase1()
    x = {"distance": [0.1, 0.6, 0.95], "energy": [0.9, 0.3, 0.5], "concentration": [0.5, 0.2, 0.7]}
    firings = term_firings(rb, x)
    block = np.full((2, ROW_CHUNK, 1001), np.nan)
    into = infer_mamdani(rb, firings, 1001, block)
    for o, (name, fresh) in enumerate(infer_mamdani(rb, firings, 1001).items()):
        assert into[name].tobytes() == fresh.tobytes() == block[o, :3].tobytes()
    assert np.isnan(block[:, 3:]).all()


_FAULT_PROBE = """
import resource
from dataclasses import replace

import fuzzcluster.cli  # noqa: F401  (the benchmark's worker imports it)
from fuzzcluster.config import parse_config
from fuzzcluster.simulator import run_simulation

cfg = parse_config("ch2-scenario1")
assert cfg.protocol.kind == "fuzzy_unequal"
run_simulation(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_simulation(replace(cfg, max_rounds=200))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt as Linux counts it")
def test_type1_rounds_fault_in_no_pages_once_warm():
    # each chunk once took fresh 125 KiB blocks, which glibc gave back and
    # faulted in again: about 13,000 minor faults over these 200 rounds
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


def test_replaced_rule_base_builds_its_own_tables():
    rb = default_rulebase1()
    x = {"distance": [0.1, 0.6], "energy": [0.9, 0.3], "concentration": [0.5, 0.2]}
    eval_fis1(rb, x)  # fills rb's cached tables
    swapped = dataclasses.replace(
        rb,
        outputs=rb.outputs[::-1],
        rules=tuple(Rule1(r.antecedents, r.consequents[::-1]) for r in rb.rules),
    )
    got = eval_fis1(swapped, x)
    for var in rb.outputs:
        assert got[var.name].tobytes() == eval_fis1(rb, x)[var.name].tobytes()


def test_replaced_rule_base2_builds_its_own_tables():
    rb = default_rulebase2()
    db, re = np.array([0.1, 0.45, 0.9]), np.array([0.8, 0.3, 0.55])
    radius, chance = eval_t2fis(rb, db, re)  # fills rb's cached tables
    # each rule's radius and chance weights trade places, so do the outputs
    swapped = dataclasses.replace(
        rb,
        rules=tuple(
            Rule2(r.distance, r.energy, r.radius, r.chance, r.w_chance, r.w_radius)
            for r in rb.rules
        ),
    )
    got = eval_t2fis(swapped, db, re)
    assert got[0].tobytes() == chance.tobytes() != radius.tobytes()
    assert got[1].tobytes() == radius.tobytes()
    wider = dataclasses.replace(rb, distance_mfs=default_rulebase2(blur=0.4).distance_mfs)
    assert eval_t2fis(wider, db, re)[0].tobytes() == eval_t2fis(
        default_rulebase2(blur_overrides={"distance": 0.4}), db, re
    )[0].tobytes() != radius.tobytes()


# --- membership patterns -----------------------------------------------------


def numbered(keys):
    """Where each distinct key first appears, in that order, and the number of
    every key in that order."""
    of = {}
    numbers = [of.setdefault(k, len(of)) for k in keys]
    return [numbers.index(k) for k in range(len(of))], numbers


def membership_keys(var, x):
    """The bits of each point's memberships in the terms of var, evaluated one
    term and one point at a time."""
    return [b"".join(mf_at(mf, p).tobytes() for _, mf in var.terms) for p in x.tolist()]


@pytest.mark.parametrize("name", ["distance", "energy", "concentration"])
def test_stock_grid_steps_fall_into_twelve_patterns(name):
    rb = default_rulebase1()
    var = next(var for var in rb.inputs if var.name == name)
    x = np.array([i / 20 for i in range(21)])
    first, of = membership_patterns(rb, name, x)
    assert (first.tolist(), of.tolist()) == numbered(membership_keys(var, x))
    assert len(first) == 12
    assert of[8] == of[12]  # 0.4 and 0.6: (0, 2/3, 0) both
    # the flat shoulders, with 0.2 and 0.8 on their breakpoints
    assert set(of[:5].tolist()) == {0} and set(of[16:].tolist()) == {11}


def test_steps_on_breakpoints_fall_into_their_one_point_patterns():
    # vertical edges on grid steps divide 0 by 0 there
    rb = default_rulebase1(
        {
            "distance": {
                "close": trapezoidal(0.0, 0.0, 0.25, 0.25),
                "far": triangular(0.25, 0.25, 0.75),
                "farthest": trapezoidal(0.5, 0.75, 1.0, 1.0),
            }
        }
    )
    x = np.array([i / 8 for i in range(9)])
    first, of = membership_patterns(rb, "distance", x)
    assert (first.tolist(), of.tolist()) == numbered(membership_keys(rb.inputs[0], x))
    assert of.tolist() == [0, 0, 1, 2, 3, 4, 5, 5, 5]
    # one pattern, one firing column, whatever the other inputs
    for energy, conc in [(0.3, 0.7), (0.5, 0.5), (1.0, 0.0)]:
        fire = term_firings(rb, {"distance": x, "energy": energy, "concentration": conc})
        assert all(fire[:, i].tobytes() == fire[:, first[p]].tobytes() for i, p in enumerate(of))


def test_patterns_of_an_unknown_input_rejected():
    with pytest.raises(ValueError, match="^unknown input variable 'radius'$"):
        membership_patterns(default_rulebase1(), "radius", np.array([0.5]))


def test_eval_deterministic():
    rb = default_rulebase1()
    inputs = {"distance": 0.37, "energy": 0.81, "concentration": 0.44}
    a = eval_fis1(rb, inputs)
    b = eval_fis1(rb, inputs)
    assert a == b  # bit-identical


def test_radius_nondecreasing_in_distance_at_term_peaks():
    # the rule table is monotone in distance for every (energy, concentration)
    # peak pair except (less, low), where its own consequents invert
    rb = default_rulebase1()
    energy_var, conc_var = rb.inputs[1], rb.inputs[2]
    for e_term in energy_var.term_names:
        for c_term in conc_var.term_names:
            if (e_term, c_term) == ("less", "low"):
                continue
            e = peak_point(energy_var.term(e_term))
            c = peak_point(conc_var.term(c_term))
            radii = [
                eval_fis1(rb, {"distance": d, "energy": e, "concentration": c})["radius"]
                for d in np.linspace(0, 1, 21)
            ]
            for r0, r1 in zip(radii, radii[1:]):
                assert r1 >= r0 - 1e-6, (e_term, c_term, radii)


# --- rule base shape ------------------------------------------------------------


def test_rule_table_complete():
    assert len(RULES_27) == 27
    combos = {(d, e, c) for d, e, c, _, _ in RULES_27}
    assert len(combos) == 27
    rads = {r for _, _, _, r, _ in RULES_27}
    chances = {ch for _, _, _, _, ch in RULES_27}
    assert rads <= set(RADIUS_TERMS)
    assert chances <= set(CHANCE_TERMS)
    assert len(RADIUS_TERMS) == 9
    assert len(CHANCE_TERMS) == 7


def test_incomplete_rule_override_rejected():
    with pytest.raises(ValueError, match="27"):
        default_rulebase1(rules=RULES_27[:26])


def test_unknown_rule_term_rejected():
    bad = (("close", "less", "high", "huge", "very_poor"),) + RULES_27[1:]
    with pytest.raises(ValueError, match="^rule1.1: radius has no term 'huge'$"):
        default_rulebase1(rules=bad)


def test_unknown_override_variable_rejected():
    with pytest.raises(ValueError, match="^mf1.distanc: unknown variable 'distanc'$"):
        default_rulebase1({"distanc": {"close": triangular(0.0, 0.1, 0.2)}})
