"""The batch engines against the one-point reference engines, bit for bit.

Every point of a batch must give the exact float the one-point engine gives,
and NaN where it raised DegenerateOutputError or found its reduced interval
inverted.
"""
import copy
import dataclasses
import re
from bisect import bisect_right
from random import Random

import numpy as np
import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from conftest import deploy, firing_intervals, round_config
from engine_reference import eval_fis1_ref, eval_t2fis_ref, km_ref
from fuzzcluster import fis2
from fuzzcluster.energy import RadioParams
from fuzzcluster.fis1 import (
    ROW_CHUNK,
    RULES_27,
    DegenerateOutputError,
    LinguisticVariable,
    Rule1,
    RuleBase1,
    default_rulebase1,
    eval_fis1,
    even_terms,
    mf_sample,
    term_firings,
    three_level_terms,
    trapezoidal,
    triangular,
)
from fuzzcluster.fis2 import (
    RULES_9,
    T2_CHANCE_TERMS,
    T2_DISTANCE_TERMS,
    T2_RADIUS_TERMS,
    default_rulebase2,
    eval_t2fis,
    km_type_reduce,
    make_fou,
)
from fuzzcluster.network import neighbor_count, normalize_inputs
from fuzzcluster.protocols import (
    ProtocolParams,
    compute_radius_chance,
    run_protocol_round,
    select_provisional,
)
from fuzzcluster.rng import Xorshift64Star

NAN = float("nan")
# one point, either side of the chunk size, or anything up to three chunks
BATCH_SIZES = st.one_of(
    st.sampled_from([1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1]), st.integers(1, 3 * ROW_CHUNK)
)

# Zero-width edges: step shoulders, a one-point plateau and a rectangle.
T2_MF_OVERRIDES = (
    None,
    {
        "distance": {
            "proximate": trapezoidal(0.0, 0.0, 0.3, 0.3),
            "moderate": triangular(0.3, 0.3, 0.8),
        }
    },
    {"energy": {"low": trapezoidal(0.0, 0.0, 0.0, 0.4), "adv": trapezoidal(0.6, 1.0, 1.0, 1.0)}},
    {"energy": {"med": trapezoidal(0.2, 0.2, 0.8, 0.8)}},
)
# Wide output terms: three radius terms, and three chance terms, are nonzero
# at some COA samples.
DEEP_OUTPUT_COVER = {
    "radius": {"medium": trapezoidal(0.1, 0.3, 0.7, 0.9)},
    "chance": {"avg": trapezoidal(0.0, 0.2, 0.8, 1.0)},
}
# No radius term is nonzero on [0.0612, 0.0617], a gap wide enough to hold
# COA samples. LinguisticVariable rejects the gap, so rulebase1_with puts
# these terms in after its check.
OUTPUT_GAP = {
    "radius": {
        "very_small": trapezoidal(0.0, 0.0, 0.05, 0.0612),
        "small": triangular(0.0617, 0.125, 0.25),
    }
}
T1_MF_OVERRIDES = (
    None,
    {"distance": {"close": trapezoidal(0.0, 0.0, 0.3, 0.3), "far": triangular(0.3, 0.3, 0.8)}},
    {
        "concentration": {
            "low": trapezoidal(0.0, 0.0, 0.0, 0.4),
            "high": trapezoidal(0.6, 1.0, 1.0, 1.0),
        }
    },
    {"energy": {"avg": trapezoidal(0.2, 0.2, 0.8, 0.8)}},
    {"chance": {"very_poor": trapezoidal(0.0, 0.0, 0.05, 0.05)}},
    DEEP_OUTPUT_COVER,
    OUTPUT_GAP,
)


def rulebase1_with(overrides, rules=None):
    """default_rulebase1(overrides, rules), with OUTPUT_GAP's radius terms
    swapped in after LinguisticVariable's coverage check: the engines must
    still match the reference at COA samples that no output term covers."""
    if overrides is not OUTPUT_GAP:
        return default_rulebase1(overrides, rules)
    rb = default_rulebase1(None, rules)
    radius = copy.copy(rb.outputs[0])
    terms = tuple((t, OUTPUT_GAP["radius"].get(t, mf)) for t, mf in radius.terms)
    object.__setattr__(radius, "terms", terms)
    return RuleBase1(rb.inputs, (radius, *rb.outputs[1:]), rb.rules)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.array_equal(np.isnan(got), np.isnan(want)):
        return False
    keep = ~np.isnan(got)
    return got[keep].tobytes() == want[keep].tobytes()


def reference_rows(fn, *args):
    """The reference result, or None where it raised DegenerateOutputError or
    found a reduced interval inverted: the batch engines give NaN for both."""
    try:
        return fn(*args)
    except DegenerateOutputError:
        return None
    except ValueError as e:
        if "inverted" not in str(e):
            raise
        return None


def points(edges):
    """Anywhere in [0, 1], or exactly on a breakpoint or support edge."""
    return st.floats(0.0, 1.0) | st.sampled_from(sorted(e for e in edges if 0.0 <= e <= 1.0))


def notched(rb):
    """Every distance term zero from 0.6 up and at 0: all rules fire at zero there."""
    notch = make_fou(triangular(0.0, 0.3, 0.6), 0.0)
    return dataclasses.replace(rb, distance_mfs={t: notch for t in T2_DISTANCE_TERMS})


# --- interval type-2 ---------------------------------------------------------------


@st.composite
def t2_cases(draw):
    some_blur = st.just(0.0) | st.floats(0.0, 0.9)
    blur = draw(some_blur)
    blurs = draw(st.dictionaries(st.sampled_from(["distance", "energy"]), some_blur))
    tied = st.sampled_from([0.0, 0.3, 0.7, 1.0])
    w_radius = draw(st.none() | st.tuples(*[tied] * len(T2_RADIUS_TERMS)))
    w_chance = draw(st.none() | st.tuples(*[tied] * len(T2_CHANCE_TERMS)))
    rules = None
    if draw(st.booleans()):
        perm = draw(st.permutations(range(9)))
        rules = [(d, e, *RULES_9[p][2:]) for (d, e, _, _), p in zip(RULES_9, perm)]
    overrides = draw(st.sampled_from(T2_MF_OVERRIDES))
    rb = default_rulebase2(blur, blurs, overrides, w_radius, w_chance, rules)
    if draw(st.booleans()):
        rb = notched(rb)
    imfs = (*rb.distance_mfs.values(), *rb.energy_mfs.values())
    edges = {p for imf in imfs for p in (*imf.lower.points, *imf.upper.points)}
    n = draw(BATCH_SIZES)
    db = draw(st.lists(points(edges), min_size=n, max_size=n))
    re = draw(st.lists(points(edges), min_size=n, max_size=n))
    return rb, db, re


@given(t2_cases())
# a support widened by 2e-17 rounds the upper "moderate" degree at 0.45 below the lower
@example((default_rulebase2(2e-17), [0.45, 0.5], [0.3, 0.45]))
@settings(max_examples=100, deadline=None)
def test_t2_batch_matches_one_point_reference(case):
    rb, db, re = case
    want = [reference_rows(eval_t2fis_ref, rb, d, r) or (NAN, NAN) for d, r in zip(db, re)]
    radius, chance = eval_t2fis(rb, np.array(db), np.array(re))
    assert same_bits(radius, [w[0] for w in want])
    assert same_bits(chance, [w[1] for w in want])


def test_t2_points_of_every_block_match_one_point_calls():
    # two full KM_BLOCK blocks and a partial one: a block edge that skipped or
    # shifted a point moves it
    rb = default_rulebase2()
    points = 2 * (fis2.KM_BLOCK // (2 * 2 * len(rb.rules))) + 3
    db, re = np.linspace(0.0, 1.0, points), np.linspace(0.0, 1.0, points) ** 2
    radius, chance = eval_t2fis(rb, db, re)
    want = np.array([eval_t2fis(rb, d, r) for d, r in zip(db, re)])[:, :, 0]
    assert same_bits(radius, want[:, 0])
    assert same_bits(chance, want[:, 1])


def test_t2_one_km_call_per_block(monkeypatch):
    # a call of exactly one block reduces it at once; one point more starts a second
    rb = default_rulebase2()
    block = fis2.KM_BLOCK // (2 * 2 * len(rb.rules))
    points = []
    real_reduce = fis2.km_type_reduce
    monkeypatch.setattr(
        fis2, "km_type_reduce", lambda f, w: points.append(f.shape[2]) or real_reduce(f, w)
    )
    for m in (block, block + 1):
        x = np.linspace(0.0, 1.0, m)
        eval_t2fis(rb, x, x)
    assert points == [block, block, 1]


def test_t2_subnormal_inversion_is_a_degenerate_point():
    # Firings of a few multiples of 5e-324 round the chance interval to
    # [0.375, 0.286]: that point is degenerate, the healthy one is unaffected.
    rb = notched(default_rulebase2())
    db, re = np.array([5e-324, 0.5]), np.array([0.0, 0.5])
    healthy = eval_t2fis_ref(rb, 0.5, 0.5)
    radius, chance = eval_t2fis(rb, db, re)
    assert same_bits(radius, [NAN, healthy[0]])
    assert same_bits(chance, [NAN, healthy[1]])
    cfg = round_config(TYPE2, RADIO, rules2=rb)
    net = deploy(2, 100.0, (50.0, 175.0), seed=5)
    _, _, fell_back = compute_radius_chance(net, np.arange(2), (db, re, np.zeros(2)), cfg)
    assert fell_back.tolist() == [True, False]


@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_km_batch_matches_one_point_reference(seed, k, m):
    rng = np.random.default_rng(seed)
    fu = rng.uniform(0.0, 1.0, (m, k)) * (rng.uniform(size=(m, k)) < 0.7)
    fu[rng.uniform(size=m) < 0.1] = 0.0  # some points fire nothing at all
    fl = fu * rng.uniform(0.0, 1.0, (m, k)) * (rng.uniform(size=(m, k)) < 0.8)
    # ties keep rule order; -0.0 and negative weights pin the sign of zero sums
    weights = rng.choice([-0.5, -0.0, 0.1, 0.4, 0.9], size=k).tolist()
    got = km_type_reduce(np.array([fl.T, fu.T]), [weights])
    want = [reference_rows(km_ref, lo, up, weights) or (NAN, NAN) for lo, up in zip(fl, fu)]
    assert same_bits(got[0, 0], [w[0] for w in want])
    assert same_bits(got[1, 0], [w[1] for w in want])


def test_km_scalar_call_rejects_mismatched_and_empty_firings():
    with pytest.raises(ValueError, match="pair up"):
        km_type_reduce(np.array([[[0.1]], [[0.2]]]), [[0.1, 0.2]])
    with pytest.raises(ValueError, match="at least one"):
        km_type_reduce(np.zeros((2, 0, 1)), [[]])


# --- Karnik-Mendel rows that alternate between two splits --------------------------


def km_trace(lower, upper, weights, left):
    """The (split, ratio) steps of the one-point Karnik-Mendel loop for one end,
    in the loop's order: the iteration of engine_reference, step by step."""
    order = sorted(range(len(weights)), key=lambda i: weights[i])
    fl, fu, w = ([float(a[i]) for i in order] for a in (lower, upper, weights))
    f = [0.5 * (a + b) for a, b in zip(fl, fu)]
    y = sum(fi * wi for fi, wi in zip(f, w)) / sum(f) if sum(f) > 0.0 else NAN
    steps, prev = [], -1
    for _ in range(len(w) + 1):
        split = min(max(bisect_right(w, y), 1), len(w) - 1)
        if split == prev:
            break
        prev = split
        f = fu[:split] + fl[split:] if left else fl[:split] + fu[split:]
        if sum(f) <= 0.0:
            break
        y = sum(fi * wi for fi, wi in zip(f, w)) / sum(f)
        steps.append((split, y))
    return steps


def cycle_start(steps):
    """The first iteration whose split is the one of two iterations back, or None."""
    splits = [split for split, _ in steps]
    return next((t for t in range(2, len(splits)) if splits[t] == splits[t - 2]), None)


def assert_km_matches_reference(fl, fu, weights):
    """KM of (points, rules) firings against the one-point reference, point by point."""
    got = km_type_reduce(np.array([fl.T, fu.T]), weights)
    for o, w in enumerate(weights):
        want = [reference_rows(km_ref, lo, up, w) or (NAN, NAN) for lo, up in zip(fl, fu)]
        assert same_bits(got[0, o], [v[0] for v in want])
        assert same_bits(got[1, o], [v[1] for v in want])


# On the default rule base, the radius lower end at this point alternates
# between splits 7 and 5 until the loop runs out.
CH3_CYCLE = (0.41265308619028174, 1.0)


def test_km_default_rule_base_two_cycle_matches_reference():
    rb = default_rulebase2()
    db, re = np.array([CH3_CYCLE[0]]), np.array([CH3_CYCLE[1]])
    firings = firing_intervals(rb.rules, db, re, rb.distance_mfs, rb.energy_mfs)
    weights = [[r.w_radius for r in rb.rules], [r.w_chance for r in rb.rules]]
    fl, fu = firings.transpose(0, 2, 1)
    steps = km_trace(fl[0], fu[0], weights[0], left=True)
    assert [split for split, _ in steps] == [7, 5] * 5
    assert steps[-1][1] != steps[-2][1]
    assert_km_matches_reference(fl, fu, weights)
    radius, chance = eval_t2fis(rb, db, re)
    assert same_bits([radius[0], chance[0]], eval_t2fis_ref(rb, *CH3_CYCLE))


def test_km_two_cycle_stops_the_loop_early(monkeypatch):
    # The initial ratio takes two sums and each pass two more (denominator, then
    # numerator): the cycling row stops at its third split, after two passes,
    # instead of holding the call to rules + 1 passes (2 + 2 * 10 sums).
    rb = default_rulebase2()
    calls = []
    real_sum = fis2._sum_rules
    monkeypatch.setattr(fis2, "_sum_rules", lambda a: calls.append(1) or real_sum(a))
    eval_t2fis(rb, *CH3_CYCLE)
    passes = 2
    assert len(calls) == 2 + 2 * passes


# (lower, upper, weights, lower end?), 0.05-grid firings that 2-cycle from the
# second or third iteration, with an odd or even number of iterations left.
TWO_CYCLES = {
    "t2-odd": ([0.5, 0.3, 0.05], [0.55, 0.4, 1.0], [0.1, 0.5, 0.7], False),
    "t2-even": ([0.3, 0.55, 0.3, 0.25], [0.35, 0.6, 0.3, 0.7], [0.4, 0.7, 0.8, 1.0], True),
    "t3-odd": ([0.2, 0.15, 0.1, 0.0], [0.2, 0.25, 0.1, 0.5], [0.0, 0.1, 0.3, 0.9], True),
    "t3-even": (
        [0.15, 0.0, 0.05, 0.0, 0.1],
        [0.95, 0.0, 0.7, 0.15, 0.1],
        [0.1, 0.2, 0.3, 0.4, 0.9],
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(TWO_CYCLES))
def test_km_two_cycle_ends_on_the_last_iterations_parity(name):
    lower, upper, weights, left = TWO_CYCLES[name]
    steps = km_trace(lower, upper, weights, left)
    start = cycle_start(steps)
    assert f"t{start}-{'even' if (len(weights) - start) % 2 == 0 else 'odd'}" == name
    assert steps[start - 1][1] != steps[start - 2][1]  # the two ratios differ
    assert_km_matches_reference(np.array([lower]), np.array([upper]), [weights])
    # the same row among rows that stop at once, and under a second output
    fl = np.array([lower, upper, [0.0] * len(lower)])
    fu = np.array([upper, upper, upper])
    assert_km_matches_reference(fl, fu, [weights, weights[::-1]])


@st.composite
def km_grid_cases(draw):
    """Firings on a 0.05 grid and weights on a 0.1 grid with ties: rows whose
    ratio lands on a weight can alternate between two splits."""
    k = draw(st.integers(2, 11))
    m = draw(st.integers(1, 40))
    n_out = draw(st.integers(1, 3))
    grid = st.lists(st.integers(0, 20), min_size=2 * k, max_size=2 * k)
    ends = np.array(draw(st.lists(grid, min_size=m, max_size=m)), dtype=float).reshape(m, 2, k) / 20
    tied = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0])
    weights = draw(st.lists(st.lists(tied, min_size=k, max_size=k), min_size=n_out, max_size=n_out))
    return ends.min(axis=1), ends.max(axis=1), weights


def has_cycling_row(case):
    fl, fu, weights = case
    return any(
        cycle_start(km_trace(lo, up, w, left)) is not None
        for lo, up in zip(fl, fu)
        for w in weights
        for left in (True, False)
    )


@given(km_grid_cases())
@settings(max_examples=150, deadline=None)
def test_km_grid_rows_match_one_point_reference(case):
    assert_km_matches_reference(*case)


def test_km_grid_cases_reach_cycling_rows():
    # generation only: shrinking the example found would take seconds
    quick = settings(database=None, phases=[Phase.generate])
    assert has_cycling_row(find(km_grid_cases(), has_cycling_row, settings=quick, random=Random(7)))


def test_t2_batch_rejects_points_outside_unit_interval():
    rb = default_rulebase2()
    with pytest.raises(ValueError, match=r"re=1\.5 outside"):
        eval_t2fis(rb, np.array([0.1, 0.2]), np.array([0.3, 1.5]))


# --- type-1 Mamdani --------------------------------------------------------------


@st.composite
def t1_cases(draw):
    rules = None
    if draw(st.booleans()):
        perm = draw(st.permutations(range(27)))
        rules = [(*RULES_27[i][:3], *RULES_27[p][3:]) for i, p in enumerate(perm)]
    rb = rulebase1_with(draw(st.sampled_from(T1_MF_OVERRIDES)), rules)
    keep = draw(st.just(27) | st.integers(1, 26))
    if keep < 27:  # points outside the kept rules' antecedents fire nothing
        rb = RuleBase1(rb.inputs, rb.outputs, rb.rules[:keep])
    edges = {p for var in rb.inputs for _, mf in var.terms for p in mf.points}
    n = draw(BATCH_SIZES)
    inputs = {
        var.name: draw(st.lists(points(edges), min_size=n, max_size=n)) for var in rb.inputs
    }
    return rb, inputs, draw(st.sampled_from([3, 4, 1000, 1001]))


@given(t1_cases())
@settings(max_examples=100, deadline=None)
def test_fis1_batch_matches_one_point_reference(case):
    assert_fis1_matches_reference(*case)


def assert_fis1_matches_reference(rb, inputs, samples):
    names = [var.name for var in rb.inputs]
    rows = [dict(zip(names, p)) for p in zip(*(inputs[n] for n in names))]
    want = [reference_rows(eval_fis1_ref, rb, row, samples) for row in rows]
    got = eval_fis1(rb, {k: np.array(v) for k, v in inputs.items()}, samples)
    for var in rb.outputs:
        assert same_bits(got[var.name], [NAN if w is None else w[var.name] for w in want])


def output_cover(rb, samples):
    """Per output, how many of its terms are nonzero at each COA sample."""
    xs = (np.arange(samples) + 0.5) / samples
    return {var.name: sum(mf_sample(mf, xs) > 0.0 for _, mf in var.terms) for var in rb.outputs}


def test_t1_overrides_stack_output_terms_and_leave_gaps():
    deep = output_cover(default_rulebase1(DEEP_OUTPUT_COVER), 1001)
    assert deep["radius"].max() == deep["chance"].max() == 3
    for samples in (1000, 1001):
        assert output_cover(rulebase1_with(OUTPUT_GAP), samples)["radius"].min() == 0
    with pytest.raises(ValueError, match="radius: no term covers x=0.0612"):
        default_rulebase1(OUTPUT_GAP)


@st.composite
def t1_built_cases(draw, n_inputs, n_outputs):
    """A rule base built directly: n_inputs inputs of 2-5 terms, n_outputs
    outputs of 2-9 terms and 1-40 rules drawn with repeats, so some terms
    have no rule and some antecedents have several."""
    labels = [f"t{i}" for i in range(9)]

    def variable(name, sizes):
        n = draw(sizes)
        shoulders = n == 3 and draw(st.booleans())
        terms = three_level_terms(labels[:3]) if shoulders else even_terms(labels[:n])
        return LinguisticVariable(name, terms)

    ins = tuple(variable(f"in{i}", st.integers(2, 5)) for i in range(n_inputs))
    outs = tuple(variable(f"out{j}", st.integers(2, 9)) for j in range(n_outputs))
    antecedents = st.tuples(*(st.sampled_from(var.term_names) for var in ins))
    consequents = st.tuples(*(st.sampled_from(var.term_names) for var in outs))
    rules = draw(st.lists(st.builds(Rule1, antecedents, consequents), min_size=1, max_size=40))
    rb = RuleBase1(ins, outs, tuple(rules))
    edges = {p for var in ins for _, mf in var.terms for p in mf.points}
    n = draw(BATCH_SIZES)
    inputs = {var.name: draw(st.lists(points(edges), min_size=n, max_size=n)) for var in ins}
    return rb, inputs, draw(st.sampled_from([3, 4, 1000, 1001]))


@pytest.mark.parametrize("n_inputs,n_outputs", [(4, 2), (2, 1), (1, 3)])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_built_fis1_batch_matches_one_point_reference(n_inputs, n_outputs, data):
    assert_fis1_matches_reference(*data.draw(t1_built_cases(n_inputs, n_outputs)))


# Inputs where every stock input term is flat, so that points share firings.
SATURATED = st.floats(0.0, 0.2) | st.floats(0.8, 1.0)


@st.composite
def t1_repeated_cases(draw):
    """A shuffled batch of copies of a few points with exactly ``distinct``
    distinct firing columns, on either side of the chunk size. Saturated
    points share firings, and the rule bases that keep only some rules have
    points that fire nothing, so NaN in every output."""
    rb = rulebase1_with(draw(st.sampled_from(T1_MF_OVERRIDES)))
    keep = draw(st.just(27) | st.integers(1, 26))
    if keep < 27:
        rb = RuleBase1(rb.inputs, rb.outputs, rb.rules[:keep])
    edges = {p for var in rb.inputs for _, mf in var.terms for p in mf.points}
    names = [var.name for var in rb.inputs]
    point = st.tuples(*[SATURATED | points(edges)] * len(names))
    distinct = draw(st.sampled_from([ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 1]))
    seen, batch = set(), []
    for _ in range(8 * distinct):
        if len(seen) == distinct:
            break
        p = draw(point)
        seen.add(term_firings(rb, dict(zip(names, p))).tobytes())
        batch += [p] * draw(st.integers(1, 3))
    assume(len(seen) == distinct)
    batch = draw(st.permutations(batch))
    inputs = {name: [p[i] for p in batch] for i, name in enumerate(names)}
    return rb, inputs, draw(st.sampled_from([3, 1001])), distinct


@given(t1_repeated_cases())
@settings(max_examples=40, deadline=None)
def test_fis1_merged_firings_match_one_point_reference(case):
    # eval_fis1 aggregates each distinct firing column once and scatters it
    # back: every copy must still get the one-point engine's bits
    rb, inputs, samples, distinct = case
    assert len({col.tobytes() for col in term_firings(rb, inputs).T}) == distinct
    assert_fis1_matches_reference(rb, inputs, samples)


def test_fis1_broadcasts_one_point_input_over_every_chunk():
    rb = default_rulebase1()
    x = np.linspace(0.0, 1.0, 2 * ROW_CHUNK + 3)
    got = eval_fis1(rb, {"distance": 0.3, "energy": x, "concentration": x[::-1]})
    want = eval_fis1(rb, {"distance": np.full(len(x), 0.3), "energy": x, "concentration": x[::-1]})
    for name in ("radius", "chance"):
        assert same_bits(got[name], want[name])


def test_zero_point_calls_return_empty_arrays():
    ends = km_type_reduce(np.zeros((2, 9, 0)), np.ones((2, 9)))
    assert ends.shape == (2, 2, 0) and ends.dtype == float
    radius, chance = eval_t2fis(default_rulebase2(), [], [])
    assert radius.shape == chance.shape == (0,) and radius.dtype == chance.dtype == float
    out = eval_fis1(default_rulebase1(), {"distance": [], "energy": [], "concentration": []})
    assert list(out) == ["radius", "chance"]
    assert all(v.shape == (0,) and v.dtype == float for v in out.values())
    counts = neighbor_count(deploy(10, 100.0, (50.0, 175.0), seed=1), [], 20.0)
    assert counts.shape == (0,) and counts.dtype == np.intp


@pytest.mark.parametrize(
    "inputs,message",
    [
        ({"db": [0.1, 0.2], "re": [0.1, 0.2, 0.3]}, "db: 2 points, but re has 3"),
        ({"db": [], "re": [0.5]}, "db: 0 points, but re has 1"),
        ({"db": [0.1, 0.2, 0.3], "re": []}, "re: 0 points, but db has 3"),
        (
            {"distance": [0.1, 0.2], "energy": 0.5, "concentration": [0.1, 0.2, 0.3]},
            "distance: 2 points, but concentration has 3",
        ),
        (
            {"distance": [], "energy": 0.5, "concentration": 0.5},
            "distance: 0 points, but energy has 1",
        ),
        (
            {"db": np.zeros((2, 2)), "re": 0.5},
            "db: shape (2, 2), but an input is a float or a 1-D array",
        ),
        (
            {"distance": np.zeros((2, 2)), "energy": 0.5, "concentration": 0.5},
            "distance: shape (2, 2), but an input is a float or a 1-D array",
        ),
        (
            {"distance": [0.1, 0.2], "energy": np.zeros((2, 2)), "concentration": 0.5},
            "energy: shape (2, 2), but an input is a float or a 1-D array",
        ),
    ],
    ids=[
        "fis2-2-3", "fis2-0-1", "fis2-3-0", "fis1-2-3", "fis1-0-1", "fis2-2d", "fis1-2d", "fis1-1d-2d"
    ],
)
def test_engines_name_an_input_of_another_length(inputs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if "db" in inputs:
            eval_t2fis(default_rulebase2(), **inputs)
        else:
            eval_fis1(default_rulebase1(), inputs)


@pytest.mark.parametrize("value", [1.5, -0.25, np.nan], ids=["above", "below", "nan"])
@pytest.mark.parametrize(
    "engine,name",
    [("fis1", "distance"), ("fis1", "energy"), ("fis1", "concentration"), ("fis2", "db"),
     ("fis2", "re")],
)
def test_engines_reject_a_point_outside_the_unit_interval(engine, name, value):
    inputs = dict.fromkeys(
        ("distance", "energy", "concentration") if engine == "fis1" else ("db", "re"),
        np.array([0.0, 0.5, 1.0]),
    )
    inputs[name] = np.array([0.0, value, 1.0])
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name}={value} outside [0, 1]')}$"):
        if engine == "fis1":
            eval_fis1(default_rulebase1(), inputs)
        else:
            eval_t2fis(default_rulebase2(), **inputs)


# --- protocols: one engine call per round, fallbacks point by point ----------------

TYPE2 = ProtocolParams(kind="type2fl", p=0.5, r_min=10.0, r_max=40.0, nbr_radius=20.0)
FUZZY = ProtocolParams(kind="fuzzy_unequal", p=0.5, r_min=10.0, r_max=40.0, nbr_radius=20.0)
RADIO = RadioParams(
    e_elec=50e-9, eps_fs=10e-12, eps_mp=0.0013e-12, e_da=5e-9, packet_bits=4000, ctrl_bits=200
)


def degenerate_config(params):
    """A round config whose engines fire nothing for the nodes farthest from the sink."""
    t1 = default_rulebase1()
    far_rules = tuple(r for r in t1.rules if r.antecedents[0] == "far")
    return round_config(
        params,
        RADIO,
        rules1=RuleBase1(t1.inputs, t1.outputs, far_rules),
        rules2=notched(default_rulebase2()),
        coa_samples=101,
    )


def reference_outputs(cfg, db, re, conc):
    """(r_norm, chance) from the one-point reference engine, None where it is
    degenerate."""
    if cfg.protocol is TYPE2:
        return reference_rows(eval_t2fis_ref, cfg.rules2, db, re)
    inputs = {"distance": db, "energy": re, "concentration": conc}
    out = reference_rows(eval_fis1_ref, cfg.rules1, inputs, cfg.coa_samples)
    return None if out is None else (out["radius"], out["chance"])


@pytest.mark.parametrize("params", [TYPE2, FUZZY], ids=["type2fl", "fuzzy_unequal"])
def test_degenerate_points_fall_back_one_by_one(params):
    cfg = degenerate_config(params)
    net = deploy(3 * ROW_CHUNK + 1, 100.0, (50.0, 175.0), seed=5)
    net.energy[:] = np.linspace(0.05, 1.0, net.n)
    inputs = normalize_inputs(net, np.arange(net.n), 20.0)
    radius, chance, fell_back = compute_radius_chance(net, np.arange(net.n), inputs, cfg)
    span = params.r_max - params.r_min
    for i, point in enumerate(zip(*inputs)):
        w = reference_outputs(cfg, *point)
        assert fell_back[i] == (w is None)
        r_norm, ch = (0.5, 0.5) if w is None else w
        assert same_bits([radius[i], chance[i]], [params.r_min + r_norm * span, ch])
    assert 0 < fell_back.sum() < net.n


@pytest.mark.parametrize("params", [TYPE2, FUZZY], ids=["type2fl", "fuzzy_unequal"])
def test_round_counts_every_fallback(params):
    cfg = degenerate_config(params)
    net = deploy(100, 100.0, (50.0, 175.0), seed=3)
    provisional, _ = select_provisional(net, params, 0, Xorshift64Star(11))
    inputs = normalize_inputs(net, np.array(provisional), 20.0)
    want = sum(reference_outputs(cfg, *point) is None for point in zip(*inputs))
    plan = run_protocol_round(net, cfg, Xorshift64Star(11), 1)
    assert plan.fis_fallbacks == want > 0


def test_kept_degenerate_point_falls_back_every_round():
    # no energy is spent between the rounds, so every candidate evaluated
    # before reads its kept outputs again
    cfg = degenerate_config(FUZZY)
    net = deploy(100, 100.0, (50.0, 175.0), seed=3)
    seen, repeated = set(), 0
    for r in range(1, 5):
        provisional, _ = select_provisional(net, FUZZY, r - 1, Xorshift64Star(10 + r))
        inputs = normalize_inputs(net, provisional, 20.0)
        degenerate = {
            i for i, point in zip(provisional.tolist(), zip(*inputs))
            if reference_outputs(cfg, *point) is None
        }
        plan = run_protocol_round(net, cfg, Xorshift64Star(10 + r), r)
        assert plan.fis_fallbacks == len(degenerate) > 0
        repeated += len(degenerate & seen)
        seen |= degenerate
    assert repeated > 0


def test_node_keeps_nan_in_every_output_of_a_degenerate_point():
    # a radius term without area: the first point fires only a rule that
    # concludes it, so it has a chance but no radius
    rb = default_rulebase1()
    radius = copy.copy(rb.outputs[0])
    point = trapezoidal(0.5, 0.5, 0.5, 0.5)
    terms = tuple((t, point if t == "medium" else mf) for t, mf in radius.terms)
    object.__setattr__(radius, "terms", terms)  # after LinguisticVariable's coverage check
    rules1 = RuleBase1(rb.inputs, (radius, rb.outputs[1]), rb.rules)
    cfg = round_config(FUZZY, RADIO, rules1=rules1, coa_samples=100)
    net = deploy(2, 100.0, (50.0, 175.0), seed=5)
    inputs = (np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([0.5, 0.9]))
    for _ in range(2):  # evaluated, then read back
        _, _, fell_back = compute_radius_chance(net, np.arange(2), inputs, cfg)
        assert fell_back.tolist() == [True, False]
    # NaN in one output is NaN in all, in what the node keeps too
    assert np.isnan(net._fis1[3][:, 0]).all()
