"""The batch engines against the one-point reference engines, bit for bit.

Every point of a batch must give the exact float the one-point engine gives,
and NaN where it raised DegenerateOutputError or found its reduced interval
inverted.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_reference import eval_fis1_ref, eval_t2fis_ref, km_ref
from fuzzcluster.energy import RadioParams
from fuzzcluster.fis1 import (
    ROW_CHUNK,
    RULES_27,
    DegenerateOutputError,
    RuleBase1,
    default_rulebase1,
    eval_fis1,
    trapezoidal,
    triangular,
)
from fuzzcluster.fis2 import (
    RULES_9,
    T2_CHANCE_TERMS,
    T2_DISTANCE_TERMS,
    T2_RADIUS_TERMS,
    FiringInterval,
    default_rulebase2,
    eval_t2fis,
    km_type_reduce,
    make_fou,
)
from fuzzcluster.network import deploy, normalize_inputs
from fuzzcluster.protocols import (
    Engines,
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
)


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
    w_radius = draw(st.none() | st.fixed_dictionaries({t: tied for t in T2_RADIUS_TERMS}))
    w_chance = draw(st.none() | st.fixed_dictionaries({t: tied for t in T2_CHANCE_TERMS}))
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
@settings(max_examples=100, deadline=None)
def test_t2_batch_matches_one_point_reference(case):
    rb, db, re = case
    want = [reference_rows(eval_t2fis_ref, rb, d, r) or (NAN, NAN) for d, r in zip(db, re)]
    radius, chance = eval_t2fis(rb, np.array(db), np.array(re))
    assert same_bits(radius, [w[0] for w in want])
    assert same_bits(chance, [w[1] for w in want])


def test_t2_subnormal_inversion_is_a_degenerate_point():
    # Firings of a few multiples of 5e-324 round the chance interval to
    # [0.375, 0.286]: that point is degenerate, the healthy one is unaffected.
    rb = notched(default_rulebase2())
    db, re = np.array([5e-324, 0.5]), np.array([0.0, 0.5])
    healthy = eval_t2fis_ref(rb, 0.5, 0.5)
    radius, chance = eval_t2fis(rb, db, re)
    assert same_bits(radius, [NAN, healthy[0]])
    assert same_bits(chance, [NAN, healthy[1]])
    _, _, fell_back = compute_radius_chance((db, re, np.zeros(2)), Engines(rules2=rb), TYPE2)
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
    got = km_type_reduce(FiringInterval(fl, fu), weights)
    want = [reference_rows(km_ref, lo, up, weights) or (NAN, NAN) for lo, up in zip(fl, fu)]
    assert same_bits(got.lo, [w[0] for w in want])
    assert same_bits(got.hi, [w[1] for w in want])


def test_km_scalar_call_rejects_mismatched_and_empty_firings():
    with pytest.raises(ValueError, match="pair up"):
        km_type_reduce(FiringInterval(np.array([[0.1]]), np.array([[0.2]])), [0.1, 0.2])
    with pytest.raises(ValueError, match="at least one"):
        km_type_reduce(FiringInterval(np.zeros((1, 0)), np.zeros((1, 0))), [])


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
    rb = default_rulebase1(draw(st.sampled_from(T1_MF_OVERRIDES)), rules)
    keep = draw(st.just(27) | st.integers(1, 26))
    if keep < 27:  # points outside the kept rules' antecedents fire nothing
        rb = RuleBase1(rb.inputs, rb.outputs, rb.rules[:keep])
    edges = {p for var in rb.inputs for _, mf in var.terms for p in mf.points}
    n = draw(BATCH_SIZES)
    inputs = {
        var.name: draw(st.lists(points(edges), min_size=n, max_size=n)) for var in rb.inputs
    }
    return rb, inputs, draw(st.sampled_from([3, 1001]))


@given(t1_cases())
@settings(max_examples=100, deadline=None)
def test_fis1_batch_matches_one_point_reference(case):
    rb, inputs, samples = case
    names = [var.name for var in rb.inputs]
    rows = [dict(zip(names, p)) for p in zip(*(inputs[n] for n in names))]
    want = [reference_rows(eval_fis1_ref, rb, row, samples) for row in rows]
    got = eval_fis1(rb, {k: np.array(v) for k, v in inputs.items()}, samples)
    for var in rb.outputs:
        assert same_bits(got[var.name], [NAN if w is None else w[var.name] for w in want])


def test_fis1_broadcasts_one_point_input_over_every_chunk():
    rb = default_rulebase1()
    x = np.linspace(0.0, 1.0, 2 * ROW_CHUNK + 3)
    got = eval_fis1(rb, {"distance": 0.3, "energy": x, "concentration": x[::-1]})
    want = eval_fis1(rb, {"distance": np.full(len(x), 0.3), "energy": x, "concentration": x[::-1]})
    for name in ("radius", "chance"):
        assert same_bits(got[name], want[name])


# --- protocols: one engine call per round, fallbacks point by point ----------------

TYPE2 = ProtocolParams(kind="type2fl", p=0.5, r_min=10.0, r_max=40.0, nbr_radius=20.0)
FUZZY = ProtocolParams(kind="fuzzy_unequal", p=0.5, r_min=10.0, r_max=40.0, nbr_radius=20.0)
RADIO = RadioParams(
    e_elec=50e-9, eps_fs=10e-12, eps_mp=0.0013e-12, e_da=5e-9, packet_bits=4000, ctrl_bits=200
)


def degenerate_engines():
    """Engines that fire nothing for the nodes farthest from the sink."""
    t1 = default_rulebase1()
    far_rules = tuple(r for r in t1.rules if r.antecedents[0] == "far")
    return Engines(
        rules1=RuleBase1(t1.inputs, t1.outputs, far_rules),
        rules2=notched(default_rulebase2()),
        coa_samples=101,
    )


def reference_outputs(eng, params, db, re, conc):
    """(r_norm, chance) from the one-point reference engine, None where it is
    degenerate."""
    if params is TYPE2:
        return reference_rows(eval_t2fis_ref, eng.rules2, db, re)
    inputs = {"distance": db, "energy": re, "concentration": conc}
    out = reference_rows(eval_fis1_ref, eng.rules1, inputs, eng.coa_samples)
    return None if out is None else (out["radius"], out["chance"])


@pytest.mark.parametrize("params", [TYPE2, FUZZY], ids=["type2fl", "fuzzy_unequal"])
def test_degenerate_points_fall_back_one_by_one(params):
    eng = degenerate_engines()
    net = deploy(3 * ROW_CHUNK + 1, 100.0, (50.0, 175.0), seed=5)
    net.energy[:] = np.linspace(0.05, 1.0, net.n)
    inputs = normalize_inputs(net, np.arange(net.n), 20.0)
    radius, chance, fell_back = compute_radius_chance(inputs, eng, params)
    span = params.r_max - params.r_min
    for i, point in enumerate(zip(*inputs)):
        w = reference_outputs(eng, params, *point)
        assert fell_back[i] == (w is None)
        r_norm, ch = (0.5, 0.5) if w is None else w
        assert same_bits([radius[i], chance[i]], [params.r_min + r_norm * span, ch])
    assert 0 < fell_back.sum() < net.n


@pytest.mark.parametrize("params", [TYPE2, FUZZY], ids=["type2fl", "fuzzy_unequal"])
def test_round_counts_every_fallback(params):
    eng = degenerate_engines()
    net = deploy(100, 100.0, (50.0, 175.0), seed=3)
    provisional, _ = select_provisional(net, params, 0, Xorshift64Star(11))
    inputs = normalize_inputs(net, np.array(provisional), 20.0)
    want = sum(reference_outputs(eng, params, *point) is None for point in zip(*inputs))
    plan = run_protocol_round(net, params, eng, 1, Xorshift64Star(11), RADIO)
    assert plan.fis_fallbacks == want > 0
