import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzcluster.fis1 import (
    CHANCE_TERMS,
    RADIUS_TERMS,
    RULES_27,
    AggregatedFuzzySet,
    LinguisticVariable,
    Rule1,
    RuleBase1,
    default_rulebase1,
    defuzz_coa,
    eval_fis1,
    infer_mamdani,
    mf_eval,
    mf_sample,
    trapezoidal,
    triangular,
)


def centroid_oracle(verts):
    """Closed-form centroid of a piecewise-linear curve given as (x, h) vertices
    (slope/intercept integration, independent of the sampled-midpoint path)."""
    num = den = 0.0
    for (x0, h0), (x1, h1) in zip(verts, verts[1:]):
        if x1 == x0:
            continue
        m = (h1 - h0) / (x1 - x0)
        b = h0 - m * x0
        den += m * (x1**2 - x0**2) / 2 + b * (x1 - x0)
        num += m * (x1**3 - x0**3) / 3 + b * (x1**2 - x0**2) / 2
    return num / den


# --- membership functions ----------------------------------------------------


def test_triangle_peak():
    assert mf_eval(triangular(0.2, 0.5, 0.8), 0.5) == 1.0


def test_triangle_rising_edge_hand_value():
    # (0.35 - 0.2) / (0.5 - 0.2)
    assert mf_eval(triangular(0.2, 0.5, 0.8), 0.35) == pytest.approx(0.5, abs=1e-12)


def test_trapezoid_outside_support():
    assert mf_eval(trapezoidal(0.6, 0.8, 1.0, 1.0), 0.1) == 0.0


def test_breakpoints_exact():
    tri = triangular(0.2, 0.5, 0.8)
    assert mf_eval(tri, 0.2) == 0.0
    assert mf_eval(tri, 0.5) == 1.0
    assert mf_eval(tri, 0.8) == 0.0
    trap = trapezoidal(0.1, 0.3, 0.6, 0.9)
    assert mf_eval(trap, 0.1) == 0.0
    assert mf_eval(trap, 0.3) == 1.0
    assert mf_eval(trap, 0.6) == 1.0
    assert mf_eval(trap, 0.9) == 0.0


def test_shoulder_plateau_at_domain_edges():
    assert mf_eval(trapezoidal(0.0, 0.0, 0.2, 0.4), 0.0) == 1.0
    assert mf_eval(trapezoidal(0.6, 0.8, 1.0, 1.0), 1.0) == 1.0


def test_malformed_breakpoints_rejected():
    with pytest.raises(ValueError):
        triangular(0.5, 0.2, 0.8)
    with pytest.raises(ValueError):
        trapezoidal(0.0, 0.5, 0.4, 1.0)


@st.composite
def valid_mfs(draw):
    pts = sorted(draw(st.lists(st.floats(0, 1), min_size=4, max_size=4)))
    if draw(st.booleans()):
        return triangular(pts[0], pts[1], pts[3])
    return trapezoidal(*pts)


@given(valid_mfs(), st.floats(0, 1))
def test_mf_eval_bounded(mf, x):
    assert 0.0 <= mf_eval(mf, x) <= 1.0


@given(valid_mfs())
def test_mf_piecewise_linear_between_breakpoints(mf):
    # constant finite-difference slope strictly inside every breakpoint interval
    pts = mf.points
    for a, b in zip(pts, pts[1:]):
        if b - a < 1e-6:
            continue
        xs = np.linspace(a + (b - a) * 0.1, b - (b - a) * 0.1, 5)
        ys = mf_eval(mf, xs)
        slopes = np.diff(ys) / np.diff(xs)
        assert np.allclose(slopes, slopes[0], atol=1e-7)


@given(valid_mfs())
def test_mf_sample_matches_scalar_eval(mf):
    xs = np.linspace(0, 1, 97)
    sampled = mf_sample(mf, xs)
    assert np.allclose(sampled, mf_eval(mf, xs), atol=1e-12)


# --- linguistic variables -----------------------------------------------------


def test_duplicate_term_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        LinguisticVariable(
            "v", (0, 1), (("a", triangular(0, 0.5, 1)), ("a", triangular(0, 0.5, 1)))
        )


def test_support_outside_domain_rejected():
    with pytest.raises(ValueError, match="domain"):
        LinguisticVariable("v", (0, 1), (("a", triangular(-0.1, 0.5, 1.0)),))


def test_coverage_hole_rejected():
    with pytest.raises(ValueError, match="covers"):
        LinguisticVariable(
            "v",
            (0, 1),
            (("a", triangular(0, 0.1, 0.2)), ("b", trapezoidal(0.9, 0.95, 1, 1))),
        )


def test_term_peaks():
    rb = default_rulebase1()
    dist = rb.inputs[0]
    assert dist.peak("close") == pytest.approx(0.1)
    assert dist.peak("far") == pytest.approx(0.5)
    assert dist.peak("farthest") == pytest.approx(0.9)


# --- inference -----------------------------------------------------------------


def _tiny_rulebase(rules):
    x = LinguisticVariable(
        "x", (0, 1), (("lo", triangular(0, 0, 1)), ("hi", triangular(0, 1, 1)))
    )
    y = LinguisticVariable(
        "y", (0, 1), (("low", trapezoidal(0, 0, 0.3, 0.6)), ("high", trapezoidal(0.4, 0.7, 1, 1)))
    )
    return RuleBase1((x,), (y,), rules)


def test_no_rule_fires_gives_zero_aggregate():
    rb = _tiny_rulebase((Rule1(("lo",), ("low",)),))
    agg = infer_mamdani(rb, {"x": np.array([1.0])})["y"]  # "lo" has zero membership at 1.0
    assert np.all(agg.mu == 0.0)
    assert np.isnan(defuzz_coa(agg)).tolist() == [True]


def test_single_rule_full_strength_is_identity_clip():
    rb = _tiny_rulebase((Rule1(("hi",), ("high",)),))
    agg = infer_mamdani(rb, {"x": np.array([1.0])})["y"]
    expected = mf_sample(trapezoidal(0.4, 0.7, 1, 1), agg.xs)
    assert np.array_equal(agg.mu, [expected])


def test_two_rules_pointwise_max():
    # memberships at x=0.6: "lo" fires 0.4, "hi" fires 0.6
    rb = _tiny_rulebase((Rule1(("lo",), ("low",)), Rule1(("hi",), ("high",))))
    agg = infer_mamdani(rb, {"x": np.array([0.6])})["y"]

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

    for i in range(0, len(agg.xs), 100):  # 11 grid points
        x = agg.xs[i]
        expected = max(min(0.4, low_mf(x)), min(0.6, high_mf(x)))
        assert agg.mu[0, i] == pytest.approx(expected, abs=1e-12)


def test_missing_input_variable_rejected():
    rb = default_rulebase1()
    with pytest.raises(ValueError, match="missing input"):
        infer_mamdani(rb, {"distance": 0.5, "energy": 0.5})


def test_input_outside_domain_rejected():
    rb = default_rulebase1()
    with pytest.raises(ValueError, match="outside domain"):
        eval_fis1(rb, {"distance": 1.5, "energy": 0.5, "concentration": 0.5})


# --- defuzzification -----------------------------------------------------------


def test_coa_symmetric_triangle():
    agg = AggregatedFuzzySet(0.0, 1.0, mf_sample(triangular(0.3, 0.5, 0.7), _grid(1001))[None])
    assert defuzz_coa(agg)[0] == pytest.approx(0.5, abs=1e-12)


def _grid(n):
    return (np.arange(n) + 0.5) / n


def test_coa_shoulder_trapezoid_against_closed_form():
    mf = trapezoidal(0.0, 0.0, 0.2, 0.4)
    agg = AggregatedFuzzySet(0.0, 1.0, mf_sample(mf, _grid(1001))[None])
    oracle = centroid_oracle([(0.0, 1.0), (0.2, 1.0), (0.4, 0.0)])
    assert oracle == pytest.approx(7.0 / 45.0, abs=1e-12)
    assert defuzz_coa(agg)[0] == pytest.approx(oracle, abs=1e-4)


def test_coa_two_equal_lobes():
    grid = _grid(1001)
    lobes = np.maximum(
        np.minimum(0.6, mf_sample(triangular(0.2, 0.3, 0.4), grid)),
        np.minimum(0.6, mf_sample(triangular(0.6, 0.7, 0.8), grid)),
    )
    assert defuzz_coa(AggregatedFuzzySet(0.0, 1.0, lobes[None]))[0] == pytest.approx(0.5, abs=1e-9)


@given(st.integers(0, 10_000), st.floats(0.01, 1.0))
def test_coa_scale_invariance(seed, k):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0, 1, (1, 101))
    base = AggregatedFuzzySet(0.0, 1.0, mu)
    scaled = AggregatedFuzzySet(0.0, 1.0, np.clip(mu * k, 0.0, 1.0))
    if k <= 1.0:  # clipping never engages, scaling is exact
        assert abs(defuzz_coa(base)[0] - defuzz_coa(scaled)[0]) < 1e-9


@given(st.integers(0, 10_000))
def test_coa_within_hull_of_fired_consequents(seed):
    rng = np.random.default_rng(seed)
    rb = default_rulebase1()
    x = {
        "distance": float(rng.uniform()),
        "energy": float(rng.uniform()),
        "concentration": float(rng.uniform()),
    }
    aggs = infer_mamdani(rb, x)
    firing = {
        rule: min(
            mf_eval(var.term(t), x[var.name]) for var, t in zip(rb.inputs, rule.antecedents)
        )
        for rule in rb.rules
    }
    for j, var in enumerate(rb.outputs):
        fired = [r.consequents[j] for r, f in firing.items() if f > 0]
        supports = [var.term(t).support for t in fired]
        lo = min(s[0] for s in supports)
        hi = max(s[1] for s in supports)
        assert lo - 1e-9 <= defuzz_coa(aggs[var.name]) <= hi + 1e-9


# --- whole-engine behaviour ----------------------------------------------------


def test_close_high_high_lands_in_very_strong():
    rb = default_rulebase1()
    inputs = {
        "distance": rb.inputs[0].peak("close"),
        "energy": rb.inputs[1].peak("high"),
        "concentration": rb.inputs[2].peak("high"),
    }
    chance = eval_fis1(rb, inputs)["chance"]
    lo, hi = rb.outputs[1].term("very_strong").support
    assert lo < chance < hi


def test_farthest_high_high_lands_in_large():
    rb = default_rulebase1()
    inputs = {
        "distance": rb.inputs[0].peak("farthest"),
        "energy": rb.inputs[1].peak("high"),
        "concentration": rb.inputs[2].peak("high"),
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
            e = energy_var.peak(e_term)
            c = conc_var.peak(c_term)
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
    with pytest.raises(KeyError):
        default_rulebase1(rules=bad)
