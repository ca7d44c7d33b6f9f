import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import firing_intervals, interval_at, mf_at, peak_point
from fuzzcluster.fis1 import triangular
from fuzzcluster.fis2 import (
    RULES_9,
    T2_CHANCE_TERMS,
    T2_RADIUS_TERMS,
    IntervalMF,
    Rule2,
    default_rulebase2,
    eval_t2fis,
    km_type_reduce,
    make_fou,
    output_weights,
)


def one_point(lower, upper):
    """Firing bounds of one point, one entry per rule: a (2, rules, 1) array."""
    return np.array([lower, upper], dtype=float)[:, :, None]


def km_bruteforce(firings, weights):
    """Exhaustive 2^K enumeration over the interval endpoints of a one-point
    firing (exact: the weighted ratio is monotone in each coordinate, so
    extrema sit at endpoints)."""
    lo, hi = float("inf"), float("-inf")
    choices = list(zip(firings[0, :, 0].tolist(), firings[1, :, 0].tolist()))
    for combo in itertools.product(*choices):
        den = sum(combo)
        if den <= 0.0:
            continue
        y = sum(f * w for f, w in zip(combo, weights)) / den
        lo, hi = min(lo, y), max(hi, y)
    return lo, hi


def random_instance(rng, k=None):
    k = k if k is not None else int(rng.integers(1, 10))
    fu = rng.uniform(0.0, 1.0, k)
    fu[int(rng.integers(0, k))] = max(fu.max(), 0.05)  # at least one positive upper
    fl = rng.uniform(0.0, 1.0, k) * fu
    weights = rng.uniform(0.0, 1.0, k)
    return one_point(fl, fu), list(weights)


# --- footprint construction ----------------------------------------------------


def test_fou_blur_zero_degenerates():
    base = triangular(0.2, 0.5, 0.8)
    imf = make_fou(base, 0.0)
    for x in np.linspace(0, 1, 33):
        lo, hi = interval_at(imf, x)
        assert lo == hi == mf_at(base, x)


def test_fou_lower_peak_scaled():
    imf = make_fou(triangular(0.2, 0.5, 0.8), 0.2)
    lo, hi = interval_at(imf, 0.5)
    assert lo == pytest.approx(0.8, abs=1e-12)
    assert hi == 1.0


def test_fou_upper_support_widened_and_clamped():
    imf = make_fou(triangular(0.2, 0.5, 0.8), 0.2)
    assert imf.upper.support == (0.0, 1.0)
    shoulder = make_fou(triangular(0.1, 0.5, 0.95), 0.2)
    assert shoulder.upper.support == (0.0, 1.0)


def test_fou_bad_blur_rejected():
    with pytest.raises(ValueError):
        make_fou(triangular(0, 0.5, 1), 1.0)
    with pytest.raises(ValueError):
        make_fou(triangular(0, 0.5, 1), -0.1)


@given(
    st.floats(0.0, 0.95),
    st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)).map(sorted),
    st.floats(0, 1),
)
def test_fou_pointwise_ordering(blur, pts, x):
    a, b, c = pts
    imf = make_fou(triangular(a, b, c), blur)
    lo, hi = interval_at(imf, x)
    assert 0.0 <= lo <= hi <= 1.0


# --- rule firing -----------------------------------------------------------------


def test_firing_interval_products():
    # engineered memberships: distance interval [0.5, 0.7], energy [0.4, 0.6]
    dist = {"d": IntervalMF(triangular(0, 1, 2), triangular(0, 5 / 7, 2))}
    energy = {"e": IntervalMF(triangular(0, 1, 2), triangular(0, 2 / 3, 2))}
    rule = Rule2("d", "e", "medium", "medium", 0.5, 0.5)
    fi = firing_intervals([rule], np.array([0.5]), np.array([0.4]), dist, energy)
    assert fi.shape == (2, 1, 1)
    assert fi[0, 0, 0] == pytest.approx(0.20, abs=1e-12)
    assert fi[1, 0, 0] == pytest.approx(0.42, abs=1e-12)


def test_firing_interval_annihilator_and_identity():
    zero = {"t": IntervalMF(triangular(0, 0.1, 0.2), triangular(0, 0.1, 0.2))}
    one = {"t": IntervalMF(triangular(0, 0.5, 1), triangular(0, 0.5, 1))}
    rule = Rule2("t", "t", "medium", "medium", 0.5, 0.5)
    fi = firing_intervals([rule], np.array([0.9]), np.array([0.5]), zero, one)
    assert (fi[0, 0, 0], fi[1, 0, 0]) == (0.0, 0.0)
    fi = firing_intervals([rule], np.array([0.5]), np.array([0.5]), one, one)
    assert (fi[0, 0, 0], fi[1, 0, 0]) == (1.0, 1.0)


def test_firing_interval_validation():
    with pytest.raises(ValueError, match=r"^bad firing interval of rule 0 at point 0: \[0.5, 0.4]$"):
        km_type_reduce(one_point([0.5], [0.4]), [[0.5]])
    with pytest.raises(ValueError, match=r"^bad firing interval of rule 0 at point 0: \[-0.1, "):
        km_type_reduce(one_point([-0.1], [0.5]), [[0.5]])
    # rule 1 inverts at point 1 and overflows at point 2: the first bad entry is named
    firings = np.array([[[0.1, 0.2, 0.3], [0.1, 0.7, 0.2]], [[0.5, 0.5, 0.5], [0.5, 0.6, 1.5]]])
    with pytest.raises(ValueError, match=r"^bad firing interval of rule 1 at point 1: \[0.7, 0.6]$"):
        km_type_reduce(firings, [[0.2, 0.8]])


def test_km_unpaired_weights_rejected():
    message = "firings and weights must pair up: 2 rules, weights (1, 3)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        km_type_reduce(one_point([0.1, 0.2], [0.3, 0.4]), [[0.1, 0.5, 0.9]])
    with pytest.raises(ValueError, match="^firings and weights must pair up: "):
        km_type_reduce(one_point([0.1, 0.2], [0.3, 0.4]), [0.1, 0.5])


def test_km_no_rules_rejected():
    with pytest.raises(ValueError, match="^need at least one rule firing$"):
        km_type_reduce(np.zeros((2, 0, 3)), np.zeros((2, 0)))


# --- type reduction ---------------------------------------------------------------


def test_km_degenerate_intervals_reduce_to_weighted_centroid():
    firings = one_point([0.3, 0.6, 0.1], [0.3, 0.6, 0.1])
    weights = [0.2, 0.5, 0.9]
    expected = (0.3 * 0.2 + 0.6 * 0.5 + 0.1 * 0.9) / (0.3 + 0.6 + 0.1)
    ri = km_type_reduce(firings, [weights])
    assert ri[0, 0, 0] == pytest.approx(expected, abs=1e-12)
    assert ri[1, 0, 0] == pytest.approx(expected, abs=1e-12)


def test_km_two_rule_hand_case():
    ri = km_type_reduce(one_point([0.2, 0.6], [0.4, 0.8]), [[0.3, 0.9]])
    assert ri[0, 0, 0] == pytest.approx(0.66, abs=1e-12)
    assert ri[1, 0, 0] == pytest.approx(0.78, abs=1e-12)


def test_km_single_rule_returns_weight():
    ri = km_type_reduce(one_point([0.1], [0.9]), [[0.4]])
    assert ri[0, 0, 0] == ri[1, 0, 0] == 0.4


def test_km_all_zero_firings_degenerate():
    ri = km_type_reduce(one_point([0.0] * 3, [0.0] * 3), [[0.1, 0.5, 0.9]])
    assert np.isnan([ri[0, 0, 0], ri[1, 0, 0]]).all()


def test_km_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(20240901)
    for _ in range(200):
        firings, weights = random_instance(rng)
        lo_bf, hi_bf = km_bruteforce(firings, weights)
        ri = km_type_reduce(firings, [weights])
        assert ri[0, 0, 0] == pytest.approx(lo_bf, abs=1e-9)
        assert ri[1, 0, 0] == pytest.approx(hi_bf, abs=1e-9)
        assert ri[0, 0, 0] <= ri[1, 0, 0] + 1e-12


@given(st.integers(0, 100_000))
@settings(max_examples=150)
def test_km_bruteforce_property(seed):
    rng = np.random.default_rng(seed)
    firings, weights = random_instance(rng)
    lo_bf, hi_bf = km_bruteforce(firings, weights)
    ri = km_type_reduce(firings, [weights])
    assert ri[0, 0, 0] == pytest.approx(lo_bf, abs=1e-9)
    assert ri[1, 0, 0] == pytest.approx(hi_bf, abs=1e-9)


@given(st.integers(0, 100_000))
@settings(max_examples=100)
def test_km_monotone_inclusion_under_widening(seed):
    rng = np.random.default_rng(seed)
    firings, weights = random_instance(rng)
    shrink = rng.uniform(0.0, 1.0, len(weights))
    grow = rng.uniform(0.0, 1.0, len(weights))
    fl, fu = firings[:, :, 0]
    widened = np.array([fl * shrink, fu + (1.0 - fu) * grow])[:, :, None]
    a = km_type_reduce(firings, [weights])
    b = km_type_reduce(widened, [weights])
    assert b[0, 0, 0] <= a[0, 0, 0] + 1e-12
    assert b[1, 0, 0] >= a[1, 0, 0] - 1e-12


@given(st.integers(0, 100_000))
def test_km_midpoint_within_weight_range(seed):
    rng = np.random.default_rng(seed)
    firings, weights = random_instance(rng)
    ri = km_type_reduce(firings, [weights])
    assert min(weights) - 1e-12 <= 0.5 * (ri[0, 0, 0] + ri[1, 0, 0]) <= max(weights) + 1e-12


# --- whole-engine behaviour --------------------------------------------------------


def test_output_weights_even_partition():
    ws = output_weights(T2_RADIUS_TERMS)
    assert ws["very_small"] == pytest.approx(7 / 90, abs=1e-12)
    assert ws["small"] == pytest.approx(0.2, abs=1e-12)
    assert ws["medium_small"] == pytest.approx(0.4, abs=1e-12)
    assert ws["medium"] == pytest.approx(0.6, abs=1e-12)
    assert ws["large"] == pytest.approx(0.8, abs=1e-12)
    assert ws["very_large"] == pytest.approx(83 / 90, abs=1e-12)


def _nearest_weight(value, weights):
    return min(weights, key=lambda t: abs(weights[t] - value))


def test_far_advance_peaks_give_strong_chance_and_very_large_radius():
    rb = default_rulebase2()
    db = peak_point(rb.distance_mfs["far"].lower)
    re = peak_point(rb.energy_mfs["adv"].lower)
    radius, chance = eval_t2fis(rb, db, re)
    assert _nearest_weight(chance, output_weights(T2_CHANCE_TERMS)) == "strong"
    assert _nearest_weight(radius, output_weights(T2_RADIUS_TERMS)) == "very_large"


def test_proximate_low_peaks_give_very_small_radius_and_very_weak_chance():
    rb = default_rulebase2()
    db = peak_point(rb.distance_mfs["proximate"].lower)
    re = peak_point(rb.energy_mfs["low"].lower)
    radius, chance = eval_t2fis(rb, db, re)
    assert _nearest_weight(radius, output_weights(T2_RADIUS_TERMS)) == "very_small"
    assert _nearest_weight(chance, output_weights(T2_CHANCE_TERMS)) == "very_weak"


def height_type1_oracle(rb, db, re):
    """Independent collapse oracle: product firing of the base memberships,
    weighted-mean defuzzification."""
    num_r = num_c = den = 0.0
    for rule in rb.rules:
        f = mf_at(rb.distance_mfs[rule.distance].lower, db) * mf_at(
            rb.energy_mfs[rule.energy].lower, re
        )
        num_r += f * rule.w_radius
        num_c += f * rule.w_chance
        den += f
    return num_r / den, num_c / den


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=100)
def test_blur_zero_collapses_to_type1(db, re):
    rb = default_rulebase2(blur=0.0)
    radius, chance = eval_t2fis(rb, db, re)
    oracle_r, oracle_c = height_type1_oracle(rb, db, re)
    assert radius == pytest.approx(oracle_r, abs=1e-9)
    assert chance == pytest.approx(oracle_c, abs=1e-9)


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=60)
def test_eval_outputs_bounded(db, re):
    rb = default_rulebase2()
    radius, chance = eval_t2fis(rb, db, re)
    assert 0.0 <= radius <= 1.0
    assert 0.0 <= chance <= 1.0


def test_eval_rejects_inputs_outside_unit_interval():
    rb = default_rulebase2()
    with pytest.raises(ValueError):
        eval_t2fis(rb, 1.2, 0.5)
    with pytest.raises(ValueError):
        eval_t2fis(rb, 0.5, -0.1)


# Every (rules, rows) block of the Karnik-Mendel loop stays below glibc
# malloc's 128 KiB mmap threshold; this bound keeps a 1000-point call from
# holding whole-batch stacks of firings.
PEAK_BOUND = 768 * 1024


def test_eval_peak_memory_is_bounded():
    rb = default_rulebase2()
    x = np.linspace(0.0, 1.0, 1000)
    tracemalloc.start()
    try:
        eval_t2fis(rb, x, (3 * x) % 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUND


# --- rule base shape ------------------------------------------------------------------


def test_rule_table_complete():
    assert len(RULES_9) == 9
    pairs = {(d, e) for d, e, _, _ in RULES_9}
    assert len(pairs) == 9
    assert {r for _, _, r, _ in RULES_9} <= set(T2_RADIUS_TERMS)
    assert {c for _, _, _, c in RULES_9} <= set(T2_CHANCE_TERMS)


def test_incomplete_rule_override_rejected():
    with pytest.raises(ValueError, match="9"):
        default_rulebase2(rules=RULES_9[:8])


def test_unknown_consequent_rejected():
    bad = (("proximate", "low", "gigantic", "very_weak"),) + RULES_9[1:]
    with pytest.raises(ValueError, match="gigantic"):
        default_rulebase2(rules=bad)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"mf_overrides": {"distanc": {}}}, "mf2.distanc: unknown variable 'distanc'"),
        ({"w_radius": {"very_small": 7.0}}, "w.radius: weight 7.0 of 'very_small' outside [0, 1]"),
        ({"w_radius": {"very_small": 0.5}}, "w.radius: no weight for 'small'"),
        (
            {"w_chance": {**output_weights(T2_CHANCE_TERMS), "tiny": 0.5}},
            "w.chance: unknown term 'tiny'",
        ),
        (
            {"w_chance": {**output_weights(T2_CHANCE_TERMS), "weak": float("nan")}},
            "w.chance: weight nan of 'weak'",
        ),
    ],
    ids=["mf-variable", "weight-range", "weight-missing", "weight-term", "weight-nan"],
)
def test_builder_rejects_what_it_cannot_use(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        default_rulebase2(**kwargs)
