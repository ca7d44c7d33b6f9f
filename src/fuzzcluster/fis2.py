"""Interval type-2 engine for the energy-aware cluster-head election.

Footprints of uncertainty are built by widening a base set's support (upper
bound) and scaling its height (lower bound). Rules fire as products of the
interval memberships; the Karnik-Mendel switch-point iteration reduces the
rule firings to an interval whose midpoint is the crisp output.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .fis1 import (
    MembershipFunction,
    MfOverrides,
    _breakpoints,
    _trap_degrees,
    apply_overrides,
    even_terms,
    input_rows,
    mf_centroid,
    three_level_terms,
)

DEFAULT_BLUR = 0.2
# How far a reduced interval's lo may pass its hi before it counts as inverted.
INVERSION_SLACK = 1e-12
# Firings per block of points that eval_t2fis fires and reduces at once: 256
# points of the default rule base (2 ends x 2 outputs x 9 rules a point). The
# Karnik-Mendel loop holds one float per firing in each of its largest
# temporaries (72 KiB), below glibc malloc's 128 KiB mmap threshold, so no
# block is faulted in afresh. Traced peaks on numpy 2.4.6: 543 kB for a
# 1000-point call and 751 kB for the type-2 surface dump, under the tests'
# 768 KiB bound; 10240 firings take the dump past it.
KM_BLOCK = 9216


@dataclass(frozen=True)
class IntervalMF:
    """Interval-valued membership: scaled base below, widened base above."""

    lower: MembershipFunction
    upper: MembershipFunction
    lower_scale: float = 1.0


def _footprint_tables(imfs: Sequence[IntervalMF]) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of every lower set, then of every upper set (see
    fis1._breakpoints), and the (footprints, 1) column of lower scales."""
    bp = _breakpoints([f.lower for f in imfs] + [f.upper for f in imfs])
    return bp, np.array([[f.lower_scale] for f in imfs])


def _footprint_degrees(bp: np.ndarray, scale: np.ndarray, x: np.ndarray) -> np.ndarray:
    deg = _trap_degrees(bp, x).reshape(2, len(scale), -1)
    deg[0] *= scale
    # a support widened by less than an ulp can round the upper set below the lower
    np.maximum(deg[1], deg[0], out=deg[1])
    return deg


def make_fou(base: MembershipFunction, blur: float) -> IntervalMF:
    """Footprint of uncertainty: support widened by blur above, within
    [0, 1], height scaled by 1-blur below. blur=0 collapses to the base set."""
    if not 0.0 <= blur < 1.0:
        raise ValueError(f"blur must lie in [0, 1), got {blur}")
    pts = list(base.points)
    pts[0] = max(0.0, pts[0] - blur)
    pts[-1] = min(1.0, pts[-1] + blur)
    upper = MembershipFunction(base.kind, tuple(pts))
    return IntervalMF(base, upper, 1.0 - blur)


@dataclass(frozen=True)
class Rule2:
    """Antecedent pair plus consequent terms and their centroid weights."""

    distance: str
    energy: str
    radius: str
    chance: str
    w_radius: float
    w_chance: float


@dataclass(frozen=True)
class RuleBase2:
    distance_mfs: Mapping[str, IntervalMF]
    energy_mfs: Mapping[str, IntervalMF]
    rules: tuple[Rule2, ...]

    def __post_init__(self):
        pairs = {(r.distance, r.energy) for r in self.rules}
        if len(self.rules) != 9 or len(pairs) != 9:
            raise ValueError("rule2: rule table must cover all 9 antecedent pairs exactly once")
        for i, r in enumerate(self.rules, start=1):
            if r.distance not in self.distance_mfs:
                raise ValueError(f"rule2.{i}: distance has no term {r.distance!r}")
            if r.energy not in self.energy_mfs:
                raise ValueError(f"rule2.{i}: energy has no term {r.energy!r}")

    @cached_property
    def _plan(self) -> tuple[list, np.ndarray]:
        """The firing tables (see _firing_tables) and the (outputs, rules)
        consequent weights, built on the first evaluation."""
        return (
            _firing_tables(self.rules, self.distance_mfs, self.energy_mfs),
            np.array([[r.w_radius for r in self.rules], [r.w_chance for r in self.rules]]),
        )


def _firing_tables(
    rules: Sequence[Rule2],
    distance_mfs: Mapping[str, IntervalMF],
    energy_mfs: Mapping[str, IntervalMF],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per input (distance, energy): the footprint tables of the terms the
    rules use, each term once, and the index of each rule's term among them."""
    tables = []
    for mfs, names in (
        (distance_mfs, [r.distance for r in rules]),
        (energy_mfs, [r.energy for r in rules]),
    ):
        terms = list(dict.fromkeys(names))
        index = np.array([terms.index(t) for t in names])
        tables.append((*_footprint_tables([mfs[t] for t in terms]), index))
    return tables


def _fire(tables: list, db: np.ndarray, re: np.ndarray) -> np.ndarray:
    """Product t-norm of each rule's two antecedent membership intervals at
    1-D arrays of points db and re, from the rules' _firing_tables: a (2,
    rules, points) array of lower and upper firings. Each antecedent term is
    evaluated once, however many rules share it."""
    (d_bp, d_scale, di), (e_bp, e_scale, ei) = tables
    d = _footprint_degrees(d_bp, d_scale, db)
    e = _footprint_degrees(e_bp, e_scale, re)
    return d[:, di] * e[:, ei]


def _sum_rules(a: np.ndarray) -> np.ndarray:
    """Sums over axis 0 (the rules), added in rule order after a leading 0.0,
    exactly as Python's sum() adds a list; ndarray.sum can add pairwise and
    differ in the last bit."""
    total = a[0] + 0.0
    for row in a[1:]:
        total += row
    return total


def _km_rows(first: np.ndarray, second: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Karnik-Mendel endpoints of stacked rows: ``first`` and ``second`` are
    (rules, ...) firings in ascending weight order, rules below a row's split
    taking ``first`` and the rest ``second``; ``w`` broadcasts against them.
    A row is one end of one output at one point.

    Every row takes the iterations and breaks of the one-point loop: it stops
    when its split repeats or its denominator reaches zero, keeping its last
    ratio, or after rules + 1 iterations. Each pass selects one float per
    firing and makes two sums of it: the denominator, then, weighted in
    place, the numerator. Each sum adds the rules in order (_sum_rules), so
    every ratio keeps the one-point loop's bits. Rounding can make a row
    alternate between two splits (a ratio landing exactly on a weight). A
    split equal to the one of two iterations back (and not the last one)
    comes with the ratio of two iterations back, so the row repeats those two
    ratios to the end; it stops at once with the ratio of the loop's last
    iteration's parity, which is exact, not an approximation. Longer cycles
    keep iterating."""
    k_rules = len(w)
    rank = np.arange(k_rules).reshape((-1,) + (1,) * (first.ndim - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 0.5 * (first + second)
        y = _sum_rules(f * w) / _sum_rules(f)
        y_back = y  # the ratio of two iterations back
        last = back = np.full(y.shape, -1)
        active = np.ones(y.shape, dtype=bool)
        for it in range(k_rules + 1):
            # for ascending w, searchsorted(w, y, side="right"), NaN included
            split = np.minimum(np.maximum(k_rules - (w > y).sum(axis=0), 1), k_rules - 1)
            active &= split != last
            cycled = active & (split == back)
            if (k_rules - it) % 2 == 0:
                y = np.where(cycled, y_back, y)
            active &= ~cycled
            if not active.any():
                break
            back, last = last, split
            f = np.where(rank < split, first, second)
            den = _sum_rules(f)
            num = _sum_rules(np.multiply(f, w, out=f))
            active &= den > 0.0
            y_back, y = y, np.where(active, num / den, y)
    return y


def km_type_reduce(firings: np.ndarray, weights: np.typing.ArrayLike) -> np.ndarray:
    """Minimum and maximum of the weighted firing ratio over all per-rule
    choices inside the firing intervals (the switch-point iteration of Karnik
    and Mendel; see Wu and Mendel, IEEE TFS 17(4), 2009), per
    output and point: (2, rules, points) lower and upper firings and
    (outputs, rules) weights give a (2, outputs, points) array of low and
    high ends. Every point given is reduced at once; eval_t2fis gives one
    KM_BLOCK of firings at a time.

    A point is NaN at both ends where every upper firing is zero, or where
    rounding inverts its interval (subnormal firings can)."""
    fl, fu = firings
    ok = (0.0 <= fl) & (fl <= fu) & (fu <= 1.0)
    if not ok.all():
        k, i = np.argwhere(~ok)[0]
        raise ValueError(f"bad firing interval of rule {k} at point {i}: [{fl[k, i]}, {fu[k, i]}]")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != len(fl):
        raise ValueError(f"firings and weights must pair up: {len(fl)} rules, weights {w.shape}")
    n_out, k_rules = w.shape
    if not k_rules:
        raise ValueError("need at least one rule firing")
    order = np.argsort(w, axis=1, kind="stable")  # tied weights keep rule order
    w = w[np.arange(n_out)[:, None], order]
    n = firings.shape[2]
    if k_rules == 1:
        ends = np.broadcast_to(w, (2, n_out, n))
    else:
        # rows (lower end | upper end, output, point), stacked rule-major from
        # all lower firings, then all upper; lower ends take upper below the split
        pick = np.stack((order.T + k_rules, order.T), axis=1)  # (rules, ends, outputs)
        g = firings.reshape(2 * k_rules, n)
        ends = _km_rows(g.take(pick, axis=0), g.take(pick[:, ::-1], axis=0), w.T[:, None, :, None])
    lo, hi = ends
    dead = ~(fu.max(axis=0) > 0.0) | (lo > hi + INVERSION_SLACK)
    return np.where(dead, np.nan, ends)


# --- default vocabulary -----------------------------------------------------

T2_DISTANCE_TERMS = ("proximate", "moderate", "far")
T2_ENERGY_TERMS = ("low", "med", "adv")
T2_INPUT_TERMS = {"distance": T2_DISTANCE_TERMS, "energy": T2_ENERGY_TERMS}
T2_RADIUS_TERMS = ("very_small", "small", "medium_small", "medium", "large", "very_large")
T2_CHANCE_TERMS = ("very_weak", "weak", "medium", "higher_medium", "strong", "very_strong")

# 9 rules: (distance, energy) -> (radius, chance).
RULES_9: tuple[tuple[str, str, str, str], ...] = (
    ("proximate", "low", "very_small", "very_weak"),
    ("proximate", "med", "small", "weak"),
    ("proximate", "adv", "medium", "medium"),
    ("moderate", "low", "small", "weak"),
    ("moderate", "med", "medium_small", "medium"),
    ("moderate", "adv", "medium", "higher_medium"),
    ("far", "low", "medium_small", "strong"),
    ("far", "med", "large", "higher_medium"),
    ("far", "adv", "very_large", "strong"),
)


def output_weights(labels: Sequence[str]) -> dict[str, float]:
    """Centroid weight of each consequent term under the even partition."""
    return {label: mf_centroid(mf) for label, mf in even_terms(labels)}


def _weights(key: str, given: Sequence[float] | None, terms: tuple[str, ...]):
    """The weight of each consequent term, given in term order, each in
    [0, 1]; the centroids of the even partition when none are given."""
    if given is None:
        return output_weights(terms)
    if isinstance(given, (str, Mapping)):
        kind = type(given).__name__
        raise ValueError(f"{key}: expected a sequence of {len(terms)} weights in term order, got {kind}")
    if len(given) != len(terms):
        raise ValueError(f"{key}: expected {len(terms)} weights, got {len(given)}")
    for t, w in zip(terms, given):
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"{key}: weight {w} of {t!r} outside [0, 1]")
    return dict(zip(terms, given))


def default_rulebase2(
    blur: float = DEFAULT_BLUR,
    blur_overrides: Mapping[str, float] | None = None,
    mf_overrides: MfOverrides | None = None,
    w_radius: Sequence[float] | None = None,
    w_chance: Sequence[float] | None = None,
    rules: Sequence[tuple[str, str, str, str]] | None = None,
) -> RuleBase2:
    """The stock two-input election rule base with configurable footprints.
    A bad footprint width, membership override, weight or rule raises a
    ValueError that starts with its config key: ``blur``,
    ``blur.<variable>``, ``mf2.<variable>[.<term>]``, ``w.radius``,
    ``w.chance``, ``rule2`` or ``rule2.<i>``. The weights run in
    T2_RADIUS_TERMS and T2_CHANCE_TERMS order."""
    blurs = dict(blur_overrides or {})
    if not 0.0 <= blur < 1.0:
        raise ValueError(f"blur: must lie in [0, 1), got {blur}")
    for var, b in blurs.items():
        if var not in T2_INPUT_TERMS:
            raise ValueError(f"blur.{var}: unknown variable {var!r}")
        if not 0.0 <= b < 1.0:
            raise ValueError(f"blur.{var}: must lie in [0, 1), got {b}")
    distance, energy = apply_overrides(
        {name: three_level_terms(labels) for name, labels in T2_INPUT_TERMS.items()},
        mf_overrides,
        "mf2",
    )
    distance_mfs, energy_mfs = (
        {t: make_fou(mf, blurs.get(var.name, blur)) for t, mf in var.terms}
        for var in (distance, energy)
    )

    wr = _weights("w.radius", w_radius, T2_RADIUS_TERMS)
    wc = _weights("w.chance", w_chance, T2_CHANCE_TERMS)
    rule_objs = []
    for i, row in enumerate(RULES_9 if rules is None else rules, start=1):
        if len(row) != 4:
            raise ValueError(f"rule2.{i}: expected 4 terms, got {len(row)}")
        d, e, rad, ch = row
        if rad not in wr:
            raise ValueError(f"rule2.{i}: radius has no term {rad!r}")
        if ch not in wc:
            raise ValueError(f"rule2.{i}: chance has no term {ch!r}")
        rule_objs.append(Rule2(d, e, rad, ch, wr[rad], wc[ch]))
    return RuleBase2(distance_mfs, energy_mfs, tuple(rule_objs))


def eval_t2fis(
    rb: RuleBase2, db: np.typing.ArrayLike, re: np.typing.ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Crisp (radius_norm, chance) from normalized BS distance and residual
    energy, at equal-length arrays of points (a float, or any one-point input,
    is broadcast).

    NaN in both outputs marks a degenerate point: every rule fired at zero,
    or either reduced interval came out inverted. The points are fired and
    reduced KM_BLOCK firings at a time, so only the inputs and outputs grow
    with a call."""
    x = input_rows({"db": db, "re": re})
    tables, weights = rb._plan
    step = max(1, KM_BLOCK // (2 * weights.size))  # two ends per output and rule
    out = np.empty((len(weights), x.shape[1]))
    for s in range(0, x.shape[1], step):
        lo, hi = km_type_reduce(_fire(tables, x[0, s : s + step], x[1, s : s + step]), weights)
        out[:, s : s + step] = 0.5 * (lo + hi)
    out[:, np.isnan(out).any(axis=0)] = np.nan  # NaN in one output is NaN in both
    return out[0], out[1]
