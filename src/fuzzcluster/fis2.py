"""Interval type-2 engine for the energy-aware cluster-head election.

Footprints of uncertainty are built by widening a base set's support (upper
bound) and scaling its height (lower bound). Rules fire as products of the
interval memberships; the Karnik-Mendel switch-point iteration reduces the
rule firings to an interval whose midpoint is the crisp output.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fis1 import (
    LinguisticVariable,
    MembershipFunction,
    MfOverrides,
    apply_overrides,
    even_terms,
    mf_centroid,
    mf_degrees,
    three_level_terms,
)

DEFAULT_BLUR = 0.2
# How far a reduced interval's lo may pass its hi before it counts as inverted.
INVERSION_SLACK = 1e-12


@dataclass(frozen=True)
class IntervalMF:
    """Interval-valued membership: scaled base below, widened base above."""

    lower: MembershipFunction
    upper: MembershipFunction
    lower_scale: float = 1.0

    def interval(self, x: np.typing.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) membership at each point of x (a float is one point)."""
        lower, upper = interval_degrees((self,), np.atleast_1d(np.asarray(x, dtype=float)))
        return lower[0], upper[0]


def interval_degrees(
    imfs: Sequence[IntervalMF], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper membership of each point of the 1-D array x in each
    footprint: two (footprints, points) arrays from one membership evaluation."""
    deg = mf_degrees([f.lower for f in imfs] + [f.upper for f in imfs], x)
    scale = np.array([[f.lower_scale] for f in imfs])
    return scale * deg[: len(imfs)], deg[len(imfs) :]


def make_fou(
    base: MembershipFunction, blur: float, domain: tuple[float, float] = (0.0, 1.0)
) -> IntervalMF:
    """Footprint of uncertainty: support widened by blur*width above, height
    scaled by 1-blur below. blur=0 collapses to the base set."""
    if not 0.0 <= blur < 1.0:
        raise ValueError(f"blur must lie in [0, 1), got {blur}")
    if blur == 0.0:
        return IntervalMF(base, base, 1.0)
    lo, hi = domain
    pad = blur * (hi - lo)
    pts = list(base.points)
    pts[0] = max(lo, pts[0] - pad)
    pts[-1] = min(hi, pts[-1] + pad)
    upper = MembershipFunction(base.kind, tuple(pts))
    return IntervalMF(base, upper, 1.0 - blur)


@dataclass(frozen=True)
class FiringInterval:
    """Firing bounds of every rule at every point, as (points, rules) arrays."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if not np.all((0.0 <= self.lower) & (self.lower <= self.upper) & (self.upper <= 1.0)):
            raise ValueError(f"bad firing interval [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class ReducedInterval:
    """Type-reduced output interval, one entry per point; the crisp output is
    its midpoint."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if np.any(self.lo > self.hi + INVERSION_SLACK):
            raise ValueError(f"reduced interval inverted: [{self.lo}, {self.hi}]")

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)


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
    distance_base: LinguisticVariable
    energy_base: LinguisticVariable
    distance_mfs: Mapping[str, IntervalMF]
    energy_mfs: Mapping[str, IntervalMF]
    rules: tuple[Rule2, ...]

    def __post_init__(self):
        pairs = {(r.distance, r.energy) for r in self.rules}
        if len(self.rules) != 9 or len(pairs) != 9:
            raise ValueError("rule table must cover all 9 antecedent pairs exactly once")
        for r in self.rules:
            if r.distance not in self.distance_mfs or r.energy not in self.energy_mfs:
                raise ValueError(f"rule {r} references an unknown antecedent term")


def firing_intervals(
    rules: Sequence[Rule2],
    db: np.ndarray,
    re: np.ndarray,
    distance_mfs: Mapping[str, IntervalMF],
    energy_mfs: Mapping[str, IntervalMF],
) -> FiringInterval:
    """Product t-norm of each rule's two antecedent membership intervals, as
    (points, rules) arrays for 1-D arrays of points db and re. Each antecedent
    term is evaluated once, however many rules share it."""
    d_terms = list(dict.fromkeys(r.distance for r in rules))
    e_terms = list(dict.fromkeys(r.energy for r in rules))
    dl, du = interval_degrees([distance_mfs[t] for t in d_terms], db)
    el, eu = interval_degrees([energy_mfs[t] for t in e_terms], re)
    di = [d_terms.index(r.distance) for r in rules]
    ei = [e_terms.index(r.energy) for r in rules]
    return FiringInterval((dl[di] * el[ei]).T, (du[di] * eu[ei]).T)


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Row sums added left to right with a leading 0.0, exactly as Python's
    sum() adds a list; ndarray.sum adds pairwise and can differ in the last
    bit. add.accumulate is sequential, and adding 0.0 last gives sum()'s
    sign of an all-zero total."""
    return np.add.accumulate(a, axis=1)[:, -1] + 0.0


def _km_endpoint(fl: np.ndarray, fu: np.ndarray, w: np.ndarray, left: bool) -> np.ndarray:
    """One Karnik-Mendel endpoint per row of (points, rules) firing bounds,
    weights sorted ascending. Every row takes the iterations and breaks of the
    one-point loop: a row stops when its switch point repeats or its
    denominator reaches zero, and keeps its last ratio."""
    k_rules = len(w)
    f = 0.5 * (fl + fu)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = _sum_rows(f * w) / _sum_rows(f)
        prev_split = np.full(len(y), -1)
        active = np.ones(len(y), dtype=bool)
        below = np.arange(k_rules)
        for _ in range(k_rules + 1):
            split = np.minimum(np.maximum(np.searchsorted(w, y, side="right"), 1), k_rules - 1)
            active &= split != prev_split
            if not active.any():
                break
            prev_split = split
            first = below < split[:, None]
            f = np.where(first, fu, fl) if left else np.where(first, fl, fu)
            den = _sum_rows(f)
            active &= den > 0.0
            y = np.where(active, _sum_rows(f * w) / den, y)
    return y


def km_type_reduce(firings: FiringInterval, weights: Sequence[float]) -> ReducedInterval:
    """Minimum and maximum of the weighted firing ratio over all per-rule
    choices inside the firing intervals (iterative switch-point search), per
    point of (points, rules) firings.

    A point is NaN at both ends where every upper firing is zero, or where
    rounding inverts its interval (subnormal firings can)."""
    fl, fu = firings.lower, firings.upper
    if fl.shape[1] != len(weights):
        raise ValueError("firings and weights must pair up")
    if not len(weights):
        raise ValueError("need at least one rule firing")
    w = np.asarray(weights, dtype=float)
    order = np.argsort(w, kind="stable")  # tied weights keep rule order
    w, fl, fu = w[order], fl[:, order], fu[:, order]
    if len(w) == 1:
        lo = hi = np.full(len(fl), w[0])
    else:
        lo = _km_endpoint(fl, fu, w, left=True)
        hi = _km_endpoint(fl, fu, w, left=False)
    dead = ~(fu.max(axis=1) > 0.0) | (lo > hi + INVERSION_SLACK)
    return ReducedInterval(np.where(dead, np.nan, lo), np.where(dead, np.nan, hi))


# --- default vocabulary -----------------------------------------------------

T2_DISTANCE_TERMS = ("proximate", "moderate", "far")
T2_ENERGY_TERMS = ("low", "med", "adv")
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


def default_rulebase2(
    blur: float = DEFAULT_BLUR,
    blur_overrides: Mapping[str, float] | None = None,
    mf_overrides: MfOverrides | None = None,
    w_radius: Mapping[str, float] | None = None,
    w_chance: Mapping[str, float] | None = None,
    rules: Sequence[tuple[str, str, str, str]] | None = None,
) -> RuleBase2:
    """The stock two-input election rule base with configurable footprints."""
    blurs = dict(blur_overrides or {})

    def build_var(name: str, labels: tuple[str, ...]):
        var = apply_overrides(name, three_level_terms(labels), mf_overrides)
        b = blurs.get(name, blur)
        imfs = {t: make_fou(mf, b, var.domain) for t, mf in var.terms}
        return var, imfs

    distance, distance_mfs = build_var("distance", T2_DISTANCE_TERMS)
    energy, energy_mfs = build_var("energy", T2_ENERGY_TERMS)

    wr = dict(w_radius) if w_radius is not None else output_weights(T2_RADIUS_TERMS)
    wc = dict(w_chance) if w_chance is not None else output_weights(T2_CHANCE_TERMS)
    table = tuple(rules) if rules is not None else RULES_9
    rule_objs = []
    for d, e, rad, ch in table:
        if rad not in wr:
            raise ValueError(f"unknown radius consequent {rad!r}")
        if ch not in wc:
            raise ValueError(f"unknown chance consequent {ch!r}")
        rule_objs.append(Rule2(d, e, rad, ch, wr[rad], wc[ch]))
    return RuleBase2(distance, energy, distance_mfs, energy_mfs, tuple(rule_objs))


def eval_t2fis(
    rb: RuleBase2, db: np.typing.ArrayLike, re: np.typing.ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Crisp (radius_norm, chance) from normalized BS distance and residual
    energy, at equal-length arrays of points (a float, or any one-point input,
    is broadcast).

    NaN in both outputs marks a degenerate point: every rule fired at zero,
    or either reduced interval came out inverted."""
    cols = []
    for name, x in (("db", db), ("re", re)):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        bad = ~((x >= 0.0) & (x <= 1.0))
        if bad.any():
            raise ValueError(f"{name}={x[bad][0]} outside [0, 1]")
        cols.append(x)
    db_rows, re_rows = np.broadcast_arrays(*cols)
    firings = firing_intervals(rb.rules, db_rows, re_rows, rb.distance_mfs, rb.energy_mfs)
    radius = km_type_reduce(firings, [r.w_radius for r in rb.rules]).midpoint
    chance = km_type_reduce(firings, [r.w_chance for r in rb.rules]).midpoint
    dead = np.isnan(radius) | np.isnan(chance)
    radius[dead] = np.nan
    chance[dead] = np.nan
    return radius, chance
