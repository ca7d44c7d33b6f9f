"""Interval type-2 engine for the energy-aware cluster-head election.

Footprints of uncertainty are built by widening a base set's support (upper
bound) and scaling its height (lower bound). Rules fire as products of the
interval memberships; the Karnik-Mendel switch-point iteration reduces the
rule firings to an interval whose midpoint is the crisp output.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from .fis1 import (
    DegenerateOutputError,
    LinguisticVariable,
    MembershipFunction,
    MfOverrides,
    apply_overrides,
    even_terms,
    mf_centroid,
    mf_eval,
    three_level_terms,
)

DEFAULT_BLUR = 0.2


@dataclass(frozen=True)
class IntervalMF:
    """Interval-valued membership: scaled base below, widened base above."""

    lower: MembershipFunction
    upper: MembershipFunction
    lower_scale: float = 1.0

    def interval(self, x: float) -> tuple[float, float]:
        return (self.lower_scale * mf_eval(self.lower, x), mf_eval(self.upper, x))


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
    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(f"bad firing interval [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class ReducedInterval:
    """Type-reduced output interval; the crisp output is its midpoint."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi + 1e-12:
            raise ValueError(f"reduced interval inverted: [{self.lo}, {self.hi}]")

    @property
    def midpoint(self) -> float:
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


def firing_interval(
    rule: Rule2,
    db: float,
    re: float,
    distance_mfs: Mapping[str, IntervalMF],
    energy_mfs: Mapping[str, IntervalMF],
) -> FiringInterval:
    """Product t-norm of the two antecedent membership intervals."""
    dl, du = distance_mfs[rule.distance].interval(db)
    el, eu = energy_mfs[rule.energy].interval(re)
    return FiringInterval(dl * el, du * eu)


def _km_endpoint(fl: list[float], fu: list[float], w: list[float], left: bool) -> float:
    """One Karnik-Mendel endpoint; weights already sorted ascending."""
    k_rules = len(w)
    f = [0.5 * (a + b) for a, b in zip(fl, fu)]
    y = sum(fi * wi for fi, wi in zip(f, w)) / sum(f)
    prev_split = -1
    for _ in range(k_rules + 1):
        split = min(max(bisect_right(w, y), 1), k_rules - 1)
        if split == prev_split:
            break
        prev_split = split
        if left:
            f = fu[:split] + fl[split:]
        else:
            f = fl[:split] + fu[split:]
        den = sum(f)
        if den <= 0.0:
            break
        y = sum(fi * wi for fi, wi in zip(f, w)) / den
    return y


def km_type_reduce(
    firings: Sequence[FiringInterval], weights: Sequence[float]
) -> ReducedInterval:
    """Minimum and maximum of the weighted firing ratio over all per-rule
    choices inside the firing intervals (iterative switch-point search)."""
    if len(firings) != len(weights):
        raise ValueError("firings and weights must pair up")
    if not firings:
        raise ValueError("need at least one rule firing")
    order = sorted(range(len(weights)), key=lambda i: weights[i])
    fl = [firings[i].lower for i in order]
    fu = [firings[i].upper for i in order]
    w = [float(weights[i]) for i in order]
    if max(fu) <= 0.0:
        raise DegenerateOutputError("all rule firings are zero")
    if len(w) == 1:
        return ReducedInterval(w[0], w[0])
    lo = _km_endpoint(fl, fu, w, left=True)
    hi = _km_endpoint(fl, fu, w, left=False)
    return ReducedInterval(lo, hi)


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


def eval_t2fis(rb: RuleBase2, db: float, re: float) -> tuple[float, float]:
    """Crisp (radius_norm, chance) from normalized BS distance and residual energy."""
    for name, x in (("db", db), ("re", re)):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"{name}={x} outside [0, 1]")
    firings = [firing_interval(r, db, re, rb.distance_mfs, rb.energy_mfs) for r in rb.rules]
    radius = km_type_reduce(firings, [r.w_radius for r in rb.rules]).midpoint
    chance = km_type_reduce(firings, [r.w_chance for r in rb.rules]).midpoint
    return radius, chance
