"""Type-1 Mamdani inference for the unequal-clustering protocol.

Piecewise-linear (triangular / trapezoidal) membership functions, linguistic
variables over normalized [0, 1] domains, the 27-rule radius/chance rule base,
min-AND / clip / max-aggregate inference and center-of-area defuzzification
over a midpoint-sampled domain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

DEFAULT_SAMPLES = 1001


class DegenerateOutputError(ValueError):
    """No output mass: every rule fired at zero, nothing to defuzzify."""


@dataclass(frozen=True)
class MembershipFunction:
    """Triangular ("tri", 3 breakpoints) or trapezoidal ("trap", 4) set."""

    kind: str
    points: tuple[float, ...]

    def __post_init__(self):
        want = {"tri": 3, "trap": 4}.get(self.kind)
        if want is None:
            raise ValueError(f"unknown membership kind {self.kind!r}")
        if len(self.points) != want:
            raise ValueError(f"{self.kind} takes {want} breakpoints, got {len(self.points)}")
        if any(b < a for a, b in zip(self.points, self.points[1:])):
            raise ValueError(f"breakpoints must be nondecreasing: {self.points}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.points[0], self.points[-1])

    def __call__(self, x: float) -> float:
        return mf_eval(self, x)


def triangular(a: float, b: float, c: float) -> MembershipFunction:
    return MembershipFunction("tri", (float(a), float(b), float(c)))


def trapezoidal(a: float, b: float, c: float, d: float) -> MembershipFunction:
    return MembershipFunction("trap", (float(a), float(b), float(c), float(d)))


def mf_eval(mf: MembershipFunction, x: float) -> float:
    """Membership degree at x; exact at breakpoints, zero outside the support."""
    if mf.kind == "tri":
        a, b, c = mf.points
        if x < a or x > c:
            return 0.0
        if x == b:
            return 1.0
        if x < b:
            return (x - a) / (b - a)
        return (c - x) / (c - b)
    a, b, c, d = mf.points
    if x < a or x > d:
        return 0.0
    if b <= x <= c:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


def _vertices(mf: MembershipFunction) -> tuple[list[float], list[float]]:
    """Breakpoint/height pairs with zero-width edges collapsed (shoulder terms)."""
    heights = (0.0, 1.0, 0.0) if mf.kind == "tri" else (0.0, 1.0, 1.0, 0.0)
    xp: list[float] = []
    fp: list[float] = []
    for x, h in zip(mf.points, heights):
        if xp and x == xp[-1]:
            fp[-1] = max(fp[-1], h)
        else:
            xp.append(x)
            fp.append(h)
    return xp, fp


def mf_sample(mf: MembershipFunction, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on a grid."""
    xp, fp = _vertices(mf)
    if len(xp) == 1:
        return np.where(xs == xp[0], 1.0, 0.0)
    return np.interp(xs, xp, fp, left=0.0, right=0.0)


def mf_centroid(mf: MembershipFunction) -> float:
    """Exact centroid of the unit-height set (per-segment closed form)."""
    xp, fp = _vertices(mf)
    area = 0.0
    moment = 0.0
    for (x0, h0), (x1, h1) in zip(zip(xp, fp), zip(xp[1:], fp[1:])):
        dx = x1 - x0
        area += 0.5 * (h0 + h1) * dx
        moment += dx * (x0 * (2.0 * h0 + h1) + x1 * (h0 + 2.0 * h1)) / 6.0
    if area <= 0.0:
        raise DegenerateOutputError("membership function has zero area")
    return moment / area


@dataclass(frozen=True)
class LinguisticVariable:
    """Named variable over a closed domain with an ordered term vocabulary."""

    name: str
    domain: tuple[float, float]
    terms: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self):
        lo, hi = self.domain
        if not hi > lo:
            raise ValueError(f"{self.name}: empty domain {self.domain}")
        names = [t for t, _ in self.terms]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: duplicate term names")
        for t, mf in self.terms:
            s0, s1 = mf.support
            if s0 < lo or s1 > hi:
                raise ValueError(f"{self.name}: term {t!r} support {mf.support} leaves domain")
        xs = np.linspace(lo, hi, 201)
        cover = np.zeros_like(xs)
        for _, mf in self.terms:
            cover = np.maximum(cover, mf_sample(mf, xs))
        if not np.all(cover > 0.0):
            hole = float(xs[int(np.argmin(cover))])
            raise ValueError(f"{self.name}: no term covers x={hole:g}")

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.terms)

    def term(self, name: str) -> MembershipFunction:
        for t, mf in self.terms:
            if t == name:
                return mf
        raise KeyError(f"{self.name} has no term {name!r}")

    def degrees(self, x: float) -> dict[str, float]:
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise ValueError(f"{self.name}: input {x} outside domain [{lo}, {hi}]")
        return {t: mf_eval(mf, x) for t, mf in self.terms}

    def peak(self, name: str) -> float:
        """Representative point of a term: triangle apex or plateau midpoint."""
        mf = self.term(name)
        if mf.kind == "tri":
            return mf.points[1]
        return 0.5 * (mf.points[1] + mf.points[2])


@dataclass(frozen=True)
class Rule1:
    """One antecedent term per input variable, one consequent per output (positional)."""

    antecedents: tuple[str, ...]
    consequents: tuple[str, ...]


@dataclass(eq=False)
class RuleBase1:
    inputs: tuple[LinguisticVariable, ...]
    outputs: tuple[LinguisticVariable, ...]
    rules: tuple[Rule1, ...]
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for rule in self.rules:
            if len(rule.antecedents) != len(self.inputs):
                raise ValueError(f"rule {rule} arity != {len(self.inputs)} inputs")
            if len(rule.consequents) != len(self.outputs):
                raise ValueError(f"rule {rule} arity != {len(self.outputs)} outputs")
            for var, term in zip(self.inputs, rule.antecedents):
                var.term(term)
            for var, term in zip(self.outputs, rule.consequents):
                var.term(term)

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.inputs)

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.outputs)

    def _antecedent_indices(self) -> list[np.ndarray]:
        """Per input variable, the term index each rule's antecedent refers to."""
        hit = self._cache.get("ante")
        if hit is None:
            hit = []
            for pos, var in enumerate(self.inputs):
                names = list(var.term_names)
                hit.append(np.array([names.index(r.antecedents[pos]) for r in self.rules]))
            self._cache["ante"] = hit
        return hit

    def _output_samples(self, out_idx: int, samples: int):
        """Sample grid, per-term sample matrix and per-rule consequent indices."""
        key = (out_idx, samples)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        var = self.outputs[out_idx]
        lo, hi = var.domain
        xs = lo + (np.arange(samples) + 0.5) * (hi - lo) / samples
        mat = np.stack([mf_sample(mf, xs) for _, mf in var.terms])
        names = list(var.term_names)
        idx = np.array([names.index(r.consequents[out_idx]) for r in self.rules])
        self._cache[key] = (xs, mat, idx)
        return xs, mat, idx


@dataclass(frozen=True, eq=False)
class AggregatedFuzzySet:
    """Mamdani output before defuzzification, sampled at cell midpoints."""

    lo: float
    hi: float
    mu: np.ndarray
    xs: np.ndarray | None = None

    def __post_init__(self):
        if self.mu.ndim != 1 or len(self.mu) < 1:
            raise ValueError("need a 1-D sample vector")
        if float(self.mu.min()) < 0.0 or float(self.mu.max()) > 1.0:
            raise ValueError("samples must lie in [0, 1]")
        if self.xs is None:
            n = len(self.mu)
            grid = self.lo + (np.arange(n) + 0.5) * (self.hi - self.lo) / n
            object.__setattr__(self, "xs", grid)
        elif len(self.xs) != len(self.mu):
            raise ValueError("sample grid and membership vector disagree in length")


def infer_mamdani(
    rb: RuleBase1, inputs: Mapping[str, float], samples: int = DEFAULT_SAMPLES
) -> dict[str, AggregatedFuzzySet]:
    """Min-AND firing, clip implication, pointwise-max aggregation per output."""
    degrees = []
    for var in rb.inputs:
        if var.name not in inputs:
            raise ValueError(f"missing input variable {var.name!r}")
        x = inputs[var.name]
        lo, hi = var.domain
        if not lo <= x <= hi:
            raise ValueError(f"{var.name}: input {x} outside domain [{lo}, {hi}]")
        degrees.append(np.array([mf_eval(mf, x) for _, mf in var.terms]))
    ante_idx = rb._antecedent_indices()
    firing = degrees[0][ante_idx[0]]
    for deg, idx in zip(degrees[1:], ante_idx[1:]):
        firing = np.minimum(firing, deg[idx])
    out = {}
    for j, var in enumerate(rb.outputs):
        xs, mat, idx = rb._output_samples(j, samples)
        # max over rules of min(f_r, term(x)) == max over terms of
        # min(max f over the term's rules, term(x)); far fewer rows
        term_fire = np.zeros(len(var.terms))
        np.maximum.at(term_fire, idx, firing)
        agg = np.minimum(term_fire[:, None], mat).max(axis=0)
        out[var.name] = AggregatedFuzzySet(var.domain[0], var.domain[1], agg, xs)
    return out


def defuzz_coa(fset: AggregatedFuzzySet) -> float:
    """Center of area by the midpoint rule over the sampled curve."""
    total = float(fset.mu.sum())
    if total <= 0.0:
        raise DegenerateOutputError("aggregated set has zero area")
    return float((fset.mu * fset.xs).sum() / total)


def eval_fis1(
    rb: RuleBase1, inputs: Mapping[str, float], samples: int = DEFAULT_SAMPLES
) -> dict[str, float]:
    """Fuzzify, infer and defuzzify every output variable."""
    return {name: defuzz_coa(fset) for name, fset in infer_mamdani(rb, inputs, samples).items()}


# --- default vocabulary -----------------------------------------------------

DISTANCE_TERMS = ("close", "far", "farthest")
ENERGY_TERMS = ("less", "avg", "high")
CONCENTRATION_TERMS = ("low", "med", "high")
RADIUS_TERMS = (
    "very_small",
    "small",
    "rather_small",
    "medium_small",
    "medium",
    "medium_large",
    "rather_large",
    "large",
    "very_large",
)
CHANCE_TERMS = ("very_poor", "poor", "below_avg", "avg", "above_avg", "strong", "very_strong")


def three_level_terms(labels: Sequence[str]) -> tuple[tuple[str, MembershipFunction], ...]:
    """Shoulder / triangle / shoulder partition of [0, 1] for 3-term inputs."""
    if len(labels) != 3:
        raise ValueError("exactly three labels expected")
    return (
        (labels[0], trapezoidal(0.0, 0.0, 0.2, 0.4)),
        (labels[1], triangular(0.2, 0.5, 0.8)),
        (labels[2], trapezoidal(0.6, 0.8, 1.0, 1.0)),
    )


def even_terms(labels: Sequence[str]) -> tuple[tuple[str, MembershipFunction], ...]:
    """Evenly spaced triangles over [0, 1] with trapezoidal shoulder terms."""
    n = len(labels)
    if n < 2:
        raise ValueError("need at least two labels")
    s = 1.0 / (n - 1)
    terms: list[tuple[str, MembershipFunction]] = [(labels[0], trapezoidal(0.0, 0.0, s / 2, s))]
    for i in range(1, n - 1):
        c = i * s
        terms.append((labels[i], triangular(c - s, c, c + s)))
    terms.append((labels[-1], trapezoidal(1.0 - s, 1.0 - s / 2, 1.0, 1.0)))
    return tuple(terms)


# 27 rules: (distance, energy, concentration) -> (radius, chance).
RULES_27: tuple[tuple[str, str, str, str, str], ...] = (
    ("close", "less", "high", "very_small", "very_poor"),
    ("close", "less", "med", "small", "poor"),
    ("close", "less", "low", "rather_small", "below_avg"),
    ("close", "avg", "high", "small", "avg"),
    ("close", "avg", "med", "rather_small", "below_avg"),
    ("close", "avg", "low", "medium_small", "poor"),
    ("close", "high", "high", "rather_small", "very_strong"),
    ("close", "high", "med", "small", "strong"),
    ("close", "high", "low", "medium_small", "above_avg"),
    ("far", "less", "high", "medium_small", "avg"),
    ("far", "less", "med", "rather_small", "below_avg"),
    ("far", "less", "low", "small", "poor"),
    ("far", "avg", "high", "medium_large", "below_avg"),
    ("far", "avg", "med", "medium", "avg"),
    ("far", "avg", "low", "medium_small", "below_avg"),
    ("far", "high", "high", "medium_large", "strong"),
    ("far", "high", "med", "medium", "above_avg"),
    ("far", "high", "low", "medium_small", "avg"),
    ("farthest", "less", "high", "large", "poor"),
    ("farthest", "less", "med", "medium_large", "very_poor"),
    ("farthest", "less", "low", "medium", "below_avg"),
    ("farthest", "avg", "high", "rather_large", "avg"),
    ("farthest", "avg", "med", "large", "below_avg"),
    ("farthest", "avg", "low", "medium_large", "above_avg"),
    ("farthest", "high", "high", "large", "very_strong"),
    ("farthest", "high", "med", "rather_large", "strong"),
    ("farthest", "high", "low", "very_large", "above_avg"),
)

MfOverrides = Mapping[str, Mapping[str, MembershipFunction]]


def apply_overrides(
    name: str,
    terms: tuple[tuple[str, MembershipFunction], ...],
    overrides: MfOverrides | None,
) -> LinguisticVariable:
    """A [0, 1] variable over the stock terms, with any per-term membership
    overrides given for this variable name swapped in."""
    if overrides and name in overrides:
        per_term = dict(overrides[name])
        known = {t for t, _ in terms}
        for t in per_term:
            if t not in known:
                raise ValueError(f"{name}: unknown term {t!r} in membership override")
        terms = tuple((t, per_term.get(t, mf)) for t, mf in terms)
    return LinguisticVariable(name, (0.0, 1.0), terms)


def default_rulebase1(
    mf_overrides: MfOverrides | None = None,
    rules: Sequence[tuple[str, str, str, str, str]] | None = None,
) -> RuleBase1:
    """The stock radius/chance rule base; breakpoints and rules are overridable."""
    distance = apply_overrides("distance", three_level_terms(DISTANCE_TERMS), mf_overrides)
    energy = apply_overrides("energy", three_level_terms(ENERGY_TERMS), mf_overrides)
    conc = apply_overrides("concentration", three_level_terms(CONCENTRATION_TERMS), mf_overrides)
    radius = apply_overrides("radius", even_terms(RADIUS_TERMS), mf_overrides)
    chance = apply_overrides("chance", even_terms(CHANCE_TERMS), mf_overrides)

    table = tuple(rules) if rules is not None else RULES_27
    combos = {(d, e, c) for d, e, c, _, _ in table}
    if len(table) != 27 or len(combos) != 27:
        raise ValueError("rule table must cover all 27 antecedent combinations exactly once")
    rule_objs = tuple(Rule1((d, e, c), (rad, ch)) for d, e, c, rad, ch in table)
    return RuleBase1((distance, energy, conc), (radius, chance), rule_objs)
