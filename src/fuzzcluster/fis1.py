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
# Points per inference block in eval_fis1: a block holds ROW_CHUNK x samples
# floats per output (125 KiB at 1001 samples) however many points are asked
# for. Three such blocks are alive at the peak; at 32 points they raised the
# peak resident size of a surface dump by about 1 MB (3%).
ROW_CHUNK = 16


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


def mf_degrees(mfs: Sequence[MembershipFunction], x: np.ndarray) -> np.ndarray:
    """Membership of each point of the 1-D array x in each set, as a
    (sets, points) array; exact at breakpoints, zero outside the support.

    A triangle (a, b, c) is evaluated as the trapezoid (a, b, b, c), which is
    the same formula step for step. The formula runs under np.where, not
    np.interp, whose interpolation rounds differently; zero-width edges divide
    by zero (or overflow) only in branches that np.where discards."""
    pts = [mf.points if mf.kind == "trap" else (*mf.points[:2], *mf.points[1:]) for mf in mfs]
    a, b, c, d = np.array(pts).T[:, :, None]
    with np.errstate(all="ignore"):
        y = np.where(x < b, (x - a) / (b - a), (d - x) / (d - c))
        y = np.where((b <= x) & (x <= c), 1.0, y)
        return np.where((x < a) | (x > d), 0.0, y)


def mf_eval(mf: MembershipFunction, x: float | np.ndarray) -> float | np.ndarray:
    """Membership degree at x, a float or a 1-D array of points (then an array)."""
    y = mf_degrees((mf,), np.atleast_1d(np.asarray(x, dtype=float)))[0]
    return float(y[0]) if np.ndim(x) == 0 else y


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
        """Sample grid, per-term sample matrix, per-rule consequent indices and
        per-term [start, stop) span of the samples where the term is nonzero."""
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
        nonzero = [np.flatnonzero(row) for row in mat]
        spans = [(int(nz[0]), int(nz[-1]) + 1) if len(nz) else (0, 0) for nz in nonzero]
        self._cache[key] = (xs, mat, idx, spans)
        return xs, mat, idx, spans


@dataclass(frozen=True, eq=False)
class AggregatedFuzzySet:
    """Mamdani output before defuzzification, sampled at cell midpoints: one
    sample vector, or one row of samples per input point."""

    lo: float
    hi: float
    mu: np.ndarray
    xs: np.ndarray | None = None

    def __post_init__(self):
        if self.mu.ndim not in (1, 2) or self.mu.shape[-1] < 1:
            raise ValueError("need a sample vector or one row of samples per point")
        if float(self.mu.min()) < 0.0 or float(self.mu.max()) > 1.0:
            raise ValueError("samples must lie in [0, 1]")
        n = self.mu.shape[-1]
        if self.xs is None:
            grid = self.lo + (np.arange(n) + 0.5) * (self.hi - self.lo) / n
            object.__setattr__(self, "xs", grid)
        elif len(self.xs) != n:
            raise ValueError("sample grid and membership vector disagree in length")


def infer_mamdani(
    rb: RuleBase1, inputs: Mapping[str, float | np.ndarray], samples: int = DEFAULT_SAMPLES
) -> dict[str, AggregatedFuzzySet]:
    """Min-AND firing, clip implication, pointwise-max aggregation per output.

    Inputs are floats, or equal-length arrays of m points; each output set then
    holds an (m, samples) block, so callers with many points pass them in
    chunks (eval_fis1 does)."""
    cols = []
    for var in rb.inputs:
        if var.name not in inputs:
            raise ValueError(f"missing input variable {var.name!r}")
        x = np.asarray(inputs[var.name], dtype=float)
        lo, hi = var.domain
        bad = ~((x >= lo) & (x <= hi))
        if bad.any():
            raise ValueError(f"{var.name}: input {x[bad][0]} outside domain [{lo}, {hi}]")
        cols.append(x)
    scalar = all(x.ndim == 0 for x in cols)
    # term-major throughout: degrees (terms, m), firing (rules, m)
    degrees = [
        mf_degrees([mf for _, mf in var.terms], np.atleast_1d(x)) for var, x in zip(rb.inputs, cols)
    ]
    ante_idx = rb._antecedent_indices()
    firing = degrees[0][ante_idx[0]]
    for deg, idx in zip(degrees[1:], ante_idx[1:]):
        firing = np.minimum(firing, deg[idx])
    out = {}
    for j, var in enumerate(rb.outputs):
        xs, mat, idx, spans = rb._output_samples(j, samples)
        # max over rules of min(f_r, term(x)) == max over terms of
        # min(max f over the term's rules, term(x)), one block per fired term
        # over the samples where the term is nonzero, never an (m, terms,
        # samples) tensor. Outside that span the clip is zero, so skipping it
        # changes at most the sign of a zero sample, which moves no
        # center-of-area bit.
        term_fire = np.zeros((len(var.terms), firing.shape[1]))
        np.maximum.at(term_fire, idx, firing)
        agg = np.zeros((firing.shape[1], samples))
        for t in np.flatnonzero(term_fire.any(axis=1)):
            lo, hi = spans[t]
            part = agg[:, lo:hi]
            np.maximum(part, np.minimum(term_fire[t][:, None], mat[t, lo:hi]), out=part)
        mu = agg[0] if scalar else agg
        out[var.name] = AggregatedFuzzySet(var.domain[0], var.domain[1], mu, xs)
    return out


def defuzz_coa(fset: AggregatedFuzzySet) -> float | np.ndarray:
    """Center of area by the midpoint rule over the sampled curve.

    One curve gives a float and raises DegenerateOutputError when it has no
    area; a block of rows gives an array with NaN in the rows without area.
    Row sums over a C-contiguous block add in the same pairwise order as the
    sum of one vector, so each row equals its one-curve result bit for bit."""
    mu = np.atleast_2d(fset.mu)
    total = mu.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        coa = np.where(total > 0.0, (mu * fset.xs).sum(axis=1) / total, np.nan)
    if fset.mu.ndim == 2:
        return coa
    if np.isnan(coa[0]):
        raise DegenerateOutputError("aggregated set has zero area")
    return float(coa[0])


def eval_fis1(
    rb: RuleBase1, inputs: Mapping[str, float | np.ndarray], samples: int = DEFAULT_SAMPLES
) -> dict[str, float] | dict[str, np.ndarray]:
    """Fuzzify, infer and defuzzify every output variable.

    Inputs are floats, or equal-length arrays of points: each output is then
    an array, NaN in every output at the points where any output has no area.
    Float inputs give floats and raise DegenerateOutputError instead. Points
    go through inference ROW_CHUNK at a time, which bounds the sampled blocks
    at ROW_CHUNK x samples."""
    cols = {name: np.asarray(x, dtype=float) for name, x in inputs.items()}
    scalar = all(x.ndim == 0 for x in cols.values())
    cols = {name: np.atleast_1d(x) for name, x in cols.items()}
    m = max((len(x) for x in cols.values()), default=1)
    out = {var.name: np.empty(m) for var in rb.outputs}
    for s in range(0, m, ROW_CHUNK):
        part = {name: x[s : s + ROW_CHUNK] for name, x in cols.items()}
        for name, fset in infer_mamdani(rb, part, samples).items():
            out[name][s : s + ROW_CHUNK] = defuzz_coa(fset)
    # a point is degenerate as a whole, as the one-point call raises for it
    dead = np.logical_or.reduce([np.isnan(v) for v in out.values()])
    for v in out.values():
        v[dead] = np.nan
    if not scalar:
        return out
    if dead[0]:
        raise DegenerateOutputError("aggregated set has zero area")
    return {name: float(v[0]) for name, v in out.items()}


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
