"""Type-1 Mamdani inference for the unequal-clustering protocol.

Piecewise-linear (triangular / trapezoidal) membership functions, linguistic
variables over normalized [0, 1] domains, the 27-rule radius/chance rule base,
min-AND / clip / max-aggregate inference and center-of-area defuzzification
over a midpoint-sampled domain.

Inference runs in two stages on arrays of points: term_firings turns the
points into output-term firings, and firing_outputs clips, aggregates and
defuzzifies them, from tables built once per rule base (and sample count)
and cached on the RuleBase1. Each point gets the bits of a one-point
evaluation: min and max return one of their operands, so the order in which
rules, terms and points are combined cannot move a value, and each
center-of-area sum reads one point's row alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

DEFAULT_SAMPLES = 1001
# Points per inference chunk in eval_fis1. The plan of each sample count
# keeps one (outputs, ROW_CHUNK, samples) block (250 KiB for two outputs at
# 1001 samples) and reuses it for every chunk and call, so a chunk's only
# large temporary is one cover level's np.repeat (125 KiB).
# Blocks taken afresh for each chunk were given back to the system and
# faulted in again: about 13,000 minor faults over 200 ch2-scenario1 rounds
# against a few dozen with the reused block.
ROW_CHUNK = 16
# Points per slice of term_firings and _column_index. A slice's largest
# temporaries are the (rules per term, output terms + 1, FIRE_CHUNK) minimum
# over the inputs and one input's gather beside it: 119 KiB each for the
# stock rule base (7 rules per term, 17 terms), below glibc malloc's 128 KiB
# mmap threshold. 64-point slices took 292 against 218 us for 441 points.
FIRE_CHUNK = 128


class DegenerateOutputError(ValueError):
    """A membership function without area, so without a centroid."""


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
        if not all(map(math.isfinite, self.points)):
            raise ValueError(f"breakpoints must be finite: {self.points}")
        if any(b < a for a, b in zip(self.points, self.points[1:])):
            raise ValueError(f"breakpoints must be nondecreasing: {self.points}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.points[0], self.points[-1])


def triangular(a: float, b: float, c: float) -> MembershipFunction:
    return MembershipFunction("tri", (float(a), float(b), float(c)))


def trapezoidal(a: float, b: float, c: float, d: float) -> MembershipFunction:
    return MembershipFunction("trap", (float(a), float(b), float(c), float(d)))


def _breakpoints(mfs: Sequence[MembershipFunction]) -> np.ndarray:
    """(a, d, b - a, d - c) of each set as the trapezoid (a, b, c, d), in a
    (4, sets, 1) array; a triangle (a, b, c) is the trapezoid (a, b, b, c)."""
    pts = [mf.points if mf.kind == "trap" else (*mf.points[:2], *mf.points[1:]) for mf in mfs]
    a, b, c, d = np.array(pts, dtype=float).reshape(-1, 4).T[:, :, None]
    return np.array([a, d, b - a, d - c])


def _trap_degrees(bp: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Membership at x of the sets with breakpoints bp (from _breakpoints),
    x broadcast against a (sets, 1) column; exact at breakpoints, zero
    outside the support.

    The rising edge (x - a) / (b - a) is below 1 only left of the plateau
    and the falling edge (d - x) / (d - c) only right of it, so clipping the
    smaller of the two to [0, 1] gives each piece's own quotient, which
    np.interp would round differently. A zero-width edge divides to +-inf,
    or to NaN on its own breakpoint, where fmin takes the other edge or 1."""
    a, d, rise, fall = bp
    with np.errstate(all="ignore"):
        y = np.fmin((x - a) / rise, (d - x) / fall)
    return np.maximum(np.fmin(y, 1.0, out=y), 0.0, out=out)


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
    return np.interp(xs, *_vertices(mf), left=0.0, right=0.0)


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
    """Named variable over [0, 1] with an ordered term vocabulary."""

    name: str
    terms: tuple[tuple[str, MembershipFunction], ...]

    def __post_init__(self):
        names = [t for t, _ in self.terms]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: duplicate term names")
        for t, mf in self.terms:
            s0, s1 = mf.support
            if s0 < 0.0 or s1 > 1.0:
                raise ValueError(f"{self.name}: term {t!r} support {mf.support} leaves [0, 1]")
        # every membership is linear between consecutive breakpoints, so the
        # cover is positive everywhere iff it is at each breakpoint, at 0 and
        # 1 and at each midpoint between consecutive ones
        mfs = [mf for _, mf in self.terms]
        knots = sorted({0.0, 1.0, *(p for mf in mfs for p in mf.points)})
        xs = np.array(sorted(knots + [0.5 * (a + b) for a, b in zip(knots, knots[1:])]))
        cover = _trap_degrees(_breakpoints(mfs), xs).max(axis=0, initial=0.0)
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


@dataclass(frozen=True)
class Rule1:
    """One antecedent term per input variable, one consequent per output (positional)."""

    antecedents: tuple[str, ...]
    consequents: tuple[str, ...]


@dataclass(frozen=True)
class RuleBase1:
    inputs: tuple[LinguisticVariable, ...]
    outputs: tuple[LinguisticVariable, ...]
    rules: tuple[Rule1, ...]
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for i, rule in enumerate(self.rules, start=1):
            if len(rule.antecedents) != len(self.inputs):
                raise ValueError(f"rule1.{i}: rule {rule} arity != {len(self.inputs)} inputs")
            if len(rule.consequents) != len(self.outputs):
                raise ValueError(f"rule1.{i}: rule {rule} arity != {len(self.outputs)} outputs")
            for var, term in zip(self.inputs + self.outputs, rule.antecedents + rule.consequents):
                try:
                    var.term(term)
                except KeyError as e:
                    raise ValueError(f"rule1.{i}: {e.args[0]}") from None

    def _firing_plan(self) -> _FiringPlan:
        hit = self._cache.get("fire")
        if hit is None:
            hit = self._cache["fire"] = _FiringPlan.build(self)
        return hit

    def _plan(self, samples: int) -> _MamdaniPlan:
        hit = self._cache.get(samples)
        if hit is None:
            hit = self._cache[samples] = _MamdaniPlan.build(self, samples)
        return hit


@dataclass(frozen=True, eq=False)
class _FiringPlan:
    """What term_firings reuses for every block of points. Input terms are
    numbered across all inputs and output terms across all outputs, in
    declaration order; one more input term that is zero everywhere and one
    more output term without rules pad the tables."""

    term_input: np.ndarray  # (input terms,): the input each term reads
    bp: np.ndarray  # (4, input terms, 1): see _breakpoints
    term_ante: np.ndarray  # (inputs, k, output terms + 1): antecedent terms of each term's rules

    @classmethod
    def build(cls, rb: RuleBase1) -> _FiringPlan:
        sizes = [len(var.terms) for var in rb.inputs]
        zero_term = sum(sizes)
        # per input, the global input term of each rule's antecedent, and of the pad rule
        ante = [[var.term_names.index(r.antecedents[i]) for r in rb.rules] for i, var in enumerate(rb.inputs)]
        ante = np.array(ante, int).reshape(len(sizes), len(rb.rules))
        ante = np.c_[ante + np.cumsum([0, *sizes[:-1]])[:, None], np.full(len(sizes), zero_term)]
        term_rules = [
            [r for r, rule in enumerate(rb.rules) if rule.consequents[o] == t]
            for o, var in enumerate(rb.outputs)
            for t in var.term_names
        ]
        width = max(map(len, term_rules), default=0) or 1
        term_rules = [rs + [len(rb.rules)] * (width - len(rs)) for rs in [*term_rules, []]]
        return cls(
            term_input=np.repeat(np.arange(len(sizes)), sizes),
            bp=_breakpoints([mf for var in rb.inputs for _, mf in var.terms]),
            term_ante=np.ascontiguousarray(ante[:, term_rules].transpose(0, 2, 1)),
        )


@dataclass(frozen=True, eq=False)
class _MamdaniPlan:
    """What infer_mamdani reuses for every block of firings, with output
    terms numbered as in _FiringPlan, and the block eval_fis1 infers into.

    ``cover[o, k, s]`` is the k-th output term of output o that is nonzero
    at COA sample s, or the pad term where fewer terms overlap. Along s it
    is constant over runs of ``run_len`` samples; ``run_terms`` keeps one
    entry per run."""

    run_terms: np.ndarray  # (outputs, depth, runs)
    run_len: np.ndarray  # (runs,)
    cover_mu: np.ndarray  # (outputs, depth, samples): membership of each cover term
    xs: np.ndarray  # (samples,): the COA grid, the cell midpoints of [0, 1]
    block: np.ndarray  # (outputs, ROW_CHUNK, samples): reused by every chunk and call

    @classmethod
    def build(cls, rb: RuleBase1, samples: int) -> _MamdaniPlan:
        xs = (np.arange(samples) + 0.5) / samples
        mats = [np.array([mf_sample(mf, xs) for _, mf in var.terms]) for var in rb.outputs]
        pad = sum(map(len, mats))
        # per output and sample, the terms nonzero there in ascending order, then pads
        ids = np.full((len(rb.outputs), max(map(len, mats), default=0), samples), pad)
        first = 0
        for o, mat in enumerate(mats):
            ids[o, : len(mat)] = np.where(mat > 0.0, np.arange(first, first + len(mat))[:, None], pad)
            first += len(mat)
        cover = np.sort(ids, axis=1)[:, : max(1, (ids < pad).sum(axis=1).max(initial=0))]
        mat = np.concatenate([*mats, np.zeros((1, samples))])
        starts = np.flatnonzero(np.r_[True, (cover[:, :, 1:] != cover[:, :, :-1]).any(axis=(0, 1))])
        tables = dict(
            run_terms=cover[:, :, starts],
            run_len=np.diff(np.r_[starts, samples]),
            cover_mu=mat[cover, np.arange(samples)],
            xs=xs,
        )
        del mats, ids, cover, mat  # so the block is not alive beside them
        return cls(**tables, block=np.empty((len(rb.outputs), ROW_CHUNK, samples)))


def input_rows(inputs: Mapping[str, np.typing.ArrayLike]) -> np.ndarray:
    """The inputs as the rows of one float array as long as the longest
    input, a one-point input broadcast; an input of any other length raises
    a ValueError naming it and both lengths, one of more than one dimension
    a ValueError naming it and its shape, and a point outside [0, 1], NaN
    included, a ValueError naming the input and the point."""
    for name, x in inputs.items():
        if np.ndim(x) > 1:
            raise ValueError(f"{name}: shape {np.shape(x)}, but an input is a float or a 1-D array")
    sizes = {name: np.size(x) for name, x in inputs.items()}
    longest = max(sizes, key=sizes.__getitem__, default=None)
    rows = np.empty((len(sizes), sizes[longest] if sizes else 1))
    for row, (name, x) in zip(rows, inputs.items()):
        if sizes[name] not in (1, len(row)):
            raise ValueError(f"{name}: {sizes[name]} points, but {longest} has {len(row)}")
        row[:] = x
    inside = (rows >= 0.0) & (rows <= 1.0)
    if not inside.all():
        i, j = np.argwhere(~inside)[0]
        raise ValueError(f"{list(inputs)[i]}={rows[i, j]} outside [0, 1]")
    return rows


def term_firings(rb: RuleBase1, inputs: Mapping[str, np.typing.ArrayLike]) -> np.ndarray:
    """Min-AND firing of every rule, and each output term's firing: the max
    over its rules.

    Inputs are arrays of m points (a one-point input is broadcast), one
    per input variable of rb; a missing or unknown name or a bad input (see
    input_rows: a point outside [0, 1] among them) raises a ValueError
    naming the input. Returns an (output terms + 1, m) array: the terms of
    every output in declaration order, then a pad term that never fires. The
    memberships and the (rules per term, output terms + 1, points) minimum
    over the inputs, taken one input at a time, are built FIRE_CHUNK points
    at a time, so only the returned table grows with m."""
    for var in rb.inputs:
        if var.name not in inputs:
            raise ValueError(f"missing input variable {var.name!r}")
    if len(inputs) != len(rb.inputs):
        known = {var.name for var in rb.inputs}
        unknown = next(name for name in inputs if name not in known)
        raise ValueError(f"unknown input variable {unknown!r}")
    plan = rb._firing_plan()
    x = input_rows({var.name: inputs[var.name] for var in rb.inputs})
    fire = np.empty((plan.term_ante.shape[-1], x.shape[1]))
    first, *rest = plan.term_ante
    for s in range(0, x.shape[1], FIRE_CHUNK):
        part = x[:, s : s + FIRE_CHUNK]
        # degrees (input terms + 1, points), the last row the zero term
        degrees = np.zeros((len(plan.term_input) + 1, part.shape[1]))
        _trap_degrees(plan.bp, part.take(plan.term_input, axis=0), out=degrees[:-1])
        low = degrees.take(first, axis=0)
        for ante in rest:
            np.minimum(low, degrees.take(ante, axis=0), out=low)
        low.max(axis=0, out=fire[:, s : s + FIRE_CHUNK])
    return fire


def infer_mamdani(
    rb: RuleBase1,
    firings: np.ndarray,
    samples: int = DEFAULT_SAMPLES,
    out: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Clip implication and pointwise-max aggregation per output, from the
    (output terms + 1, m) term firings of term_firings.

    Each output name maps to an (m, samples) block, one row of the
    aggregated set per point sampled at the cell midpoints of [0, 1], so
    callers with many points pass them in chunks (eval_fis1 does). The
    blocks are new arrays, or with ``out`` (an (outputs, >= m, samples)
    C-order array) the views ``out[o, :m]``, which are overwritten."""
    plan = rb._plan(samples)
    m = firings.shape[1]
    # max over rules of min(f_r, term(x)) == max over terms of min(max f over
    # the term's rules, term(x)), and only the terms in the cover of a sample
    # can be nonzero there: one level of the cover at a time, each firing
    # repeated over its runs of samples. min and max round nothing, so the
    # order of the terms cannot move a bit.
    runs = firings.take(plan.run_terms, axis=0).swapaxes(-1, -2)  # (outputs, depth, m, runs)
    aggs = {}
    for o, var in enumerate(rb.outputs):
        agg = None
        for level, cover_mu in zip(runs[o], plan.cover_mu[o]):
            clip = np.repeat(level, plan.run_len, axis=-1)
            if agg is None:
                agg = np.minimum(clip, cover_mu, out=clip if out is None else out[o, :m])
            else:
                np.maximum(agg, np.minimum(clip, cover_mu, out=clip), out=agg)
            del clip  # one (m, samples) temporary alive at a time
        aggs[var.name] = agg
    return aggs


def defuzz_coa(mu: np.ndarray, xs: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Center of area of each row of the (points, samples) block mu, sampled
    at the grid xs, by the midpoint rule, NaN in the rows without area. Row
    sums over a C-contiguous block add in the same pairwise order as the sum
    of one vector, so each row equals its one-curve result bit for bit; a
    column-major block (a gather along the samples, say) would add in another
    order, so mu is summed in C order, a copy only when it is not already.
    With ``overwrite`` a C-order mu is left holding the moments mu * xs."""
    mu = np.ascontiguousarray(mu)
    total = mu.sum(axis=1)
    moment = np.multiply(mu, xs, out=mu if overwrite else None)
    return moment.sum(axis=1) / np.where(total > 0.0, total, np.nan)


def _column_index(fire: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct column of fire, by its exact bytes, first appears,
    in that order, and the number of every column in that order, so that the
    running maximum of the numbers first reaches k where column k first
    appears. The columns are keyed FIRE_CHUNK at a time."""
    index: dict[bytes, int] = {}
    inverse = np.empty(fire.shape[1], np.intp)
    for s in range(0, fire.shape[1], FIRE_CHUNK):
        keys = np.ascontiguousarray(fire[:, s : s + FIRE_CHUNK].T).view(f"V{len(fire) * 8}")
        inverse[s : s + len(keys)] = [index.setdefault(k, len(index)) for k in keys[:, 0].tolist()]
    return np.searchsorted(np.maximum.accumulate(inverse), np.arange(len(index))), inverse


def firing_outputs(rb: RuleBase1, fire: np.ndarray, samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Infer and defuzzify every output at the (output terms + 1, m) term
    firings of term_firings: an (outputs, m) array in rb's output order, NaN
    in every output at the points where any output has no area.

    Each distinct firing column, keyed by its exact bytes, is gathered at its
    first position, aggregated and defuzzified once: min, max and each row's
    pairwise sum read one point alone, so a merged point gets its own bits,
    and an output is a function of its column's bits alone. A call of at
    most ROW_CHUNK points is one chunk either way and is not keyed. The
    distinct columns go through inference ROW_CHUNK at a time, in the one
    (outputs, ROW_CHUNK, samples) block that the plan of the sample count
    keeps and reuses for every chunk and call, so a rule base is not to be
    evaluated from two threads at once."""
    plan = rb._plan(samples)
    inverse = None
    if fire.shape[1] > ROW_CHUNK:  # merging can save a chunk only when there are several
        first, inverse = _column_index(fire)
        fire = fire[:, first]
    out = np.empty((len(rb.outputs), fire.shape[1]))
    for s in range(0, fire.shape[1], ROW_CHUNK):
        mus = infer_mamdani(rb, fire[:, s : s + ROW_CHUNK], samples, plan.block)
        out[:, s : s + ROW_CHUNK] = [
            defuzz_coa(mu, plan.xs, overwrite=True) for mu in mus.values()
        ]
    if inverse is not None:
        out = out.take(inverse, axis=1)
    # a point is degenerate as a whole: NaN in one output is NaN in all
    if np.isnan(out).any():
        out[:, np.isnan(out).any(axis=0)] = np.nan
    return out


def eval_fis1(
    rb: RuleBase1, inputs: Mapping[str, np.typing.ArrayLike], samples: int = DEFAULT_SAMPLES
) -> dict[str, np.ndarray]:
    """Fuzzify, infer and defuzzify every output variable at equal-length
    arrays of points (a float, or any one-point input, is broadcast): the
    term firings of term_firings through firing_outputs, each output an
    array, NaN in every output at the points where any output has no area."""
    # the plan first, so its build and the keys are not alive at once
    rb._plan(samples)
    out = firing_outputs(rb, term_firings(rb, inputs), samples)
    return dict(zip((var.name for var in rb.outputs), out))


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
# every type-1 variable and its terms: the three inputs, then the two outputs
T1_TERMS = {
    "distance": DISTANCE_TERMS,
    "energy": ENERGY_TERMS,
    "concentration": CONCENTRATION_TERMS,
    "radius": RADIUS_TERMS,
    "chance": CHANCE_TERMS,
}


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
    stock: Mapping[str, tuple[tuple[str, MembershipFunction], ...]],
    overrides: MfOverrides | None,
    family: str,
) -> list[LinguisticVariable]:
    """A variable over each named stock partition, with the per-term
    membership overrides given for it swapped in. An override of a variable
    or term the stock lacks raises a ValueError that starts with its config
    key, ``<family>.<variable>`` or ``<family>.<variable>.<term>``. An
    override that breaks its variable (a hole in the cover, a support
    outside [0, 1]) raises one that starts with ``<family>.<variable>: ``."""
    overrides = overrides or {}
    for name, per_term in overrides.items():
        if name not in stock:
            raise ValueError(f"{family}.{name}: unknown variable {name!r}")
        known = {t for t, _ in stock[name]}
        for t in per_term:
            if t not in known:
                raise ValueError(f"{family}.{name}.{t}: unknown term {t!r} of {name!r}")
    variables = []
    for name, terms in stock.items():
        chosen = overrides.get(name, {})
        try:
            variables.append(LinguisticVariable(name, tuple((t, chosen.get(t, mf)) for t, mf in terms)))
        except ValueError as e:  # its message starts with "<variable>: "
            raise ValueError(f"{family}.{e}") from None
    return variables


def default_rulebase1(
    mf_overrides: MfOverrides | None = None,
    rules: Sequence[tuple[str, str, str, str, str]] | None = None,
) -> RuleBase1:
    """The stock radius/chance rule base; breakpoints and rules are
    overridable. A bad membership override or rule raises a ValueError that
    starts with its config key: ``mf1.<variable>[.<term>]``, ``rule1`` or
    ``rule1.<i>``."""
    *inputs, radius, chance = apply_overrides(
        {
            name: (even_terms if name in ("radius", "chance") else three_level_terms)(labels)
            for name, labels in T1_TERMS.items()
        },
        mf_overrides,
        "mf1",
    )

    table = tuple(rules) if rules is not None else RULES_27
    for i, row in enumerate(table, start=1):
        if len(row) != 5:
            raise ValueError(f"rule1.{i}: expected 5 terms, got {len(row)}")
    combos = {(d, e, c) for d, e, c, _, _ in table}
    if len(table) != 27 or len(combos) != 27:
        raise ValueError("rule1: rule table must cover all 27 antecedent combinations exactly once")
    rule_objs = tuple(Rule1((d, e, c), (rad, ch)) for d, e, c, rad, ch in table)
    return RuleBase1(tuple(inputs), (radius, chance), rule_objs)
