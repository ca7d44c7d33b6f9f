"""Reference computations written apart from fuzzcluster.

The output checks compare the program against these: the xorshift64* stream
and the uniform deployment it drives, the preset constants in SI units, the
first-order radio model, an exhaustive Karnik-Mendel reference and a plain
min-AND / clip / max / midpoint-COA Mamdani. Rule bases are read from the
program's objects as data; every formula applied to them is this file's own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

MASK64 = (1 << 64) - 1


class XorShift64Star:
    """Vigna's xorshift64* (shifts 12, 25, 27), with a fixed nonzero state for
    seed 0, returning 53-bit uniforms in [0, 1)."""

    def __init__(self, seed: int):
        self.state = (seed & MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & MASK64

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def skip(self, draws: int) -> None:
        for _ in range(draws):
            self.next_u64()


@dataclass(frozen=True)
class Preset:
    n: int
    side: float
    bs: tuple[float, float]
    e0: float
    e_elec: float
    eps_fs: float
    eps_mp: float
    e_da: float
    bits: int
    ctrl_bits: int

    @property
    def r_max(self) -> float:
        return 0.4 * self.side

    @property
    def d0(self) -> float:
        return math.sqrt(self.eps_fs / self.eps_mp)

    def tx(self, bits: float, d):
        """First-order radio transmit cost; d may be an array."""
        d = np.asarray(d, dtype=float)
        amp = np.where(d <= self.d0, self.eps_fs * d * d, self.eps_mp * d ** 4)
        return bits * self.e_elec + bits * amp

    def rx(self, bits: float) -> float:
        return bits * self.e_elec


# The three scenario tables, in SI units.
PRESETS = {
    "ch2-scenario1": Preset(100, 100.0, (50.0, 175.0), 0.5, 50e-9, 10e-12, 0.0013e-12, 5e-9, 4000, 200),
    "ch2-scenario2": Preset(1000, 1000.0, (500.0, 1750.0), 0.5, 50e-9, 10e-12, 0.0013e-12, 5e-9, 4000, 200),
    "ch3": Preset(100, 100.0, (50.0, 50.0), 1.0, 50e-9, 10e-12, 0.0010e-12, 5e-9, 4000, 200),
}


class Geometry:
    """Node positions drawn from the seed (x then y, ascending id; the first
    2n draws of the run) and the distances every check uses."""

    def __init__(self, preset: Preset, seed: int):
        rng = XorShift64Star(seed)
        pos = np.empty((preset.n, 2))
        for i in range(preset.n):
            pos[i, 0] = rng.uniform() * preset.side
            pos[i, 1] = rng.uniform() * preset.side
        self.pos = pos
        dx = pos[:, None, 0] - pos[None, :, 0]
        dy = pos[:, None, 1] - pos[None, :, 1]
        self.dist = np.sqrt(dx * dx + dy * dy)
        bx = pos[:, 0] - preset.bs[0]
        by = pos[:, 1] - preset.bs[1]
        self.bs_dist = np.sqrt(bx * bx + by * by)


# --- membership functions ----------------------------------------------------


def membership(kind: str, points, x: np.ndarray) -> np.ndarray:
    """Triangle (a, b, c) or trapezoid (a, b, c, d) degree at each x."""
    x = np.asarray(x, dtype=float)
    if kind == "tri":
        a, b, c = points
        top_lo = top_hi = b
    else:
        a, top_lo, top_hi, c = points
    with np.errstate(divide="ignore", invalid="ignore"):
        rise = np.where(top_lo > a, (x - a) / (top_lo - a), 1.0)
        fall = np.where(c > top_hi, (c - x) / (c - top_hi), 1.0)
    out = np.where(x < top_lo, rise, np.where(x > top_hi, fall, 1.0))
    return np.where((x < a) | (x > c), 0.0, out)


# --- interval type-2: exhaustive Karnik-Mendel --------------------------------


def t2_reference(rb2, db: np.ndarray, re: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(radius_norm, chance) at each (db, re): the midpoint of the minimum and
    maximum weighted firing ratio over all 2^K lower/upper firing choices."""
    def interval(imf, x):
        lower = imf.lower_scale * membership(imf.lower.kind, imf.lower.points, x)
        upper = membership(imf.upper.kind, imf.upper.points, x)
        return lower, upper

    rules = rb2.rules
    f_lo = np.empty((len(db), len(rules)))
    f_hi = np.empty_like(f_lo)
    for k, r in enumerate(rules):
        dl, du = interval(rb2.distance_mfs[r.distance], db)
        el, eu = interval(rb2.energy_mfs[r.energy], re)
        f_lo[:, k] = dl * el
        f_hi[:, k] = du * eu
    choice = np.array(list(product((False, True), repeat=len(rules))))  # (2^K, K)
    f = np.where(choice[None, :, :], f_hi[:, None, :], f_lo[:, None, :])  # (P, 2^K, K)
    den = f.sum(axis=2)
    outs = []
    for w in (np.array([r.w_radius for r in rules]), np.array([r.w_chance for r in rules])):
        with np.errstate(divide="ignore", invalid="ignore"):
            y = (f * w).sum(axis=2) / den
        valid = den > 0.0
        lo = np.where(valid, y, np.inf).min(axis=1)
        hi = np.where(valid, y, -np.inf).max(axis=1)
        outs.append(0.5 * (lo + hi))
    return outs[0], outs[1]


# --- type-1 Mamdani -----------------------------------------------------------


def t1_reference(rb1, inputs: np.ndarray, samples: int, chunk: int = 100) -> np.ndarray:
    """Crisp outputs (P, n_outputs) for inputs (P, n_inputs): firing is the
    minimum antecedent degree, each rule clips its consequent, rules combine
    by maximum, and the centre of area is taken over cell midpoints."""
    xs = (np.arange(samples) + 0.5) / samples
    ante = []  # per input: (P, rules) degree of each rule's antecedent term
    for j, var in enumerate(rb1.inputs):
        terms = dict(var.terms)
        ante.append(
            np.stack(
                [membership(terms[r.antecedents[j]].kind, terms[r.antecedents[j]].points, inputs[:, j])
                 for r in rb1.rules],
                axis=1,
            )
        )
    firing = np.minimum.reduce(ante)  # (P, rules)
    out = np.empty((len(inputs), len(rb1.outputs)))
    for j, var in enumerate(rb1.outputs):
        terms = dict(var.terms)
        cons = np.stack(
            [membership(terms[r.consequents[j]].kind, terms[r.consequents[j]].points, xs) for r in rb1.rules]
        )  # (rules, samples)
        for s in range(0, len(inputs), chunk):
            agg = np.minimum(firing[s:s + chunk, :, None], cons[None, :, :]).max(axis=1)
            out[s:s + chunk, j] = (agg * xs).sum(axis=1) / agg.sum(axis=1)
    return out
