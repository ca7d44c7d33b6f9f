"""One-point reference engines for the batch-equivalence tests.

These are the engines as they were written before batch evaluation: pure-Python
memberships and Karnik-Mendel iteration, and one clip-max and center-of-area
per point. The batch engines must reproduce them bit for bit, so keep this
file as it is when the package's engines change.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np

from fuzzcluster.fis1 import DegenerateOutputError, mf_sample


def mf_eval_ref(mf, x: float) -> float:
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


# --- interval type-2 ---------------------------------------------------------


def _interval(imf, x):
    lower = imf.lower_scale * mf_eval_ref(imf.lower, x)
    return lower, max(mf_eval_ref(imf.upper, x), lower)


def _km_endpoint(fl, fu, w, left):
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


def km_ref(lower, upper, weights) -> tuple[float, float]:
    """(lo, hi) of the reduced interval; raises DegenerateOutputError, and
    ValueError where the iteration ends on an inverted interval."""
    order = sorted(range(len(weights)), key=lambda i: weights[i])
    fl = [float(lower[i]) for i in order]
    fu = [float(upper[i]) for i in order]
    w = [float(weights[i]) for i in order]
    if max(fu) <= 0.0:
        raise DegenerateOutputError("all rule firings are zero")
    if len(w) == 1:
        return w[0], w[0]
    lo, hi = _km_endpoint(fl, fu, w, True), _km_endpoint(fl, fu, w, False)
    if lo > hi + 1e-12:
        raise ValueError(f"reduced interval inverted: [{lo}, {hi}]")
    return lo, hi


def eval_t2fis_ref(rb, db: float, re: float) -> tuple[float, float]:
    lower, upper = [], []
    for r in rb.rules:
        dl, du = _interval(rb.distance_mfs[r.distance], db)
        el, eu = _interval(rb.energy_mfs[r.energy], re)
        lower.append(dl * el)
        upper.append(du * eu)
    lo, hi = km_ref(lower, upper, [r.w_radius for r in rb.rules])
    radius = 0.5 * (lo + hi)
    lo, hi = km_ref(lower, upper, [r.w_chance for r in rb.rules])
    return radius, 0.5 * (lo + hi)


# --- type-1 Mamdani ----------------------------------------------------------


def eval_fis1_ref(rb, inputs, samples: int) -> dict[str, float]:
    """Raises DegenerateOutputError when an output has no area."""
    degrees = [
        np.array([mf_eval_ref(mf, inputs[var.name]) for _, mf in var.terms]) for var in rb.inputs
    ]
    ante_idx = rb._antecedent_indices()
    firing = degrees[0][ante_idx[0]]
    for deg, idx in zip(degrees[1:], ante_idx[1:]):
        firing = np.minimum(firing, deg[idx])
    out = {}
    for j, var in enumerate(rb.outputs):
        lo, hi = var.domain
        xs = lo + (np.arange(samples) + 0.5) * (hi - lo) / samples
        mat = np.stack([mf_sample(mf, xs) for _, mf in var.terms])
        names = list(var.term_names)
        idx = np.array([names.index(r.consequents[j]) for r in rb.rules])
        term_fire = np.zeros(len(var.terms))
        np.maximum.at(term_fire, idx, firing)
        mu = np.minimum(term_fire[:, None], mat).max(axis=0)
        total = float(mu.sum())
        if total <= 0.0:
            raise DegenerateOutputError("aggregated set has zero area")
        out[var.name] = float((mu * xs).sum() / total)
    return out
