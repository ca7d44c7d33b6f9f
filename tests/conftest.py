import csv
import functools
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np

from fuzzcluster.config import parse_config
from fuzzcluster.csvio import METRICS_HEADER
from fuzzcluster.energy import RadioParams
from fuzzcluster.fis1 import _breakpoints, _trap_degrees
from fuzzcluster.fis2 import _fire, _firing_tables, _footprint_degrees, _footprint_tables
from fuzzcluster.network import deploy_from_rng
from fuzzcluster.protocols import RoundPlan
from fuzzcluster.rng import Xorshift64Star
from fuzzcluster.simulator import RoundMetrics, SimConfig, run_simulation

# The first-order radios of the ch2 and ch3 presets, built by hand: e_elec, and
# ch2's eps_mp, are each an ulp from the parsed presets' values.
CH2 = RadioParams(
    e_elec=50e-9, eps_fs=10e-12, eps_mp=0.0013e-12, e_da=5e-9, packet_bits=4000, ctrl_bits=200
)
CH3 = replace(CH2, eps_mp=0.0010e-12)


def mf_at(mf, x):
    """Membership of each point of x (a float is one point) in mf."""
    return _trap_degrees(_breakpoints((mf,)), np.atleast_1d(np.asarray(x, dtype=float)))[0]


def interval_at(imf, x):
    """(lower, upper) membership of each point of x (a float is one point) in imf."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lower, upper = _footprint_degrees(*_footprint_tables((imf,)), x)
    return lower[0], upper[0]


def firing_intervals(rules, db, re, distance_mfs, energy_mfs):
    """Lower and upper product firing of each rule at the 1-D arrays of
    points db and re, as a (2, rules, points) array."""
    return _fire(_firing_tables(rules, distance_mfs, energy_mfs), db, re)


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
    """A one-point firing of k rules (1 to 9 when k is None) with at least one
    positive upper firing, and its k output weights, drawn from rng."""
    k = k if k is not None else int(rng.integers(1, 10))
    fu = rng.uniform(0.0, 1.0, k)
    fu[int(rng.integers(0, k))] = max(fu.max(), 0.05)  # at least one positive upper
    fl = rng.uniform(0.0, 1.0, k) * fu
    weights = rng.uniform(0.0, 1.0, k)
    return one_point(fl, fu), list(weights)


def height_type1_oracle(rb, db, re):
    """Independent collapse oracle of a type-2 rule base at the points db, re:
    product firing of the base memberships, weighted-mean defuzzification."""
    num_r = num_c = den = 0.0
    for rule in rb.rules:
        f = mf_at(rb.distance_mfs[rule.distance].lower, db) * mf_at(
            rb.energy_mfs[rule.energy].lower, re
        )
        num_r += f * rule.w_radius
        num_c += f * rule.w_chance
        den += f
    return num_r / den, num_c / den


def traced_peak(fn, *args):
    """(peak traced heap bytes, result) of one call fn(*args)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def peak_point(mf):
    """Representative point of a set: triangle apex or plateau midpoint."""
    return mf.points[1] if mf.kind == "tri" else 0.5 * (mf.points[1] + mf.points[2])


def round_config(protocol, radio, **fields):
    """A SimConfig to call one round with: run_protocol_round and
    compute_radius_chance read only its protocol, radio, rules1, rules2 and
    coa_samples (given as fields), so the deployment fields are placeholders."""
    return SimConfig(
        n=1, area_side=1.0, bs_pos=(0.0, 0.0), initial_energy=1.0, radio=radio, protocol=protocol, **fields
    )


def preset_config(preset, kind, **fields):
    """The parsed preset run by protocol kind, with the given fields replaced."""
    cfg = parse_config(preset)
    return replace(cfg, protocol=replace(cfg.protocol, kind=kind), **fields)


@functools.cache
def scenario1_lifetime(kind, seed):
    """The whole ch2-scenario1 lifetime of a kind and seed, run once per session
    and shared: read it, never change it. No cap binds: every node dies, which
    is asserted, by round 1037 at seeds 1-10, and max_rounds is the default 5000."""
    result = run_simulation(preset_config("ch2-scenario1", kind, seed=seed))
    assert result.lnd is not None, (kind, seed, len(result.rounds))
    return result


def deploy(n, m, bs_pos, seed, initial_energy=1.0):
    """Seeded deployment: identical arguments always yield identical networks."""
    return deploy_from_rng(n, m, bs_pos, Xorshift64Star(seed), initial_energy)


def read_metrics_csv(path):
    """Rows of a metrics file; a malformed file raises ValueError naming the
    file and the line."""
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != METRICS_HEADER:
            expected = ",".join(METRICS_HEADER)
            raise ValueError(f"{path}: line 1: expected header {expected}, got {','.join(header)!r}")
        for row in reader:
            try:
                rnd, alive, dead, total_j, avg_j, ch_count = row
                m = RoundMetrics(
                    round=int(rnd),
                    alive=int(alive),
                    dead=int(dead),
                    total_j=float(total_j),
                    avg_j=float(avg_j),
                    ch_count=int(ch_count),
                )
            except ValueError:
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected {len(METRICS_HEADER)} fields "
                    f"{','.join(METRICS_HEADER)}, got {','.join(row)!r}"
                ) from None
            out.append(m)
    return out


class FakeRng:
    """Scripted stand-in for the run RNG: hands out a fixed draw sequence."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.used = 0

    def random(self) -> float:
        v = self.draws[self.used]
        self.used += 1
        return v

    def uniforms(self, k: int) -> np.ndarray:
        left = len(self.draws) - self.used
        if k > left:
            raise IndexError(f"{k} draws asked for, {left} left in the script")
        v = np.array(self.draws[self.used : self.used + k], dtype=float)
        self.used += k
        return v


def plan_from(net, clusters, routes):
    """A RoundPlan without control spend from a list of Cluster objects in
    cluster order and a head id -> next-hop head id (None = sink) table."""
    heads = [c.head for c in clusters]
    return RoundPlan(
        heads=np.array(heads, dtype=np.intp),
        radius=np.array([c.radius for c in clusters]),
        sizes=np.array([len(c.members) for c in clusters], dtype=np.intp),
        members=np.array([m for c in clusters for m in c.members], dtype=np.intp),
        next_hop=np.array([-1 if routes[h] is None else heads.index(routes[h]) for h in heads]),
        control_spend=np.zeros(net.n),
    )
