import csv

import numpy as np

from fuzzcluster.csvio import METRICS_HEADER
from fuzzcluster.fis1 import _breakpoints, _trap_degrees
from fuzzcluster.fis2 import _fire, _firing_tables, _footprint_degrees, _footprint_tables
from fuzzcluster.network import deploy_from_rng
from fuzzcluster.protocols import RoundPlan
from fuzzcluster.rng import Xorshift64Star
from fuzzcluster.simulator import RoundMetrics, SimConfig


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
        chance=np.array([c.chance for c in clusters]),
        sizes=np.array([len(c.members) for c in clusters], dtype=np.intp),
        members=np.array([m for c in clusters for m in c.members], dtype=np.intp),
        next_hop=np.array([-1 if routes[h] is None else heads.index(routes[h]) for h in heads]),
        control_spend=np.zeros(net.n),
    )
