import numpy as np

from fuzzcluster.fis1 import mf_degrees
from fuzzcluster.fis2 import interval_degrees
from fuzzcluster.protocols import RoundPlan


def mf_at(mf, x):
    """Membership of each point of x (a float is one point) in mf."""
    return mf_degrees((mf,), np.atleast_1d(np.asarray(x, dtype=float)))[0]


def interval_at(imf, x):
    """(lower, upper) membership of each point of x (a float is one point) in imf."""
    lower, upper = interval_degrees((imf,), np.atleast_1d(np.asarray(x, dtype=float)))
    return lower[0], upper[0]


class FakeRng:
    """Scripted stand-in for the run RNG: hands out a fixed draw sequence."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.used = 0

    def random(self) -> float:
        v = self.draws[self.used]
        self.used += 1
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
