import numpy as np

from fuzzcluster.fis1 import mf_degrees
from fuzzcluster.fis2 import interval_degrees


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
