"""Network state as per-node arrays, seeded uniform deployment and normalized
protocol inputs."""
from __future__ import annotations

import math

import numpy as np

from .fis1 import RuleBase1, firing_outputs
from .rng import Xorshift64Star

# Entries per block of dist rows when building the distance matrix, counting
# neighbors, joining (block_rows(n) head rows at a time), pricing control
# messages and routing. A block takes block_rows(width) rows of a width-wide
# slice (8 bytes an entry), however many rows a call needs: 32 rows (250 KiB)
# at 1000 nodes and 320 at 100 nodes, so a 100-node round (at most 3n message
# groups) is priced in one block.
BLOCK_ENTRIES = 32_000


def block_rows(width: int) -> int:
    """Rows of a width-wide block under BLOCK_ENTRIES (at least one)."""
    return max(1, BLOCK_ENTRIES // max(1, width))


def check_deployment(
    n: int, area_side: float, bs_pos: tuple[float, float], initial_energy: float, positions=None
) -> np.ndarray | None:
    """The rules of a deployment of n nodes on the field [0, area_side]^2,
    each raising a ValueError whose message starts with its field. Returns
    positions, (x, y) by node id, as an (n, 2) float array (None for None)."""
    if n < 1:
        raise ValueError(f"n: must be at least 1, got {n}")
    # each rule below is written as "not inside", so that NaN fails it too
    if not 0.0 < area_side < math.inf:
        raise ValueError(f"area_side: must be positive and finite, got {area_side}")
    if not 1e-100 <= area_side <= 1e100:  # so that every squared distance is a normal float
        raise ValueError(f"area_side: must lie in [1e-100, 1e100], got {area_side}")
    if not all(math.isfinite(c) for c in bs_pos):
        raise ValueError(f"bs_pos: must be finite, got {bs_pos}")
    for axis, c in zip("xy", bs_pos):
        if not -1e100 <= c <= 1e100:  # so that every squared sink distance is finite
            raise ValueError(f"bs_pos: {axis} must lie in [-1e100, 1e100], got {c}")
    if not 0.0 < initial_energy < math.inf:
        raise ValueError(f"initial_energy: must be positive and finite, got {initial_energy}")
    if positions is None:
        return None
    pos = np.array(positions, dtype=float)
    # rows are counted first, so that an empty list is 0 nodes, not a bad shape
    if pos.ndim and len(pos) != n:
        raise ValueError(f"positions: {len(pos)} nodes listed, n is {n}")
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions: must be an (n, 2) array, got shape {pos.shape}")
    outside = np.flatnonzero(~((pos >= 0.0) & (pos <= area_side)).all(axis=1))
    if len(outside):
        i = outside[0]
        raise ValueError(f"positions: node {i} at ({pos[i, 0]}, {pos[i, 1]}) outside [0, {area_side}]^2")
    return pos


class Network:
    """Static geometry (positions never move after deployment) plus every
    per-node value a run carries between rounds, indexed by node id and owned
    by a single simulation run: residual ``energy``, ``alive``, and two
    caches that only this module reads or writes: ``_neighbors``, the counts
    that neighbor_count keeps, and ``_fis1``, the last type-1 outputs of each
    node that type1_outputs keeps."""

    def __init__(
        self,
        positions: np.typing.ArrayLike,
        bs_pos: tuple[float, float],
        area_side: float,
        initial_energy: float,
    ):
        pos = np.asarray(positions, dtype=float)  # a scalar is one node, which the shape rule rejects
        pos = check_deployment(len(pos) if pos.ndim else 1, area_side, bs_pos, initial_energy, pos)
        self.n = len(pos)
        self.bs_pos = (float(bs_pos[0]), float(bs_pos[1]))
        self.area_side = float(area_side)
        self.initial_energy = float(initial_energy)
        self.energy = np.full(self.n, self.initial_energy)
        self.alive = np.ones(self.n, dtype=bool)
        # neighbor_count's (radius, count per node, alive mask counted at)
        self._neighbors: tuple = (None, None, None)
        # type1_outputs' (rule base, sample count, firing column per node,
        # outputs per node) of each node's last type-1 evaluation
        self._fis1: tuple = (None, None, None, None)

        # a block of rows at a time, one axis after the other, squared and
        # summed in place: the same bits as summing an (n, n, 2) tensor of
        # squared differences, with one n x n array alive at the peak
        self.dist = np.empty((self.n, self.n))
        step = block_rows(self.n)
        for s in range(0, self.n, step):
            block = np.subtract.outer(pos[s : s + step, 0], pos[:, 0])
            block *= block
            dy = np.subtract.outer(pos[s : s + step, 1], pos[:, 1])
            dy *= dy
            block += dy
            np.sqrt(block, out=self.dist[s : s + step])
        self.positions = pos
        self.bs_dist = np.sqrt(((pos - np.array(self.bs_pos)) ** 2).sum(axis=-1))
        self.d_max = float(self.bs_dist.max())
        self.positions.setflags(write=False)
        self.dist.setflags(write=False)
        self.bs_dist.setflags(write=False)

    def total_energy(self) -> float:
        # exact summation: round-trip accounting is checked at 1e-12 relative;
        # fsum reads a list of floats faster than an array's numpy scalars
        return math.fsum(self.energy.tolist())


def deploy_from_rng(
    n: int,
    m: float,
    bs_pos: tuple[float, float],
    rng: Xorshift64Star,
    initial_energy: float = 1.0,
) -> Network:
    """Uniform deployment consuming 2n draws as one block (x then y,
    ascending node id)."""
    check_deployment(n, m, bs_pos, initial_energy)  # before a negative n reaches the draws
    return Network(rng.uniforms(2 * n).reshape(n, 2) * m, bs_pos, m, initial_energy)


def network_from_positions(
    positions: np.typing.ArrayLike,
    m: float,
    bs_pos: tuple[float, float],
    initial_energy: float = 1.0,
) -> Network:
    """Replay an exact topology from (x, y) pairs ordered by node id."""
    return Network(positions, bs_pos, m, initial_energy)


def neighbor_count(net: Network, ids: np.typing.ArrayLike, radius: float) -> np.ndarray:
    """Per id, the alive nodes other than it within Euclidean distance <= radius
    (an int is one id). The network keeps the counts of one radius and the
    alive mask they follow: a call adds the nodes alive since, revived ones
    too, and subtracts the nodes dead since; a new radius starts from none.
    Counts are integers, so the order of the additions cannot change one,
    and a round pays in proportion to its deaths, not to its candidates."""
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    ids = np.atleast_1d(np.asarray(ids, dtype=np.intp))
    step = block_rows(net.n)  # dist rows at a time
    counted_radius, counts, counted = net._neighbors
    if radius != counted_radius:
        counts, counted = np.zeros(net.n, dtype=np.intp), np.zeros(net.n, dtype=bool)
    # dist is symmetric, so a node's row holds the nodes that count it; its own
    # zero distance counts itself, which is taken off again
    for sign, changed in ((1, net.alive & ~counted), (-1, counted & ~net.alive)):
        rows = np.flatnonzero(changed)
        for s in range(0, len(rows), step):
            counts += sign * (net.dist[rows[s : s + step]] <= radius).sum(axis=0)
        counts[rows] -= sign
    net._neighbors = (radius, counts, net.alive.copy())
    return counts[ids]


def type1_outputs(net: Network, rb: RuleBase1, samples: int, ids: np.ndarray, fire: np.ndarray) -> np.ndarray:
    """The outputs of rb, one row per output and one column per id, for the
    firing columns fire of the distinct ids, as fis1.firing_outputs gives them.

    The network keeps each node's last firing column and outputs, and the rule
    base and sample count they were made with (a new one starts from none):
    only the ids whose column differs in any bit from their node's kept one
    are inferred and defuzzified. An output is a function of its column's bits
    alone, so a kept output is the one a fresh evaluation would give. A node's
    energy sits on the flat top of its highest term for much of its life and
    its concentration saturates at 1, so its column often repeats."""
    kept_rb, kept_samples, columns, outputs = net._fis1
    if rb is not kept_rb or samples != kept_samples:
        columns = np.full((len(fire), net.n), np.nan)  # NaN matches no firing
        outputs = np.empty((len(rb.outputs), net.n))
        net._fis1 = (rb, samples, columns, outputs)
    diff = (columns.take(ids, axis=1).view(np.uint64) != fire.view(np.uint64)).any(axis=0)
    changed = ids[diff]
    if len(changed):
        fire = fire[:, diff]
        outputs[:, changed] = firing_outputs(rb, fire, samples)
        columns[:, changed] = fire
    return outputs.take(ids, axis=1)


def expected_count(n: int, area_side: float, radius: float) -> float:
    """Nodes expected within radius of a point when n nodes spread uniformly over the square."""
    return n / (area_side * area_side) * math.pi * radius * radius


def normalize_inputs(
    net: Network, ids: np.typing.ArrayLike, nbr_radius: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per id (an int is one id), (db, re, conc) in [0, 1]: BS distance over
    the network maximum, residual energy fraction, and neighbor count relative
    to the uniform-density expectation inside nbr_radius (clamped at 1). With
    no nbr_radius, conc is None and no neighbor is counted (type2fl reads only
    db and re)."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.intp))
    dead = ids[~net.alive[ids]]
    if len(dead):
        raise ValueError(f"node {dead[0]} is dead")
    db = net.bs_dist[ids] / net.d_max if net.d_max > 0.0 else np.zeros(len(ids))
    re = np.minimum(1.0, np.maximum(0.0, net.energy[ids] / net.initial_energy))
    if nbr_radius is None:
        return db, re, None
    expected = expected_count(net.n, net.area_side, nbr_radius)
    return db, re, np.minimum(1.0, neighbor_count(net, ids, nbr_radius) / expected)
