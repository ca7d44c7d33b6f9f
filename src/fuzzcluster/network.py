"""Network state as per-node arrays, seeded uniform deployment and normalized
protocol inputs."""
from __future__ import annotations

import math

import numpy as np

from .rng import Xorshift64Star

# Ids per block when counting neighbors: a block copies ROW_CHUNK rows of the
# n x n distance matrix (250 KiB at 1000 nodes), however many ids are asked for.
ROW_CHUNK = 32


class Network:
    """Static geometry (positions never move after deployment) plus per-node
    residual ``energy`` and ``alive`` arrays, indexed by node id and owned by
    a single simulation run."""

    def __init__(
        self,
        positions: np.typing.ArrayLike,
        bs_pos: tuple[float, float],
        area_side: float,
        initial_energy: float,
    ):
        pos = np.array(positions, dtype=float)
        if pos.size == 0:
            raise ValueError("network needs at least one node")
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be an (n, 2) array, got shape {pos.shape}")
        if area_side <= 0.0:
            raise ValueError("area_side must be positive")
        if initial_energy <= 0.0:
            raise ValueError("initial_energy must be positive")
        # written as "not inside" so that NaN coordinates are rejected too
        outside = np.flatnonzero(~((pos >= 0.0) & (pos <= area_side)).all(axis=1))
        if len(outside):
            i = outside[0]
            raise ValueError(f"node {i} at ({pos[i, 0]}, {pos[i, 1]}) outside [0, {area_side}]^2")
        self.n = len(pos)
        self.bs_pos = (float(bs_pos[0]), float(bs_pos[1]))
        self.area_side = float(area_side)
        self.initial_energy = float(initial_energy)
        self.energy = np.full(self.n, self.initial_energy)
        self.alive = np.ones(self.n, dtype=bool)

        # one axis at a time, squared and summed in place: the same bits as
        # summing an (n, n, 2) tensor of squared differences, with two n x n
        # arrays alive at the peak instead of five
        dist = np.subtract.outer(pos[:, 0], pos[:, 0])
        dist *= dist
        dy = np.subtract.outer(pos[:, 1], pos[:, 1])
        dy *= dy
        dist += dy
        del dy
        self.positions = pos
        self.dist = np.sqrt(dist, out=dist)
        self.bs_dist = np.sqrt(((pos - np.array(self.bs_pos)) ** 2).sum(axis=-1))
        self.d_max = float(self.bs_dist.max())
        self.positions.setflags(write=False)
        self.dist.setflags(write=False)
        self.bs_dist.setflags(write=False)

    def total_energy(self) -> float:
        # exact summation: round-trip accounting is checked at 1e-12 relative
        return math.fsum(self.energy)


def deploy_from_rng(
    n: int,
    m: float,
    bs_pos: tuple[float, float],
    rng: Xorshift64Star,
    initial_energy: float = 1.0,
) -> Network:
    """Uniform deployment consuming 2n draws (x then y, ascending node id)."""
    if n < 1:
        raise ValueError("need at least one node")
    positions = [(rng.random() * m, rng.random() * m) for _ in range(n)]
    return Network(positions, bs_pos, m, initial_energy)


def deploy(
    n: int,
    m: float,
    bs_pos: tuple[float, float],
    seed: int,
    initial_energy: float = 1.0,
) -> Network:
    """Seeded deployment: identical arguments always yield identical networks."""
    return deploy_from_rng(n, m, bs_pos, Xorshift64Star(seed), initial_energy)


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
    (an int is one id)."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    ids = np.atleast_1d(np.asarray(ids, dtype=np.intp))
    counts = np.empty(len(ids), dtype=np.intp)
    # ROW_CHUNK rows of dist at a time, not a len(ids) x n copy
    for s in range(0, len(ids), ROW_CHUNK):
        part = ids[s : s + ROW_CHUNK]
        mask = (net.dist[part] <= radius) & net.alive
        mask[np.arange(len(part)), part] = False
        counts[s : s + ROW_CHUNK] = mask.sum(axis=1)
    return counts


def normalize_inputs(
    net: Network, ids: np.typing.ArrayLike, nbr_radius: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per id (an int is one id), (db, re, conc) in [0, 1]: BS distance over
    the network maximum, residual energy fraction, and neighbor count relative
    to the uniform-density expectation inside nbr_radius (clamped at 1)."""
    ids = np.atleast_1d(np.asarray(ids, dtype=np.intp))
    dead = ids[~net.alive[ids]]
    if len(dead):
        raise ValueError(f"node {dead[0]} is dead")
    db = net.bs_dist[ids] / net.d_max if net.d_max > 0.0 else np.zeros(len(ids))
    re = np.minimum(1.0, np.maximum(0.0, net.energy[ids] / net.initial_energy))
    density = net.n / (net.area_side * net.area_side)
    expected = density * math.pi * nbr_radius * nbr_radius
    conc = np.minimum(1.0, neighbor_count(net, ids, nbr_radius) / expected)
    return db, re, conc
