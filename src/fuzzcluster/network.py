"""Network state as per-node arrays, seeded uniform deployment and normalized
protocol inputs."""
from __future__ import annotations

import math

import numpy as np

from .rng import Xorshift64Star


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

        diff = pos[:, None, :] - pos[None, :, :]
        self.positions = pos
        self.dist = np.sqrt((diff ** 2).sum(axis=-1))
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


def neighbor_count(net: Network, node_id: int, radius: float) -> int:
    """Alive nodes other than node_id within Euclidean distance <= radius."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    mask = (net.dist[node_id] <= radius) & net.alive
    mask[node_id] = False
    return int(mask.sum())


def normalize_inputs(net: Network, node_id: int, nbr_radius: float) -> tuple[float, float, float]:
    """(db, re, conc) in [0, 1]: BS distance over the network maximum, residual
    energy fraction, and neighbor count relative to the uniform-density
    expectation inside nbr_radius (clamped at 1)."""
    if not net.alive[node_id]:
        raise ValueError(f"node {node_id} is dead")
    db = net.bs_dist[node_id] / net.d_max if net.d_max > 0.0 else 0.0
    re = min(1.0, max(0.0, net.energy[node_id] / net.initial_energy))
    density = net.n / (net.area_side * net.area_side)
    expected = density * math.pi * nbr_radius * nbr_radius
    conc = min(1.0, neighbor_count(net, node_id, nbr_radius) / expected)
    return float(db), float(re), float(conc)
