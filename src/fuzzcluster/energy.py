"""First-order radio energy model and analytic cluster-geometry formulas."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RadioParams:
    """Radio constants in SI units (J/bit, J/bit/m^2, J/bit/m^4, J/bit/signal)."""

    e_elec: float
    eps_fs: float
    eps_mp: float
    e_da: float
    packet_bits: int
    ctrl_bits: int

    def __post_init__(self):
        for name in ("e_elec", "eps_fs", "eps_mp", "e_da"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.packet_bits < 1 or self.ctrl_bits < 1:
            raise ValueError("packet_bits and ctrl_bits must be at least 1")


def threshold_distance(p: RadioParams) -> float:
    """Crossover distance between the free-space and multipath amplifier regimes."""
    return math.sqrt(p.eps_fs / p.eps_mp)


def tx_energy(p: RadioParams, bits: float, d: np.typing.ArrayLike) -> np.ndarray:
    """Cost of transmitting `bits` over each distance in d (two-regime
    amplifier); a float is a one-point array.

    Beyond d0 the fourth power is Python's float power (libm ``pow``) on each
    entry: numpy's array ``d ** 4`` differs from it in the last bit for some
    distances, and the priced outputs are pinned to the libm bits."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    out = bits * p.e_elec + bits * p.eps_fs * d * d
    # "not within d0" so that a NaN distance takes the multipath branch, as the
    # one-distance comparison did
    far = ~(d <= threshold_distance(p))
    if far.any():
        d4 = np.array([x**4 for x in d[far].tolist()])
        out[far] = bits * p.e_elec + bits * p.eps_mp * d4
    return out


def rx_energy(p: RadioParams, bits: float) -> float:
    """Cost of receiving `bits`."""
    return bits * p.e_elec


def agg_energy(p: RadioParams, bits: float, n_signals: np.typing.ArrayLike) -> np.ndarray:
    """Cost of aggregating n_signals packets of `bits` each, per entry of
    n_signals (an int is one entry)."""
    n_signals = np.atleast_1d(np.asarray(n_signals))
    if (n_signals < 0).any():
        raise ValueError("n_signals must be nonnegative")
    return p.e_da * bits * n_signals


@dataclass(frozen=True)
class ClusterStats:
    mean_sq_dist_to_ch: float
    mean_dist_to_bs: float
    ch_spacing: float


def analytic_cluster_stats(m: float, k: int) -> ClusterStats:
    """Uniform-deployment expectations for K equal circular clusters in an
    M x M field: E[d^2] to the head, mean head-to-sink distance, head spacing."""
    if m <= 0.0 or k < 1:
        raise ValueError("need m > 0 and k >= 1")
    return ClusterStats(
        mean_sq_dist_to_ch=m * m / (2.0 * math.pi * k),
        mean_dist_to_bs=0.765 * m / 2.0,
        ch_spacing=2.0 * m / math.sqrt(math.pi * k),
    )


def optimal_cluster_count(p: RadioParams, m: float, n_nodes: int, d_to_bs: float) -> float:
    """Energy-minimizing cluster count for the two-regime radio (real-valued;
    callers round)."""
    if m <= 0.0 or n_nodes < 0 or d_to_bs <= 0.0:
        raise ValueError("need m > 0, n_nodes >= 0, d_to_bs > 0")
    return (m / (d_to_bs * d_to_bs)) * math.sqrt(n_nodes / (2.0 * math.pi)) * math.sqrt(
        p.eps_fs / p.eps_mp
    )
