"""First-order radio energy model."""
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
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name}: must be positive and finite")
        for name in ("packet_bits", "ctrl_bits"):
            bits = getattr(self, name)
            if not 1 <= bits <= 2**53:  # priced as a float, which holds up to 2**53 exactly
                raise ValueError(f"{name}: must be at {'least 1' if bits < 1 else 'most 2**53'}, got {bits}")


def threshold_distance(p: RadioParams) -> float:
    """Crossover distance between the free-space and multipath amplifier regimes."""
    return math.sqrt(p.eps_fs / p.eps_mp)


def tx_energy(p: RadioParams, bits: float, d: np.typing.ArrayLike) -> np.ndarray:
    """Cost of transmitting `bits` over each distance in d (two-regime
    amplifier); a float is a one-point array.

    Beyond d0 the fourth power is libm ``pow`` on each entry, through numpy's
    ``float_power`` loop: it gives Python's ``x**4`` bit for bit, while
    numpy's array ``d ** 4`` differs from it in the last bit for some
    distances, and the priced outputs are pinned to the libm bits. A fourth
    power that overflows is inf."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    out = bits * p.e_elec + bits * p.eps_fs * d * d
    # "not within d0" so that a NaN distance takes the multipath branch, as the
    # one-distance comparison did
    far = ~(d <= threshold_distance(p))
    if far.any():
        out[far] = bits * p.e_elec + bits * p.eps_mp * np.float_power(d[far], 4.0)
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
