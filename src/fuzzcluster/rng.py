"""Deterministic 64-bit PRNG so identical seeds replay identical runs."""

import numpy as np

MASK64 = (1 << 64) - 1

# xorshift64* multiplier (Vigna) and a nonzero pad for the forbidden zero seed.
_MULT = 2685821657736338717
_ZERO_SEED_PAD = 0x9E3779B97F4A7C15

# The xorshift step is linear over GF(2), so the state k steps on is the XOR,
# over the set bits b of the state now, of the state k steps on from bit b
# alone. _TABLE[b, i] holds the latter for i + 1 steps, as uint64. It is
# built on demand, out to the most steps one gather has asked for and at most
# TABLE_STEPS columns (512 KiB).
TABLE_STEPS = 1024
# Table entries one gather may copy: 64 KiB, below glibc malloc's 128 KiB
# mmap threshold, so no gather is mapped and faulted in afresh.
GATHER_WORDS = 8192
_TABLE = np.empty((64, 0), dtype=np.uint64)
# the 64 lanes of a packed state: lane b of a 4096-bit int is bits 64b..64b+63
_LANES = sum(1 << (64 * b) for b in range(64))
_KEEP_12, _KEEP_25, _KEEP_27 = (
    (MASK64 >> 12) * _LANES,
    (MASK64 << 25 & MASK64) * _LANES,
    (MASK64 >> 27) * _LANES,
)


def _table(steps: int) -> np.ndarray:
    """The jump table with at least ``steps`` columns (``steps`` <= TABLE_STEPS).

    New columns step all 64 single-bit states at once, packed as the lanes of
    one Python int; each mask keeps the shifted bits inside their own lane."""
    global _TABLE
    have = _TABLE.shape[1]
    if have < steps:
        start = _TABLE[:, -1] if have else np.uint64(1) << np.arange(64, dtype=np.uint64)
        x = int.from_bytes(start.astype("<u8").tobytes(), "little")
        cols = []
        for _ in range(steps - have):
            x ^= (x >> 12) & _KEEP_12
            x ^= (x << 25) & _KEEP_25
            x ^= (x >> 27) & _KEEP_27
            cols.append(x.to_bytes(512, "little"))
        # C order, so that each bit's row is contiguous
        table = np.empty((64, steps), dtype=np.uint64)
        table[:, :have] = _TABLE
        table[:, have:] = np.frombuffer(b"".join(cols), dtype="<u8").reshape(-1, 64).T
        _TABLE = table
    return _TABLE


class Xorshift64Star:
    """xorshift64* with the published (12, 25, 27) shift triple.

    A simulation run owns exactly one instance and consumes draws in a
    documented fixed order (deployment first, then per-round node draws by
    ascending id), which makes runs reproducible across platforms. Its only
    state is ``_state``, a Python int; the jump table is shared by the module.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64
        if self._state == 0:
            self._state = _ZERO_SEED_PAD

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self._state = x
        return (x * _MULT) & MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniforms(self, k: int) -> np.ndarray:
        """The next k random() values as one float64 array, leaving the
        generator where k random() calls would, bit for bit.

        Each block of states is one gather and XOR-reduce over the jump table
        rows of the state's set bits; the scramble runs on uint64 arrays,
        where the product wraps as the masked int product does."""
        states = np.empty(k, dtype=np.uint64)
        s, done = self._state, 0
        while done < k:
            m = min(k - done, GATHER_WORDS // s.bit_count(), TABLE_STEPS)
            octets = np.frombuffer(s.to_bytes(8, "little"), np.uint8)
            bits = np.unpackbits(octets, bitorder="little").view(bool)
            np.bitwise_xor.reduce(_table(m)[bits, :m], axis=0, out=states[done : done + m])
            done += m
            s = int(states[done - 1])
        self._state = s
        states *= np.uint64(_MULT)
        states >>= np.uint64(11)
        return np.multiply(states, 2.0 ** -53)
