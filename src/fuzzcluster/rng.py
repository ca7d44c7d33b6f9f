"""Deterministic 64-bit PRNG so identical seeds replay identical runs."""

import numpy as np

MASK64 = (1 << 64) - 1

# xorshift64* multiplier (Vigna) and a nonzero pad for the forbidden zero seed.
_MULT = 2685821657736338717
_ZERO_SEED_PAD = 0x9E3779B97F4A7C15

# The xorshift step is linear over GF(2), so the state k steps on is the XOR,
# over the set bits b of the state now, of the state k steps on from bit b
# alone. _TABLE[b, i] holds the latter for i + 1 steps, as uint64: 64 rows of
# TABLE_STEPS columns, 64 KiB, built once at import and read-only. One gather
# copies at most the whole table, below glibc malloc's 128 KiB mmap threshold,
# so no gather is mapped and faulted in afresh.
TABLE_STEPS = 128


def _jump_columns() -> np.ndarray:
    """The 64 single-bit states stepped together TABLE_STEPS times; uint64
    shifts drop the bits shifted out, as the masked int step does."""
    x = np.uint64(1) << np.arange(64, dtype=np.uint64)
    table = np.empty((64, TABLE_STEPS), dtype=np.uint64)  # C order: rows contiguous
    for i in range(TABLE_STEPS):
        x ^= x >> np.uint64(12)
        x ^= x << np.uint64(25)
        x ^= x >> np.uint64(27)
        table[:, i] = x
    table.setflags(write=False)
    return table


_TABLE = _jump_columns()


class Xorshift64Star:
    """xorshift64* with the published (12, 25, 27) shift triple.

    A simulation run owns exactly one instance and consumes draws in a
    documented fixed order (deployment first, then per-round node draws by
    ascending id), which makes runs reproducible across platforms. Its only
    state is ``_state``, a Python int; the read-only jump table belongs to
    the module.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & MASK64 or _ZERO_SEED_PAD

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

        Each block of at most TABLE_STEPS states is one gather and XOR-reduce
        over the jump table rows of the state's set bits; the scramble runs on
        uint64 arrays, where the product wraps as the masked int product does."""
        states = np.empty(k, dtype=np.uint64)
        s, done = self._state, 0
        while done < k:
            m = min(k - done, TABLE_STEPS)
            octets = np.frombuffer(s.to_bytes(8, "little"), np.uint8)
            bits = np.unpackbits(octets, bitorder="little").view(bool)
            np.bitwise_xor.reduce(_TABLE[bits, :m], axis=0, out=states[done : done + m])
            done += m
            s = int(states[done - 1])
        self._state = s
        states *= np.uint64(_MULT)
        states >>= np.uint64(11)
        return np.multiply(states, 2.0 ** -53)
