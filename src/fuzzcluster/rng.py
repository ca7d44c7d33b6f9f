"""Deterministic 64-bit PRNG so identical seeds replay identical runs."""

MASK64 = (1 << 64) - 1

# xorshift64* multiplier (Vigna) and a nonzero pad for the forbidden zero seed.
_MULT = 2685821657736338717
_ZERO_SEED_PAD = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """xorshift64* with the published (12, 25, 27) shift triple.

    A simulation run owns exactly one instance and consumes draws in a
    documented fixed order (deployment first, then per-round node draws by
    ascending id), which makes runs reproducible across platforms.
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
