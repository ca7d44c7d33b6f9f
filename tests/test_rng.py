"""Block draws: Xorshift64Star.uniforms(k) against k random() calls."""
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzcluster import rng as rng_module
from fuzzcluster.rng import GATHER_WORDS, MASK64, TABLE_STEPS, Xorshift64Star

# 0 is the padded seed; 1 and 2**63 have one set bit, so their first block is
# TABLE_STEPS long; 2**64 - 1 has 64, so its blocks are GATHER_WORDS // 64 long
SEEDS = [0, 1, 2**63, MASK64]
SIZES = [0, 1, 63, 64, 65, TABLE_STEPS - 1, TABLE_STEPS, TABLE_STEPS + 1, 2000]


def sequential(rng, k):
    return [rng.random() for _ in range(k)]


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_block_equals_sequential_draws(seed, k):
    block, ref = Xorshift64Star(seed), Xorshift64Star(seed)
    got = block.uniforms(k)
    assert got.dtype == np.float64 and got.shape == (k,)
    assert got.tolist() == sequential(ref, k)
    assert block._state == ref._state
    assert type(block._state) is int


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, MASK64),
    blocks=st.lists(st.integers(0, 300), max_size=4),
    between=st.integers(0, 3),
)
def test_blocks_and_single_draws_interleave(seed, blocks, between):
    block, ref = Xorshift64Star(seed), Xorshift64Star(seed)
    for k in blocks:
        assert block.uniforms(k).tolist() == sequential(ref, k)
        assert sequential(block, between) == sequential(ref, between)
    assert block._state == ref._state


def test_table_grows_from_empty_to_its_cap(monkeypatch):
    monkeypatch.setattr(rng_module, "_TABLE", np.empty((64, 0), dtype=np.uint64))
    widths = []
    for seed, k in ((MASK64 // 3, 5), (MASK64 // 3, 600), (1, 3000)):
        block, ref = Xorshift64Star(seed), Xorshift64Star(seed)
        assert block.uniforms(k).tolist() == sequential(ref, k)
        assert block._state == ref._state
        widths.append(rng_module._TABLE.shape[1])
    # as wide as the longest block: 5 draws, then blocks of at most
    # GATHER_WORDS // (set bits) draws, then TABLE_STEPS from a one-bit state
    assert widths[0] == 5 and 5 < widths[1] < TABLE_STEPS and widths[2] == TABLE_STEPS
    assert rng_module._TABLE.nbytes == 512 * 1024
    assert rng_module._TABLE.flags.c_contiguous


def test_table_row_steps_a_single_bit():
    table = rng_module._table(70)
    for b in (0, 11, 37, 63):
        r = Xorshift64Star(1 << b)
        steps = []
        for _ in range(70):
            r.next_u64()
            steps.append(r._state)
        assert table[b, :70].tolist() == steps


def test_pickled_generator_carries_no_table():
    rng = Xorshift64Star(5)
    rng.uniforms(300)
    copy = pickle.loads(pickle.dumps(rng))
    assert vars(copy) == {"_state": rng._state}
    assert len(pickle.dumps(rng)) < 200
    assert copy.uniforms(10).tolist() == rng.uniforms(10).tolist()


def test_block_temporaries_stay_below_the_mmap_threshold():
    rng_module._table(TABLE_STEPS)  # the table is built outside the measurement
    rng = Xorshift64Star(MASK64)  # 64 set bits: the widest gathers
    tracemalloc.start()
    try:
        rng.uniforms(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # states and result (8 KB each) beside one gather of GATHER_WORDS words
    assert peak < 128 * 1024
