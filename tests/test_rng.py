"""Block draws: Xorshift64Star.uniforms(k) against k random() calls."""
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from fuzzcluster import rng as rng_module
from fuzzcluster.rng import MASK64, TABLE_STEPS, Xorshift64Star

# 0 is the padded seed; 1 and 2**63 have one set bit, 2**64 - 1 has 64. Every
# block but a call's last is TABLE_STEPS long, so the sizes end one, eight and
# about sixteen blocks, each on either side of a block's end.
SEEDS = [0, 1, 2**63, MASK64]
SIZES = [0, 1, 63, 64, 65, *(n * TABLE_STEPS + d for n in (1, 8) for d in (-1, 0, 1)), 2000]


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


def test_table_is_one_read_only_constant():
    table = rng_module._TABLE
    assert table.shape == (64, TABLE_STEPS) and table.dtype == np.uint64
    assert table.flags.c_contiguous and not table.flags.writeable
    assert table.nbytes == 64 * 1024


def test_table_row_steps_a_single_bit():
    for b in (0, 11, 37, 63):
        r = Xorshift64Star(1 << b)
        steps = []
        for _ in range(TABLE_STEPS):
            r.next_u64()
            steps.append(r._state)
        assert rng_module._TABLE[b].tolist() == steps


def test_pickled_generator_carries_no_table():
    rng = Xorshift64Star(5)
    rng.uniforms(300)
    copy = pickle.loads(pickle.dumps(rng))
    assert vars(copy) == {"_state": rng._state}
    assert len(pickle.dumps(rng)) < 200
    assert copy.uniforms(10).tolist() == rng.uniforms(10).tolist()


def test_block_temporaries_stay_below_the_mmap_threshold():
    rng = Xorshift64Star(MASK64)  # 64 set bits: the widest gathers
    peak, _ = traced_peak(rng.uniforms, 1000)
    # states and result (8 KB each) beside one gather of at most the table
    assert peak < 128 * 1024
