import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import CH2
from fuzzcluster.energy import RadioParams, agg_energy, rx_energy, threshold_distance, tx_energy


def test_threshold_distance_values():
    unit = RadioParams(1e-9, 1e-12, 1e-12, 1e-9, 1, 1)
    assert threshold_distance(unit) == pytest.approx(1.0, abs=1e-12)


def test_tx_energy_multipath_hand_value():
    # 2.0e-4 + 4000*0.0013pJ*200^4
    assert tx_energy(CH2, 4000, 200.0) == pytest.approx(8.52e-3, rel=1e-12)


def test_tx_energy_zero_distance():
    assert tx_energy(CH2, 4000, 0.0) == pytest.approx(4000 * 50e-9, rel=1e-15)


def test_tx_strictly_increasing_in_distance():
    d0 = threshold_distance(CH2)
    ds = [0.0, 10.0, 50.0, d0 - 1.0, d0, d0 + 1.0, 120.0, 200.0, 400.0]
    vals = [tx_energy(CH2, 4000, d) for d in ds]
    for lo, hi in zip(vals, vals[1:]):
        assert hi > lo


def test_rx_energy_values():
    assert rx_energy(CH2, 4000) == pytest.approx(2.0e-4, rel=1e-12)
    assert rx_energy(CH2, 200) == pytest.approx(1.0e-5, rel=1e-12)
    assert rx_energy(CH2, 1) == pytest.approx(CH2.e_elec, rel=1e-15)


def test_agg_energy_values():
    assert agg_energy(CH2, 4000, 5) == pytest.approx(1.0e-4, rel=1e-12)
    assert agg_energy(CH2, 4000, 0) == 0.0
    assert agg_energy(CH2, 1, 1) == pytest.approx(CH2.e_da, rel=1e-15)
    with pytest.raises(ValueError):
        agg_energy(CH2, 4000, -1)


@given(st.integers(1, 10_000), st.floats(0, 500))
def test_tx_plus_rx_linear_in_bits(bits, d):
    base = tx_energy(CH2, bits, d) + rx_energy(CH2, bits)
    assert tx_energy(CH2, 2 * bits, d) + rx_energy(CH2, 2 * bits) == pytest.approx(
        2 * base, rel=1e-12
    )
    assert tx_energy(CH2, 3 * bits, d) + rx_energy(CH2, 3 * bits) == pytest.approx(
        3 * base, rel=1e-12
    )


def test_threshold_identity():
    d0 = threshold_distance(CH2)
    assert d0 * d0 * CH2.eps_mp == pytest.approx(CH2.eps_fs, rel=1e-12)


def test_radio_params_validation():
    with pytest.raises(ValueError):
        RadioParams(0.0, 10e-12, 0.0013e-12, 5e-9, 4000, 200)
    with pytest.raises(ValueError):
        RadioParams(50e-9, 10e-12, 0.0013e-12, 5e-9, 0, 200)


D0 = threshold_distance(CH2)


@example(bits=4000, ds=[D0, math.nextafter(D0, math.inf), math.nan, math.inf])
@example(bits=200, ds=[0.0, 87.0, 1800.0, 1e77])
@given(
    st.integers(1, 10_000),
    # up to where a fourth power is still finite
    st.lists(st.floats(0, 1e77) | st.just(D0) | st.just(math.nan) | st.just(math.inf), min_size=1),
)
def test_tx_energy_matches_per_entry_formula_bit_for_bit(bits, ds):
    # the far branch is Python's x**4 (libm pow) on each entry; numpy's d ** 4
    # rounds some distances differently
    def one(x):
        if x <= D0:
            return bits * CH2.e_elec + bits * CH2.eps_fs * x * x
        return bits * CH2.e_elec + bits * CH2.eps_mp * x**4

    got = tx_energy(CH2, bits, ds)
    want = np.array([one(x) for x in ds])
    nan = np.isnan(want)
    assert np.isnan(got).tolist() == nan.tolist()
    assert got[~nan].view(np.uint64).tolist() == want[~nan].view(np.uint64).tolist()
