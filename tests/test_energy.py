import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzcluster.energy import (
    RadioParams,
    agg_energy,
    rx_energy,
    threshold_distance,
    tx_energy,
)

CH2 = RadioParams(
    e_elec=50e-9, eps_fs=10e-12, eps_mp=0.0013e-12, e_da=5e-9, packet_bits=4000, ctrl_bits=200
)
CH3 = RadioParams(
    e_elec=50e-9, eps_fs=10e-12, eps_mp=0.0010e-12, e_da=5e-9, packet_bits=4000, ctrl_bits=200
)


def test_threshold_distance_values():
    assert threshold_distance(CH2) == pytest.approx(87.7058, abs=1e-3)
    assert threshold_distance(CH3) == pytest.approx(100.0, abs=1e-9)
    unit = RadioParams(1e-9, 1e-12, 1e-12, 1e-9, 1, 1)
    assert threshold_distance(unit) == pytest.approx(1.0, abs=1e-12)


def test_tx_energy_free_space_hand_value():
    # 4000*50nJ + 4000*10pJ*50^2 = 2.0e-4 + 1.0e-4
    assert tx_energy(CH2, 4000, 50.0) == pytest.approx(3.0e-4, rel=1e-12)


def test_tx_energy_multipath_hand_value():
    # 2.0e-4 + 4000*0.0013pJ*200^4
    assert tx_energy(CH2, 4000, 200.0) == pytest.approx(8.52e-3, rel=1e-12)


def test_tx_energy_zero_distance():
    assert tx_energy(CH2, 4000, 0.0) == pytest.approx(4000 * 50e-9, rel=1e-15)


def test_tx_continuous_at_threshold():
    d0 = threshold_distance(CH2)
    free = 4000 * CH2.e_elec + 4000 * CH2.eps_fs * d0 * d0
    multi = 4000 * CH2.e_elec + 4000 * CH2.eps_mp * d0 ** 4
    assert free == pytest.approx(multi, rel=1e-12)
    assert tx_energy(CH2, 4000, d0) == pytest.approx(free, rel=1e-15)


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
