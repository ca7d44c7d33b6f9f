import math
import re
from dataclasses import asdict, replace

import pytest

from conftest import plan_from
from fuzzcluster.energy import RadioParams
from fuzzcluster.fis2 import default_rulebase2
from fuzzcluster.network import network_from_positions
from fuzzcluster.protocols import Cluster, ProtocolParams
from fuzzcluster.simulator import (
    RoundMetrics,
    SimConfig,
    apply_round_energy,
    lifetime_metrics,
    run_simulation,
)

RADIO = RadioParams(
    e_elec=50e-9, eps_fs=10e-12, eps_mp=0.0013e-12, e_da=5e-9, packet_bits=4000, ctrl_bits=200
)


def scenario1(kind="leach", **kw):
    return SimConfig(
        n=100,
        area_side=100.0,
        bs_pos=(50.0, 175.0),
        initial_energy=0.5,
        radio=RADIO,
        protocol=ProtocolParams(kind=kind, p=0.05, r_min=10.0, r_max=40.0),
        **kw,
    )


# --- energy application -------------------------------------------------------


def test_round_energy_hand_case():
    # head at 40 m from the sink, one member 50 m from the head, control off
    net = network_from_positions([(0.0, 40.0), (0.0, 90.0)], 100.0, (0.0, 0.0))
    plan = plan_from(net, [Cluster(0, [1], 30.0)], {0: None})
    spend = apply_round_energy(net, plan, RADIO)
    assert spend[1] == pytest.approx(3.0e-4, rel=1e-12)  # tx(4000, 50)
    # rx(4000) + agg(4000, 2 signals) + tx(4000, 40)
    assert spend[0] == pytest.approx(2.0e-4 + 4.0e-5 + 2.64e-4, rel=1e-12)


def test_round_energy_lone_head():
    net = network_from_positions([(0.0, 40.0)], 100.0, (0.0, 0.0))
    plan = plan_from(net, [Cluster(0, [], 30.0)], {0: None})
    spend = apply_round_energy(net, plan, RADIO)
    assert spend[0] == pytest.approx(2.0e-5 + 2.64e-4, rel=1e-12)  # agg(1 signal) + tx


def test_round_energy_relay_forwarding():
    # head 0 relays through head 1; relay pays rx + tx for the forwarded packet
    net = network_from_positions([(0.0, 150.0), (0.0, 90.0)], 200.0, (0.0, 0.0))
    plan = plan_from(
        net, [Cluster(0, [], 30.0), Cluster(1, [], 30.0)], {0: 1, 1: None}
    )
    spend = apply_round_energy(net, plan, RADIO)
    tx_60 = 4000 * (50e-9 + 10e-12 * 60.0**2)
    tx_90 = 4000 * 50e-9 + 4000 * 0.0013e-12 * 90.0**4  # 90 m > d0, multipath
    agg = 4000 * 5e-9
    rx = 4000 * 50e-9
    assert spend[0] == pytest.approx(agg + tx_60, rel=1e-12)
    assert spend[1] == pytest.approx(agg + rx + 2 * tx_90, rel=1e-12)


def test_clamp_drains_everything_and_kills():
    net = network_from_positions([(0.0, 40.0), (0.0, 90.0)], 100.0, (0.0, 0.0))
    net.energy[1] = 1e-9
    plan = plan_from(net, [Cluster(0, [1], 30.0)], {0: None})
    spend = apply_round_energy(net, plan, RADIO)
    assert spend[1] == pytest.approx(1e-9, rel=1e-15)
    assert net.energy[1] == 0.0
    assert not net.alive[1]


def test_spend_matches_residual_delta():
    net = network_from_positions(
        [(0.0, 40.0), (0.0, 90.0), (30.0, 40.0)], 100.0, (0.0, 0.0)
    )
    before = net.total_energy()
    plan = plan_from(net, [Cluster(0, [1, 2], 30.0)], {0: None})
    spend = apply_round_energy(net, plan, RADIO)
    assert spend.sum() == pytest.approx(before - net.total_energy(), rel=1e-12)


def test_doubling_packet_bits_doubles_data_spend():
    def one_round(radio):
        cfg = scenario1("fuzzy_unequal", max_rounds=1, seed=6)
        cfg.radio = radio
        cfg.protocol = ProtocolParams(
            kind="fuzzy_unequal", p=0.05, r_min=10.0, r_max=40.0, control_traffic=False
        )
        run = run_simulation(cfg)
        return run.rounds[0].spent_j

    doubled = RadioParams(
        RADIO.e_elec, RADIO.eps_fs, RADIO.eps_mp, RADIO.e_da, 8000, RADIO.ctrl_bits
    )
    assert one_round(doubled) == 2.0 * one_round(RADIO)


# --- lifetime metrics -----------------------------------------------------------


def _metrics(seq):
    return [
        RoundMetrics(round=i + 1, alive=a, dead=100 - a, total_j=0.0, avg_j=0.0, ch_count=1)
        for i, a in enumerate(seq)
    ]


def test_fnd_from_alive_series():
    fnd, _, _ = lifetime_metrics(_metrics([100, 100, 99, 98]), 100)
    assert fnd == 3


def test_hnd_at_half_dead():
    rounds = _metrics([100] * 2 + [51] + [50])
    rounds[2].round, rounds[3].round = 609, 610
    fnd, hnd, _ = lifetime_metrics(rounds, 100)
    assert hnd == 610


def test_no_deaths_leaves_all_absent():
    assert lifetime_metrics(_metrics([100, 100, 100]), 100) == (None, None, None)


def test_lnd_defined_when_all_dead():
    _, _, lnd = lifetime_metrics(_metrics([100, 40, 0]), 100)
    assert lnd == 3


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        lifetime_metrics([], 100)


# --- whole simulations -------------------------------------------------------------


def test_simulation_deterministic():
    cfg = scenario1("leach", max_rounds=150, seed=4)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.rounds == b.rounds
    assert (a.fnd, a.hnd, a.lnd) == (b.fnd, b.hnd, b.lnd)


def test_energy_override_forces_first_round_death():
    cfg = scenario1("leach", max_rounds=5, seed=1, energy_overrides={3: 1e-6})
    result = run_simulation(cfg)
    assert result.fnd == 1


def test_monotone_mortality_and_event_ordering():
    cfg = scenario1("leach", max_rounds=1500, seed=2)
    result = run_simulation(cfg)
    deads = [m.dead for m in result.rounds]
    assert deads == sorted(deads)
    totals = [m.total_j for m in result.rounds]
    for a, b in zip(totals, totals[1:]):
        assert b <= a + 1e-15
    assert result.fnd is not None and result.hnd is not None and result.lnd is not None
    assert result.fnd <= result.hnd <= result.lnd


def test_leach_scenario1_lifetime_band_and_golden():
    cfg = scenario1("leach", max_rounds=3000, seed=1)
    result = run_simulation(cfg)
    assert 50 <= result.fnd <= 400
    # golden regression values for this seed, established on the first run
    assert (result.fnd, result.hnd, result.lnd) == (357, 638, 992)


def test_dissipation_reported_at_events():
    cfg = scenario1("leach", max_rounds=1500, seed=3)
    result = run_simulation(cfg)
    assert result.fnd_energy is not None and result.fnd_energy > 0.0
    assert result.hnd_energy is not None and result.hnd_energy > 0.0


def test_round_metrics_are_consistent():
    cfg = scenario1("fuzzy_unequal", max_rounds=40, seed=9)
    result = run_simulation(cfg)
    for m in result.rounds:
        assert m.alive + m.dead == 100
        assert m.ch_count >= 1
        if m.alive:
            assert m.avg_j == pytest.approx(m.total_j / m.alive, rel=1e-12)


def test_config_validation_errors():
    cfg = scenario1("leach")
    cfg.n = 0
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = scenario1("leach", energy_overrides={200: 0.1})
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = scenario1("leach", max_rounds=0)
    with pytest.raises(ValueError):
        cfg.validate()


def test_seed_must_fit_the_generator():
    # the generator keeps 64 bits of its seed, so 2**64 + 1 would replay seed 1
    replace(scenario1("leach"), seed=2**64 - 1).validate()
    for seed in (2**64, 2**64 + 1, -1):
        with pytest.raises(ValueError, match=rf"^seed: must lie in \[0, 2\*\*64\), got {seed}$"):
            replace(scenario1("leach"), seed=seed).validate()
    with pytest.raises(ValueError, match="^seed: "):
        run_simulation(scenario1("leach", max_rounds=1, seed=2**64 + 1))


def _bad_field_cases():
    """(build, field): build() must raise a ValueError that starts with 'field:'."""
    protocol = dict(kind="leach", p=0.05, r_min=10.0, r_max=40.0)
    for v in (math.nan, math.inf, -math.inf):
        sim = {
            "area_side": {"area_side": v},
            "initial_energy": {"initial_energy": v},
            "bs_pos": {"bs_pos": (v, 0.0)},
            "energy_overrides": {"energy_overrides": {3: v}},
            "positions": {"positions": [(50.0, 50.0)] * 99 + [(50.0, v)]},
        }
        for field, kw in sim.items():
            yield pytest.param(
                lambda kw=kw: replace(scenario1("leach"), **kw).validate(), field,
                id=f"SimConfig-{field}-{v}",
            )
        # a config's footprint widths are set through its rules2, whose builder checks them
        for name, field, kw in (
            ("blur", "blur", {"blur": v}),
            ("blur_overrides.energy", "blur.energy", {"blur_overrides": {"energy": v}}),
        ):
            yield pytest.param(
                lambda kw=kw: replace(scenario1("type2fl"), rules2=default_rulebase2(**kw)), field,
                id=f"SimConfig-{name}-{v}",
            )
        for field in ("p", "r_min", "r_max", "nbr_radius"):
            yield pytest.param(
                lambda kw={**protocol, field: v}: ProtocolParams(**kw), field,
                id=f"ProtocolParams-{field}-{v}",
            )
        for field in ("e_elec", "eps_fs", "eps_mp", "e_da"):
            yield pytest.param(
                lambda kw={**asdict(RADIO), field: v}: RadioParams(**kw), field,
                id=f"RadioParams-{field}-{v}",
            )
    # a finite node outside the field, and a p whose reciprocal overflows
    yield pytest.param(
        lambda: replace(scenario1("leach"), positions=[(150.0, 50.0)] * 100).validate(), "positions",
        id="SimConfig-positions-150",
    )
    yield pytest.param(
        lambda: ProtocolParams(**{**protocol, "p": 1e-310}), "p", id="ProtocolParams-p-1e-310"
    )
    for var, b in (("foo", 0.1), ("energy", 2.0)):
        yield pytest.param(
            lambda blurs={var: b}: replace(
                scenario1("type2fl"), rules2=default_rulebase2(blur_overrides=blurs)
            ),
            f"blur.{var}",
            id=f"SimConfig-blur_overrides.{var}-{b}",
        )


@pytest.mark.parametrize("build,field", _bad_field_cases())
def test_config_validation_errors_name_the_field(build, field):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)}:"):
        build()
