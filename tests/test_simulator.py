import math
import re
from dataclasses import asdict, replace

import pytest

from conftest import CH2, plan_from, preset_config, scenario1_lifetime
from fuzzcluster.config import PRESETS
from fuzzcluster.energy import RadioParams
from fuzzcluster.fis2 import default_rulebase2
from fuzzcluster.network import Network, deploy_from_rng, network_from_positions
from fuzzcluster.protocols import KINDS, Cluster, ProtocolParams, run_protocol_round
from fuzzcluster.rng import Xorshift64Star
from fuzzcluster.simulator import (
    RoundMetrics,
    SimConfig,
    apply_round_energy,
    lifetime_metrics,
    run_simulation,
)

def scenario1(kind="leach", **kw):
    """Scenario 1 by hand, for short runs: its e_elec and eps_mp are each an ulp
    from the parsed preset's, whose lifetimes the whole-run tests read."""
    return SimConfig(
        n=100,
        area_side=100.0,
        bs_pos=(50.0, 175.0),
        initial_energy=0.5,
        radio=CH2,
        protocol=ProtocolParams(kind=kind, p=0.05, r_min=10.0, r_max=40.0),
        **kw,
    )


# --- energy application -------------------------------------------------------


def test_round_energy_hand_case():
    # head at 40 m from the sink, one member 50 m from the head, control off
    net = network_from_positions([(0.0, 40.0), (0.0, 90.0)], 100.0, (0.0, 0.0))
    plan = plan_from(net, [Cluster(0, [1], 30.0)], {0: None})
    spend = apply_round_energy(net, plan, CH2)
    assert spend[1] == pytest.approx(3.0e-4, rel=1e-12)  # tx(4000, 50)
    # rx(4000) + agg(4000, 2 signals) + tx(4000, 40)
    assert spend[0] == pytest.approx(2.0e-4 + 4.0e-5 + 2.64e-4, rel=1e-12)


def test_round_energy_lone_head():
    net = network_from_positions([(0.0, 40.0)], 100.0, (0.0, 0.0))
    plan = plan_from(net, [Cluster(0, [], 30.0)], {0: None})
    spend = apply_round_energy(net, plan, CH2)
    assert spend[0] == pytest.approx(2.0e-5 + 2.64e-4, rel=1e-12)  # agg(1 signal) + tx


def test_round_energy_relay_forwarding():
    # head 0 relays through head 1; relay pays rx + tx for the forwarded packet
    net = network_from_positions([(0.0, 150.0), (0.0, 90.0)], 200.0, (0.0, 0.0))
    plan = plan_from(
        net, [Cluster(0, [], 30.0), Cluster(1, [], 30.0)], {0: 1, 1: None}
    )
    spend = apply_round_energy(net, plan, CH2)
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
    spend = apply_round_energy(net, plan, CH2)
    assert spend[1] == pytest.approx(1e-9, rel=1e-15)
    assert net.energy[1] == 0.0
    assert not net.alive[1]


def test_spend_matches_residual_delta():
    net = network_from_positions(
        [(0.0, 40.0), (0.0, 90.0), (30.0, 40.0)], 100.0, (0.0, 0.0)
    )
    before = net.total_energy()
    plan = plan_from(net, [Cluster(0, [1, 2], 30.0)], {0: None})
    spend = apply_round_energy(net, plan, CH2)
    assert spend.sum() == pytest.approx(before - net.total_energy(), rel=1e-12)


def test_doubling_packet_bits_doubles_data_spend():
    def one_round(radio):
        cfg = replace(
            scenario1("fuzzy_unequal", max_rounds=1, seed=6),
            radio=radio,
            protocol=ProtocolParams(
                kind="fuzzy_unequal", p=0.05, r_min=10.0, r_max=40.0, control_traffic=False
            ),
        )
        run = run_simulation(cfg)
        return run.rounds[0].spent_j

    doubled = RadioParams(
        CH2.e_elec, CH2.eps_fs, CH2.eps_mp, CH2.e_da, 8000, CH2.ctrl_bits
    )
    assert one_round(doubled) == 2.0 * one_round(CH2)


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
    result = scenario1_lifetime("leach", 2)
    deads = [m.dead for m in result.rounds]
    assert deads == sorted(deads)
    totals = [m.total_j for m in result.rounds]
    for a, b in zip(totals, totals[1:]):
        assert b <= a + 1e-15
    assert result.fnd is not None and result.hnd is not None and result.lnd is not None
    assert result.fnd <= result.hnd <= result.lnd


def test_leach_scenario1_lifetime_band_and_golden():
    result = scenario1_lifetime("leach", 1)
    assert 50 <= result.fnd <= 400
    # golden regression values for this seed, established on the first run
    assert (result.fnd, result.hnd, result.lnd) == (357, 638, 992)


def test_dissipation_reported_at_events():
    result = scenario1_lifetime("leach", 3)
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


# --- resuming from a state -------------------------------------------------------

RESUMED_ROUNDS = 40


def play(cfg, net, rng, rounds):
    """Plays the given rounds on net and rng as run_simulation does, stopping
    once every node is dead, and yields each round and what it left: the
    bytes of the plan's arrays and of the energy and alive mask after it,
    and the round's (ch_count, alive, total_j, spent_j)."""
    for r in rounds:
        if not net.alive.any():
            return
        plan = run_protocol_round(net, cfg, rng, r)
        drained = apply_round_energy(net, plan, cfg.radio)
        arrays = (plan.heads, plan.sizes, plan.members, plan.next_hop, plan.radius, plan.control_spend)
        metrics = (len(plan.heads), int(net.alive.sum()), net.total_energy(), math.fsum(drained.tolist()))
        yield r, ([a.tobytes() for a in (*arrays, net.energy, net.alive)], metrics)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_a_run_resumed_from_its_state_changes_no_bit(preset, kind):
    # A run's state at a round start is (round, energy, alive, generator
    # state): whatever a Network keeps between rounds follows from it. A
    # fresh network and generator resumed at rounds 2 and 20, and at the
    # first round after a death, when the kept neighbor counts first lose a
    # node, play the next 40 rounds as the run did.
    cfg = preset_config(preset, kind, seed=1)
    rng = Xorshift64Star(cfg.seed)
    net = deploy_from_rng(cfg.n, cfg.area_side, cfg.bs_pos, rng, cfg.initial_energy)
    trace, states, after_death = [], {}, None
    for r, played in play(cfg, net, rng, range(1, cfg.max_rounds + 1)):
        trace.append(played)
        if after_death is None and not net.alive.all():
            after_death = r + 1
        if r + 1 in (2, 20, after_death):
            states[r + 1] = (net.energy.copy(), net.alive.copy(), rng._state)
        if after_death and r == max(states) + RESUMED_ROUNDS - 1:
            break
    assert after_death in states and 20 in states
    if preset == "ch2-scenario1":  # the run that the lifetime pins cover
        pinned = scenario1_lifetime(kind, 1).rounds[: len(trace)]
        assert [m for _, m in trace] == [(m.ch_count, m.alive, m.total_j, m.spent_j) for m in pinned]
    for start, (energy, alive, state) in states.items():
        resumed = network_from_positions(net.positions, cfg.area_side, cfg.bs_pos, cfg.initial_energy)
        resumed.energy[:], resumed.alive[:] = energy, alive
        rounds = range(start, start + RESUMED_ROUNDS)
        again = [played for _, played in play(cfg, resumed, Xorshift64Star(state), rounds)]
        assert again == trace[start - 1 : start - 1 + RESUMED_ROUNDS], start


def test_config_validation_errors():
    with pytest.raises(ValueError):
        replace(scenario1("leach"), n=0)
    with pytest.raises(ValueError):
        scenario1("leach", energy_overrides={200: 0.1})
    with pytest.raises(ValueError):
        scenario1("leach", max_rounds=0)


def test_seed_must_fit_the_generator():
    # the generator keeps 64 bits of its seed, so 2**64 + 1 would replay seed 1
    replace(scenario1("leach"), seed=2**64 - 1)
    for seed in (2**64, 2**64 + 1, -1):
        with pytest.raises(ValueError, match=rf"^seed: must lie in \[0, 2\*\*64\), got {seed}$"):
            replace(scenario1("leach"), seed=seed)
    with pytest.raises(ValueError, match="^seed: "):
        scenario1("leach", max_rounds=1, seed=2**64 + 1)


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
                lambda kw=kw: replace(scenario1("leach"), **kw), field,
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
                lambda kw={**asdict(CH2), field: v}: RadioParams(**kw), field,
                id=f"RadioParams-{field}-{v}",
            )
    # a finite node outside the field, and a p whose reciprocal overflows
    yield pytest.param(
        lambda: replace(scenario1("leach"), positions=[(150.0, 50.0)] * 100), "positions",
        id="SimConfig-positions-150",
    )
    yield pytest.param(
        lambda: ProtocolParams(**{**protocol, "p": 1e-310}), "p", id="ProtocolParams-p-1e-310"
    )
    # a neighbor radius, given or the default d0, whose expected count underflows
    # to 0: a fuzzy-unequal round would fail, so every kind fails to build
    yield pytest.param(
        lambda: replace(scenario1("leach"), protocol=ProtocolParams(**protocol, nbr_radius=1e-320)),
        "nbr_radius",
        id="SimConfig-nbr_radius-1e-320",
    )
    yield pytest.param(
        lambda: replace(scenario1("leach"), radio=replace(CH2, eps_fs=1e-312, eps_mp=1e18)),
        "eps_mp",
        id="SimConfig-d0-0",
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


GOOD_DEPLOYMENT = dict(n=2, area_side=100.0, bs_pos=(50.0, 175.0), initial_energy=0.5, positions=None)


@pytest.mark.parametrize(
    "bad,message",
    [
        ({"n": 0}, "n: must be at least 1, got 0"),
        ({"n": -1}, "n: must be at least 1, got -1"),
        ({"area_side": math.nan}, "area_side: must be positive and finite, got nan"),
        ({"area_side": math.inf}, "area_side: must be positive and finite, got inf"),
        ({"area_side": 0.0}, "area_side: must be positive and finite, got 0.0"),
        ({"area_side": 1e-170}, "area_side: must lie in [1e-100, 1e100], got 1e-170"),
        ({"bs_pos": (math.nan, 0.0)}, "bs_pos: must be finite, got (nan, 0.0)"),
        ({"bs_pos": (0.0, -math.inf)}, "bs_pos: must be finite, got (0.0, -inf)"),
        ({"bs_pos": (1e160, 0.0)}, "bs_pos: x must lie in [-1e100, 1e100], got 1e+160"),
        ({"bs_pos": (0.0, -1e200)}, "bs_pos: y must lie in [-1e100, 1e100], got -1e+200"),
        ({"initial_energy": math.inf}, "initial_energy: must be positive and finite, got inf"),
        ({"initial_energy": -0.5}, "initial_energy: must be positive and finite, got -0.5"),
        ({"positions": [(1.0, 2.0), (150.0, 40.0)]}, "positions: node 1 at (150.0, 40.0) outside [0, 100.0]^2"),
        ({"positions": [(1.0, math.nan), (3.0, 4.0)]}, "positions: node 0 at (1.0, nan) outside [0, 100.0]^2"),
        ({"n": 1, "positions": [(1.0, 2.0, 3.0)]}, "positions: must be an (n, 2) array, got shape (1, 3)"),
    ],
    ids=lambda v: None if isinstance(v, str) else "-".join(f"{k}={w}" for k, w in v.items()),
)
def test_every_deployment_entry_point_raises_the_same_message(bad, message):
    d = {**GOOD_DEPLOYMENT, **bad}
    n, area, bs, energy, positions = d.values()
    builds = [
        lambda: replace(
            scenario1("leach"), n=n, area_side=area, bs_pos=bs, initial_energy=energy, positions=positions
        )
    ]
    if positions is None:
        builds.append(lambda: deploy_from_rng(n, area, bs, Xorshift64Star(1), energy))
    if n >= 0:  # a Network counts the positions it is given
        listed = positions or [(0.0, 0.0)] * n
        builds.append(lambda: Network(listed, bs, area, energy))
        builds.append(lambda: network_from_positions(listed, area, bs, energy))
    for build in builds:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
