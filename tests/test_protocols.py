import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import CH2, FakeRng, deploy, peak_point, preset_config, round_config
from pricing_reference import radius_chance_ref
from test_bench_contract import count_stage_calls
from test_golden import WEAK_NODES
from fuzzcluster import network, protocols
from fuzzcluster.config import PROTOCOL_NAMES, parse_config
from fuzzcluster.energy import threshold_distance, tx_energy
from fuzzcluster.fis1 import default_rulebase1, eval_fis1, triangular
from fuzzcluster.fis2 import default_rulebase2
from fuzzcluster.network import network_from_positions, normalize_inputs
from fuzzcluster.protocols import (
    KINDS,
    PROTOCOLS,
    ProtocolParams,
    assign_members,
    build_routes,
    ch_threshold,
    compete_final_chs,
    compute_radius_chance,
    run_protocol_round,
    select_provisional,
)
from fuzzcluster.rng import Xorshift64Star
from fuzzcluster.simulator import run_simulation

LEACH = ProtocolParams(kind="leach", p=0.05, r_min=10.0, r_max=40.0)
FUZZY = ProtocolParams(kind="fuzzy_unequal", p=0.05, r_min=10.0, r_max=40.0)
TYPE2 = ProtocolParams(kind="type2fl", p=0.95, r_min=10.0, r_max=40.0)


# --- threshold -----------------------------------------------------------------


def test_ch_threshold_epoch_wraps():
    assert ch_threshold(0.05, 20) == ch_threshold(0.05, 0)
    assert ch_threshold(0.1, 13) == ch_threshold(0.1, 3)


@pytest.mark.parametrize("p, peak", [(0.05, 1.0), (0.07, 0.778), (0.3, 0.75), (0.1, 1.0)])
def test_ch_threshold_peaks_on_the_epochs_last_round(p, peak):
    # 1 only when 1/p is an integer: floor(1/p) rounds never bring 1/p - k to 1
    epoch = [ch_threshold(p, r) for r in range(int(1.0 / p))]
    assert epoch == sorted(epoch) and epoch[-1] == pytest.approx(peak, abs=5e-4)
    assert (epoch[-1] == 1.0) == (peak == 1.0)


def test_ch_threshold_validation():
    with pytest.raises(ValueError):
        ch_threshold(0.0, 1)
    with pytest.raises(ValueError):
        ch_threshold(0.05, -1)
    # 1/1e-310 is inf, and the epoch length int(1/p) raised an OverflowError
    with pytest.raises(ValueError, match=r"^p: must lie in \(0, 1\) with a finite 1/p, got 1e-310$"):
        ch_threshold(1e-310, 0)


# --- provisional selection --------------------------------------------------------


def test_select_below_strict_inequality():
    net = deploy(3, 100.0, (50.0, 175.0), seed=1, initial_energy=0.5)
    selected, forced = select_provisional(net, LEACH, 0, FakeRng([0.03, 0.05, 0.9]))
    assert selected.tolist() == [0]  # 0.03 < 0.05 selected; 0.05 == threshold is not
    assert not forced


def test_select_above_direction():
    net = deploy(3, 100.0, (50.0, 50.0), seed=1)
    selected, forced = select_provisional(net, TYPE2, 0, FakeRng([0.96, 0.95, 0.2]))
    assert selected.tolist() == [0]  # draw must exceed the threshold strictly
    assert not forced


def test_select_empty_falls_back_to_max_energy():
    net = deploy(3, 100.0, (50.0, 175.0), seed=1, initial_energy=0.5)
    selected, forced = select_provisional(net, LEACH, 0, FakeRng([0.9, 0.9, 0.9]))
    assert selected.tolist() == [0]  # equal energies: the lowest id wins
    assert forced
    net.energy[:] = [0.3, 0.4, 0.2]
    selected, forced = select_provisional(net, LEACH, 0, FakeRng([0.9, 0.9, 0.9]))
    assert selected.tolist() == [1]
    assert forced


def test_select_skips_dead_nodes():
    net = deploy(3, 100.0, (50.0, 175.0), seed=1, initial_energy=0.5)
    net.alive[0] = False
    rng = FakeRng([0.01, 0.9])  # draws belong to nodes 1 and 2
    selected, _ = select_provisional(net, LEACH, 0, rng)
    assert selected.tolist() == [1]
    assert rng.used == 2


def test_select_draws_past_the_script_raise():
    net = deploy(3, 100.0, (50.0, 175.0), seed=1, initial_energy=0.5)
    with pytest.raises(IndexError, match="3 draws asked for, 2 left"):
        select_provisional(net, LEACH, 0, FakeRng([0.01, 0.9]))


@pytest.mark.parametrize(
    "params, r",
    [(LEACH, 0), (LEACH, 13), (FUZZY, 7), (TYPE2, 0)],
    ids=["below", "below-r13", "below-fuzzy-r7", "above"],
)
def test_select_matches_one_draw_per_alive_node(params, r):
    # the rule each kind elects by, stated here apart from protocols.PROTOCOLS
    net = deploy(100, 100.0, (50.0, 175.0), seed=4, initial_energy=0.5)
    net.alive[[0, 1, 17, 50, 98]] = False
    if params.kind == "type2fl":
        th, elected = params.p, float.__gt__
    else:
        th, elected = ch_threshold(params.p, r), float.__lt__
    rng, ref = Xorshift64Star(21), Xorshift64Star(21)
    for _ in range(3):
        selected, forced = select_provisional(net, params, r, rng)
        want = [i for i in range(net.n) if net.alive[i] and elected(ref.random(), th)]
        assert not forced and selected.dtype == np.intp
        assert selected.tolist() == want
        assert rng._state == ref._state
        net.alive[selected[:2]] = False  # the next round has fewer draws


# --- radius/chance mapping ----------------------------------------------------------


def test_radius_clamps_to_r_min_and_r_max():
    low = round_config(TYPE2, CH2, rules2=default_rulebase2(w_radius=(0.0,) * 6))
    high = round_config(TYPE2, CH2, rules2=default_rulebase2(w_radius=(1.0,) * 6))
    net, one = network_from_positions([[0.5, 0.5]], 1.0, (0.0, 0.0)), np.array([0])
    radius_lo, _, _ = compute_radius_chance(net, one, (0.5, 0.5, 0.5), low)
    radius_hi, _, _ = compute_radius_chance(net, one, (0.5, 0.5, 0.5), high)
    assert radius_lo == pytest.approx(TYPE2.r_min, abs=1e-12)
    assert radius_hi == pytest.approx(TYPE2.r_max, abs=1e-12)


def test_close_high_high_chance_lands_in_very_strong():
    cfg = round_config(FUZZY, CH2)
    rb = cfg.rules1
    inputs = (
        peak_point(rb.inputs[0].term("close")),
        peak_point(rb.inputs[1].term("high")),
        peak_point(rb.inputs[2].term("high")),
    )
    net = network_from_positions([[0.5, 0.5]], 1.0, (0.0, 0.0))
    _, chance, fell_back = compute_radius_chance(net, np.array([0]), inputs, cfg)
    lo, hi = rb.outputs[1].term("very_strong").support
    assert lo < chance < hi
    assert not fell_back


def test_kept_type1_outputs_match_a_fresh_evaluation(monkeypatch):
    # nodes die in round 1, after a few rounds and near the end, and every
    # 20th round elects every alive node
    cfg = parse_config("ch2-scenario1")
    cfg = dataclasses.replace(cfg, max_rounds=60, energy_overrides=WEAK_NODES)
    assert cfg.protocol.kind == "fuzzy_unequal"
    sizes = {"candidates": 0, "inferred": 0}
    real, real_outputs = protocols.compute_radius_chance, protocols.firing_outputs

    def checked(net, ids, inputs, cfg):
        got = real(net, ids, inputs, cfg)
        for g, w in zip(got, radius_chance_ref(inputs, cfg), strict=True):
            assert g.tobytes() == w.tobytes()
        sizes["candidates"] += len(ids)
        return got

    def counted(rb, fire, samples):
        sizes["inferred"] += fire.shape[1]
        return real_outputs(rb, fire, samples)

    monkeypatch.setattr(protocols, "compute_radius_chance", checked)
    monkeypatch.setattr(protocols, "firing_outputs", counted)
    result = run_simulation(cfg)
    assert len(result.rounds) == 60 and result.fnd == 1
    assert 0 < sizes["inferred"] < sizes["candidates"]


def test_kept_columns_skip_inference_until_the_rule_base_changes(monkeypatch):
    calls = count_stage_calls(monkeypatch)
    cfg = round_config(FUZZY, CH2)
    net = deploy(40, 100.0, (50.0, 175.0), seed=7)
    net.energy[:] = np.linspace(0.05, 1.0, net.n)
    ids = np.arange(0, 40, 2)
    inputs = normalize_inputs(net, ids, threshold_distance(CH2))
    first = compute_radius_chance(net, ids, inputs, cfg)
    assert calls["infer_mamdani"] > 0
    calls.clear()
    again = compute_radius_chance(net, ids, inputs, cfg)
    assert calls == {}
    assert [a.tobytes() for a in again] == [f.tobytes() for f in first]
    moved = default_rulebase1({"radius": {"small": triangular(0.0, 0.2, 0.3)}})
    for other, same in (
        (dataclasses.replace(cfg, rules1=default_rulebase1()), True),  # equal, another object
        (dataclasses.replace(cfg, rules1=moved), False),
        (dataclasses.replace(cfg, coa_samples=101), False),
    ):
        calls.clear()
        got = compute_radius_chance(net, ids, inputs, other)
        assert calls["infer_mamdani"] > 0
        want = radius_chance_ref(inputs, other)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert (got[0].tobytes() == first[0].tobytes()) == same


# --- competition ----------------------------------------------------------------------


def final_ids(candidates, net):
    """Ids of the (id, radius, chance) candidates that win, in competition order."""
    ids, radius, chance = (np.array(col) for col in zip(*candidates))
    return ids[compete_final_chs(ids, radius, chance, net)].tolist()


def test_competition_higher_chance_wins():
    net = network_from_positions([(0.0, 0.0), (10.0, 0.0)], 100.0, (50.0, 50.0))
    assert final_ids([(0, 30.0, 0.7), (1, 30.0, 0.5)], net) == [0]


def test_competition_disjoint_radii_keep_both():
    net = network_from_positions([(0.0, 0.0), (80.0, 0.0)], 100.0, (50.0, 50.0))
    assert sorted(final_ids([(0, 30.0, 0.7), (1, 30.0, 0.5)], net)) == [0, 1]


def test_competition_tie_breaks_to_lower_id():
    net = network_from_positions([(0.0, 0.0), (10.0, 0.0)], 100.0, (50.0, 50.0))
    assert final_ids([(1, 30.0, 0.5), (0, 30.0, 0.5)], net) == [0]


def test_competition_either_radius_suppresses():
    # 20 m apart: loser's 30 m radius covers the pair even though the winner's doesn't
    net = network_from_positions([(0.0, 0.0), (20.0, 0.0)], 100.0, (50.0, 50.0))
    assert final_ids([(0, 5.0, 0.9), (1, 30.0, 0.5)], net) == [0]


# --- joining ----------------------------------------------------------------------------


def test_single_final_collects_all_members():
    net = network_from_positions(
        [(10.0, 10.0), (20.0, 10.0), (30.0, 10.0)], 100.0, (50.0, 175.0)
    )
    plan = run_protocol_round(net, round_config(LEACH, CH2), FakeRng([0.01, 0.9, 0.9]), 1)
    assert len(plan.clusters) == 1
    assert plan.clusters[0].head == 0
    assert sorted(plan.clusters[0].members) == [1, 2]


def test_equidistant_member_joins_lower_id():
    net = network_from_positions(
        [(0.0, 0.0), (20.0, 0.0), (10.0, 0.0)], 100.0, (50.0, 175.0)
    )
    plan = run_protocol_round(net, round_config(LEACH, CH2), FakeRng([0.01, 0.01, 0.9]), 1)
    by_head = {c.head: c for c in plan.clusters}
    assert 2 in by_head[0].members
    assert by_head[1].members == []
    # the tie goes to the lower id whatever the competition order; clusters keep that order
    (heads, sizes, members), orphans = assign_members(net, np.array([1, 0]), math.inf)
    assert (heads.tolist(), sizes.tolist(), members.tolist()) == ([1, 0], [0, 1], [2])
    assert orphans == 0


def test_type2_uncovered_node_self_promotes():
    # nodes 2 and 3 sit farther than r_max from any possible head
    params = ProtocolParams(kind="type2fl", p=0.95, r_min=5.0, r_max=20.0)
    net = network_from_positions(
        [(0.0, 0.0), (5.0, 0.0), (90.0, 90.0), (90.0, 0.0), (3.0, 0.0)], 100.0, (50.0, 50.0)
    )
    rng = FakeRng([0.99, 0.2, 0.2, 0.2, 0.2])
    plan = run_protocol_round(net, round_config(params, CH2), rng, 1)
    # finals first, then orphan singletons in ascending id; members in ascending id
    assert [(c.head, c.members) for c in plan.clusters] == [(0, [1, 4]), (2, []), (3, [])]
    assert plan.orphan_fallbacks == 2


# --- routing ----------------------------------------------------------------------------


def next_hops(heads, net):
    """build_routes over these head ids: each head's next hop as a position
    in heads, -1 for the sink."""
    return build_routes(np.array(heads), net, threshold_distance(CH2)).tolist()


def test_route_direct_within_threshold():
    net = network_from_positions([(0.0, 40.0)], 200.0, (0.0, 0.0))
    assert next_hops([0], net) == [-1]


def test_route_relays_through_closer_head():
    # head 0 at 150 m from the sink, head 1 at 100 m from the sink and 60 m from head 0
    y1 = 28900.0 / 300.0
    x1 = math.sqrt(100.0**2 - y1**2)
    net = network_from_positions([(0.0, 150.0), (x1, y1)], 200.0, (0.0, 0.0))
    assert net.dist[0, 1] == pytest.approx(60.0, abs=1e-9)
    assert next_hops([0, 1], net) == [1, -1]


def test_route_single_head_goes_direct():
    net = network_from_positions([(0.0, 150.0)], 200.0, (0.0, 0.0))
    assert next_hops([0], net) == [-1]


def test_leach_routes_always_direct():
    # both heads lie beyond d0, where the relaying protocols route 0 through 1
    net = network_from_positions([(0.0, 150.0), (0.0, 100.0)], 200.0, (0.0, 0.0))
    assert (net.bs_dist > threshold_distance(CH2)).all()
    assert next_hops([0, 1], net) == [1, -1]
    plan = run_protocol_round(net, round_config(LEACH, CH2), FakeRng([0.01, 0.01]), 1)
    assert plan.heads.tolist() == [0, 1]
    assert plan.next_hop.tolist() == [-1, -1]


# --- whole rounds -------------------------------------------------------------------------


def test_leach_two_nodes_forced_draw():
    net = network_from_positions([(10.0, 10.0), (20.0, 10.0)], 100.0, (50.0, 175.0))
    plan = run_protocol_round(net, round_config(LEACH, CH2), FakeRng([0.01, 0.9]), 1)
    assert len(plan.clusters) == 1
    assert plan.clusters[0].members == [1]
    assert plan.routes == {0: None}


def test_partition_property_all_protocols():
    for params, seed in ((LEACH, 3), (FUZZY, 4), (TYPE2, 5)):
        net = deploy(60, 100.0, (50.0, 175.0), seed=seed, initial_energy=0.5)
        rng = Xorshift64Star(seed)
        for r in range(1, 16):
            plan = run_protocol_round(net, round_config(params, CH2), rng, r)
            seen = []
            for c in plan.clusters:
                seen.append(c.head)
                seen.extend(c.members)
                assert c.head not in c.members
            assert sorted(seen) == np.flatnonzero(net.alive).tolist()


def test_final_ch_separation_fuzzy():
    net = deploy(80, 100.0, (50.0, 175.0), seed=11, initial_energy=0.5)
    rng = Xorshift64Star(11)
    cfg = round_config(FUZZY, CH2)
    for r in range(1, 21):
        plan = run_protocol_round(net, cfg, rng, r)
        chs = [(c.head, c.radius) for c in plan.clusters if c.radius > 0.0]
        for i, (h1, r1) in enumerate(chs):
            for h2, r2 in chs[i + 1 :]:
                assert net.dist[h1, h2] > min(r1, r2)


def test_leach_selection_rate_binomial_at_epoch_start():
    net = deploy(100, 100.0, (50.0, 175.0), seed=8, initial_energy=0.5)
    rng = Xorshift64Star(8)
    total = 0
    trials = 1000
    for _ in range(trials):
        selected, forced = select_provisional(net, LEACH, 0, rng)
        if not forced:
            total += len(selected)
    mean = trials * 100 * 0.05
    sigma = math.sqrt(trials * 100 * 0.05 * 0.95)
    assert abs(total - mean) <= 3.0 * sigma


@pytest.mark.parametrize("preset", ["ch3", "ch2-scenario1"])
def test_leach_heads_per_round_over_whole_epochs_match_the_closed_form(preset):
    # Each alive node elects itself with the round's threshold T_k = 1/(E - k),
    # k = r mod E, E = 1/p, and no eligibility set, so an epoch of E rounds
    # expects N * H_E heads: N * H_E / E = 17.99 a round at N = 100, p = 0.05.
    # The epoch's variance is N * sum T_k (1 - T_k) = N * (H_E - H_E^(2)),
    # about 200 heads^2. Over 5 seeds x 7 epochs (700 rounds) the mean has
    # sigma = sqrt(35 * 200) / 700 = 0.12, and the bound is 4 sigma = 0.48
    # heads a round. A round that elects no one promotes one node (P = 0.006
    # at k = 0), which moves the mean by under 0.001.
    cfg = preset_config(preset, "leach")
    n, epoch = cfg.n, round(1.0 / cfg.protocol.p)
    harmonic = sum(1.0 / k for k in range(1, epoch + 1))
    harmonic2 = sum(1.0 / k**2 for k in range(1, epoch + 1))
    runs = [run_simulation(dataclasses.replace(cfg, seed=s, max_rounds=7 * epoch)) for s in range(1, 6)]
    assert all(r.fnd is None for r in runs)  # every round counted is before FND
    heads = [m.ch_count for r in runs for m in r.rounds]
    assert len(heads) == 5 * 7 * epoch
    sigma = math.sqrt(5 * 7 * n * (harmonic - harmonic2)) / len(heads)
    assert n * harmonic / epoch == pytest.approx(17.99, abs=0.005)
    assert abs(sum(heads) / len(heads) - n * harmonic / epoch) <= 4.0 * sigma


@pytest.mark.parametrize("preset,band", [("ch3", (1.0, 1.04)), ("ch2-scenario1", (0.97, 1.07))])
def test_leach_energy_per_round_matches_the_closed_form(preset, band):
    # Heinzelman et al. (IEEE TWC 1(4), 2002, sec. IV): with k heads among N
    # alive nodes on an M x M field, a round spends
    # L[(2N - 2k) E_elec + N E_DA + eps_fs (N - k) M^2 / (2 pi k)] + k E[tx(d_bs)]:
    # members' uplinks and heads' receptions, aggregation of every signal,
    # the members' mean squared distance to their head, and one packet from
    # each head to the sink, from a point uniform on the field (the mean of
    # tx_energy over a 400 x 400 grid of cell centres). M^2/(2 pi k) is an
    # approximation, so the median ratio of a round's spent_j to this sits
    # near 1 but not at it. Control traffic off, 140 rounds, before FND.
    # Seeds 1-5 and 6-10 give medians 1.017 and 1.018 on ch3, 1.008 and
    # 1.023 on ch2-scenario1; twenty disjoint five-seed sets from 1-100 gave
    # 1.016-1.021 and 0.994-1.047, inside each band.
    cfg = parse_config(preset)
    leach = dataclasses.replace(cfg.protocol, kind="leach", control_traffic=False)
    cfg = dataclasses.replace(cfg, protocol=leach, max_rounds=140)
    radio, n, m, bits = cfg.radio, cfg.n, cfg.area_side, cfg.radio.packet_bits
    centres = (np.arange(400) + 0.5) * m / 400
    x, y = np.meshgrid(centres - cfg.bs_pos[0], centres - cfg.bs_pos[1])
    to_sink = tx_energy(radio, bits, np.hypot(x, y).ravel()).mean()
    ratios = []
    for seed in range(1, 6):
        run = run_simulation(dataclasses.replace(cfg, seed=seed))
        assert run.fnd is None  # every round counted has all N nodes alive
        for r in run.rounds:
            k = r.ch_count
            per_bit = (2 * n - 2 * k) * radio.e_elec + n * radio.e_da
            per_bit += radio.eps_fs * (n - k) * m * m / (2 * math.pi * k)
            ratios.append(r.spent_j / (bits * per_bit + k * to_sink))
    assert band[0] <= float(np.median(ratios)) <= band[1]


def test_control_traffic_can_be_disabled():
    net = deploy(30, 100.0, (50.0, 175.0), seed=2, initial_energy=0.5)
    silent = ProtocolParams(kind="fuzzy_unequal", p=0.05, r_min=10.0, r_max=40.0, control_traffic=False)
    plan = run_protocol_round(net, round_config(silent, CH2), Xorshift64Star(2), 1)
    assert plan.control_spend.sum() == 0.0


@pytest.mark.parametrize(
    "preset, protocol, counts",
    [("ch3", "type2fl", False), ("ch2-scenario1", "fuzzy_unequal", True)],
)
def test_only_fuzzy_unequal_counts_neighbors(monkeypatch, preset, protocol, counts):
    # type2fl reads only (db, re), so its rounds count no neighbors
    calls = {"inputs": 0, "neighbors": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(protocols, "normalize_inputs", counted(normalize_inputs, "inputs"))
    monkeypatch.setattr(network, "neighbor_count", counted(network.neighbor_count, "neighbors"))
    cfg = parse_config(preset)
    assert cfg.protocol.kind == protocol
    result = run_simulation(dataclasses.replace(cfg, max_rounds=4))
    assert len(result.rounds) == calls["inputs"] == 4
    assert (calls["neighbors"] > 0) == counts


def test_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(kind="bogus", p=0.05, r_min=10.0, r_max=40.0)
    with pytest.raises(ValueError):
        ProtocolParams(kind="leach", p=1.5, r_min=10.0, r_max=40.0)
    with pytest.raises(ValueError):
        ProtocolParams(kind="leach", p=0.05, r_min=40.0, r_max=10.0)


@pytest.mark.parametrize("kind", KINDS)
def test_replacing_the_kind_derives_its_row(kind):
    # the four choices follow kind through dataclasses.replace, as the CLI's
    # --protocol override relies on, and only kind can be set
    for start in (LEACH, FUZZY, TYPE2):
        params = dataclasses.replace(start, kind=kind)
        choices = (params.election, params.engine, params.join_range / params.r_max, params.relay)
        assert params.kind == kind and choices == PROTOCOLS[kind]
    with pytest.raises(TypeError, match="engine"):
        ProtocolParams(kind=kind, p=0.05, r_min=10.0, r_max=40.0, engine="type2")
    with pytest.raises(ValueError, match="election"):
        dataclasses.replace(LEACH, kind=kind, election="above-p")


def test_round_without_alive_nodes_raises():
    # the election would otherwise promote the argmax of an all -inf row: dead node 0
    net = deploy(5, 100.0, (50.0, 175.0), seed=1, initial_energy=0.5)
    net.alive[:] = False
    rng = FakeRng([0.5] * 5)
    with pytest.raises(ValueError, match="^no alive nodes$"):
        run_protocol_round(net, round_config(LEACH, CH2), rng, 1)
    assert rng.used == 0


def test_only_the_protocol_table_compares_kinds():
    # what a kind means is read from protocols.PROTOCOLS: no module of the
    # package compares a kind string or a KIND_* name
    kinds = {*KINDS, *PROTOCOL_NAMES}

    def names_a_kind(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names_a_kind, node.elts))
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return isinstance(node, ast.Constant) and node.value in kinds or name.startswith("KIND_")

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(protocols.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare) and any(map(names_a_kind, [node.left, *node.comparators]))
    ]
    assert found == []


# --- golden trace -----------------------------------------------------------------------


def oracle_fuzzy_round(net, params, rng, radio):
    """Straight-line re-implementation of one unequal-clustering round."""
    th = ch_threshold(params.p, 0)
    provisionals = [i for i in range(net.n) if net.alive[i] and rng.random() < th]
    if not provisionals:
        provisionals = [max(range(net.n), key=lambda i: net.energy[i])]
    rb = default_rulebase1()
    nbr = threshold_distance(radio)
    cands = []
    for pid in provisionals:
        db, re, conc = normalize_inputs(net, pid, nbr)
        out = eval_fis1(rb, {"distance": db, "energy": re, "concentration": conc})
        cands.append((pid, params.r_min + out["radius"] * (params.r_max - params.r_min), out["chance"]))
    finals = []
    for cand in sorted(cands, key=lambda c: (-c[2], c[0])):
        if all(net.dist[cand[0], f[0]] > max(cand[1], f[1]) for f in finals):
            finals.append(cand)
    partition = {fid: [] for fid, _, _ in finals}
    for i in range(net.n):
        if not net.alive[i] or i in partition:
            continue
        best = min(partition, key=lambda h: (net.dist[i, h], h))
        partition[best].append(i)
    return {h: sorted(m) for h, m in partition.items()}


def test_fuzzy_round_matches_hand_trace():
    net = deploy(10, 100.0, (50.0, 175.0), seed=77, initial_energy=0.5)
    plan = run_protocol_round(net, round_config(FUZZY, CH2), Xorshift64Star(123), 1)
    got = {c.head: sorted(c.members) for c in plan.clusters}

    oracle_net = deploy(10, 100.0, (50.0, 175.0), seed=77, initial_energy=0.5)
    expected = oracle_fuzzy_round(oracle_net, FUZZY, Xorshift64Star(123), CH2)
    assert got == expected
    # frozen golden partition for this topology and seed
    assert got == GOLDEN_PARTITION


GOLDEN_PARTITION = {9: [0, 1, 3, 4, 6, 8], 7: [2, 5]}  # verified against the oracle above
