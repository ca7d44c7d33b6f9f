"""Array round bookkeeping against the one-message-at-a-time reference, bit
for bit.

Competition, routing, control pricing and energy application run as array
work in blocks; every node's costs must still be added one at a time in the
order the reference adds them, so that every control and drained value keeps
its exact bits.
"""
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CH2, CH3, deploy, round_config, traced_peak
from fuzzcluster import network as network_module
from fuzzcluster.config import parse_config
from fuzzcluster.energy import threshold_distance, tx_energy
from fuzzcluster.fis1 import default_rulebase1
from fuzzcluster.fis2 import default_rulebase2
from fuzzcluster.network import BLOCK_ENTRIES, block_rows, deploy_from_rng, network_from_positions
from fuzzcluster.protocols import (
    KINDS,
    ProtocolParams,
    assign_members,
    build_routes,
    ch_threshold,
    compete_final_chs,
    price_control,
    run_protocol_round,
)
from fuzzcluster.rng import Xorshift64Star
from fuzzcluster.simulator import apply_round_energy
from pricing_reference import (
    apply_round_energy_ref,
    assign_members_ref,
    build_routes_ref,
    compete_final_chs_ref,
    run_protocol_round_ref,
    tx_energy_ref,
)

ENGINES = dict(rules1=default_rulebase1(), rules2=default_rulebase2(), coa_samples=101)
EPOCH_END = 20  # with p = 0.05 the rotating threshold is 1 on round 20: every node stands
# A 100-node round is priced in one block at the default budget; SMALL_BLOCKS
# entries give it 5-row blocks, so that its message groups span many blocks
# and their order across block boundaries is checked at 100 nodes too.
SMALL_BLOCKS = 500
BUDGETS = (BLOCK_ENTRIES, SMALL_BLOCKS)


def same_bits(got, want) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@contextmanager
def block_entries(entries):
    """Inside, the package's row blocks hold ``entries`` entries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network_module, "BLOCK_ENTRIES", entries)
        yield


def both_rounds(net, params, r, seed, radio=CH2):
    """The package's round and energy application beside the reference's, from
    the same network state and draws; returns (plan, drained, ref plan, ref
    drained) and leaves the network's energy and alive state as it found it."""
    energy, alive = net.energy.copy(), net.alive.copy()
    cfg = round_config(params, radio, **ENGINES)
    plan = run_protocol_round(net, cfg, Xorshift64Star(seed), r)
    drained = apply_round_energy(net, plan, radio)
    after = net.energy.copy(), net.alive.copy()
    net.energy[:], net.alive[:] = energy, alive
    ref = run_protocol_round_ref(net, cfg, Xorshift64Star(seed), r)
    ref_drained = apply_round_energy_ref(net, ref, radio)
    assert same_bits(after[0], net.energy) and (after[1] == net.alive).all()
    net.energy[:], net.alive[:] = energy, alive
    return plan, drained, ref, ref_drained


def assert_same_round(plan, drained, ref, ref_drained):
    # in cluster order, which the competition's descending chance decides
    assert [(c.head, c.members, c.radius) for c in plan.clusters] == [
        (c.head, c.members, c.radius) for c in ref.clusters
    ]
    assert list(plan.routes.items()) == list(ref.routes.items())
    assert (plan.orphan_fallbacks, plan.fis_fallbacks) == (ref.orphan_fallbacks, ref.fis_fallbacks)
    assert same_bits(plan.control_spend, ref.control_spend)
    assert same_bits(drained, ref_drained)


def network(n, area, seed, dead=(), low_energy=(), snap=None):
    """A seeded deployment with the sink above the field. ``snap`` moves every
    node to the nearest multiple of snap metres: equal distances everywhere,
    to the sink too, so that every tie-break is exercised."""
    net = deploy(n, area, (area / 2, 1.75 * area), seed)
    if snap is not None:
        net = network_from_positions(np.round(net.positions / snap) * snap, area, net.bs_pos)
    for i in low_energy:
        net.energy[i] = 1e-4  # drains within the round: the clamp must match too
    for i in dead:
        net.energy[i] = 0.0
        net.alive[i] = False
    return net


@st.composite
def round_cases(draw):
    n = draw(st.integers(2, 99))
    area = draw(st.sampled_from([100.0, 300.0]))  # 300 m: ranges and hops beyond d0
    dead = draw(st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True))
    low = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    r_min = draw(st.sampled_from([1.0, 10.0, 30.0]))
    r_max = r_min * draw(st.sampled_from([1.5, 4.0, 8.0]))
    params = ProtocolParams(
        kind=draw(st.sampled_from(KINDS)),
        p=0.05,
        r_min=r_min,
        r_max=r_max,
        control_traffic=draw(st.booleans()),
    )
    r = draw(st.one_of(st.just(EPOCH_END), st.integers(1, 45)))
    snap = draw(st.sampled_from([None, area / 6]))
    return network(n, area, draw(st.integers(0, 2**31)), dead, low, snap), params, r


@settings(max_examples=150, deadline=None)
@given(round_cases(), st.integers(0, 2**31))
def test_round_matches_one_message_reference(case, seed):
    net, params, r = case
    for entries in BUDGETS:
        with block_entries(entries):
            assert_same_round(*both_rounds(net, params, r, seed))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_joining_matches_reference(data):
    # snapped nodes sit at equal distances from several heads and share
    # points; a few rows per block put the heads in many blocks
    n = data.draw(st.integers(2, 99))
    area = data.draw(st.sampled_from([100.0, 300.0]))
    dead = data.draw(st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True))
    snap = data.draw(st.sampled_from([None, area / 6, area / 3]))
    net = network(n, area, data.draw(st.integers(0, 2**31)), dead, snap=snap)
    alive = np.flatnonzero(net.alive).tolist()
    finals = data.draw(st.lists(st.sampled_from(alive), min_size=1, max_size=len(alive), unique=True))
    r_max = data.draw(st.sampled_from([1.0, area / 6, area / 3, area]))  # 1 m: nearly every joiner an orphan
    kind = data.draw(st.sampled_from(KINDS))
    ref, ref_orphans = assign_members_ref(net, [(f, 0.0, 0.0) for f in finals], kind, r_max)
    # the join range of the kind's row in protocols.PROTOCOLS
    join_range = ProtocolParams(kind=kind, p=0.05, r_min=r_max / 2, r_max=r_max).join_range
    for rows in (block_rows(n), 2, 1):
        with block_entries(rows * n):
            (heads, sizes, members), orphans = assign_members(net, np.array(finals), join_range)
        assert orphans == ref_orphans
        assert heads.tolist() == [c.head for c in ref]
        ends = np.cumsum(sizes).tolist()
        assert [members[e - k : e].tolist() for k, e in zip(sizes.tolist(), ends)] == [
            c.members for c in ref
        ]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 321), st.integers(2, 1100), st.integers(0, 2**31), st.floats(0.0, 0.9))
def test_row_reduction_adds_rows_in_order(rows, columns, seed, zeros):
    # price_control adds a join-free block's cost rows to control with
    # np.add.reduce along the rows: nonnegative values over many magnitudes,
    # some 0.0, must sum as one row after another
    gen = np.random.default_rng(seed)
    block = gen.uniform(0.0, 1.0, (rows, columns)) * 10.0 ** gen.integers(-12, 3, (rows, columns))
    block[gen.uniform(size=(rows, columns)) < zeros] = 0.0
    want = block[0].copy()
    for row in block[1:]:
        want = want + row
    out = np.empty(columns)
    np.add.reduce(block, axis=0, out=out)
    assert same_bits(out, want)


@pytest.mark.parametrize("kind", KINDS)
def test_one_node_network_prices_as_reference(kind):
    net = network_from_positions([(40.0, 70.0)], 100.0, (50.0, 175.0))
    params = ProtocolParams(kind=kind, p=0.05, r_min=10.0, r_max=40.0)
    for r in (1, EPOCH_END):
        plan, drained, ref, ref_drained = both_rounds(net, params, r, 3)
        assert_same_round(plan, drained, ref, ref_drained)
        assert plan.control_spend[0] > 0.0
    # a round sends at most two broadcasts here; numpy would sum more than
    # eight of them from the one column pairwise, so a join-free block of a
    # 1-node network keeps np.add.at
    for seed in range(5):
        ranges = np.random.default_rng(seed).uniform(1.0, 400.0, 300)
        control, want = np.full(1, 1e-3), 1e-3
        no_joins = np.zeros(0, dtype=np.intp)
        senders = np.zeros(len(ranges), dtype=np.intp)
        groups = np.arange(len(ranges))
        price_control(control, net, CH2, senders, ranges, groups, no_joins, no_joins, no_joins)
        for d in ranges.tolist():
            want += tx_energy_ref(CH2, CH2.ctrl_bits, d)
        assert same_bits(control, [want])


@pytest.mark.parametrize("kind, r", [("leach", EPOCH_END), ("fuzzy_unequal", 3), ("type2fl", 1)])
def test_join_free_blocks_price_as_reference(kind, r):
    # at 1000 nodes the candidate and final announcements fill whole
    # 32-group blocks with no join (type2fl has about 950 candidates); at the
    # epoch's end every alive LEACH node is a head, so no block has a join
    cfg = parse_config("ch2-scenario2")
    rng = Xorshift64Star(5)
    net = deploy_from_rng(cfg.n, cfg.area_side, cfg.bs_pos, rng, cfg.initial_energy)
    net.alive[::9] = False
    net.energy[~net.alive] = 0.0
    params = ProtocolParams(kind=kind, p=0.05, r_min=20.0, r_max=80.0)
    plan, drained, ref, ref_drained = both_rounds(net, params, r, 11, cfg.radio)
    assert_same_round(plan, drained, ref, ref_drained)
    if kind == "leach":
        assert not plan.sizes.any()


GRID = 50.0
DIAGONAL = math.sqrt(2 * GRID * GRID)  # the bits of a one-cell diagonal in dist


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_competition_and_routes_break_ties_as_reference(data):
    # nodes on a 50 m grid (several may share a point), radii and d0 equal to
    # grid distances, and few chance levels: ties in chance, in distance and
    # in distance to the sink, and distances exactly on a radius
    cells = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=40))
    net = network_from_positions([(GRID * x, GRID * y) for x, y in cells], 300.0, (150.0, 525.0))
    candidates = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, len(cells) - 1),
                st.sampled_from([0.0, GRID, DIAGONAL, 2 * GRID, 1e3]),
                st.sampled_from([0.0, 0.25, 0.5, 1.0]),
            ),
            min_size=1,
            unique_by=lambda c: c[0],
        )
    )
    ids, radius, chance = (np.array(col) for col in zip(*candidates))
    won = compete_final_chs(ids, radius, chance, net).tolist()
    assert [candidates[k] for k in won] == compete_final_chs_ref(candidates, net)
    heads = ids.tolist()
    d0 = data.draw(st.sampled_from([0.0, GRID, 87.7, 1e3]))
    next_hop = build_routes(ids, net, d0).tolist()
    assert [(h, None if k < 0 else heads[k]) for h, k in zip(heads, next_hop)] == list(
        build_routes_ref(heads, net, d0).items()
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("control", [True, False], ids=["control", "no-control"])
def test_epoch_end_round_with_dead_nodes_beyond_d0(kind, control):
    # every alive node broadcasts, ranges and sink hops in multipath; in one
    # block at the default budget, and the announcements alone span more than
    # ten small blocks
    net = network(103, 300.0, 4, dead=range(0, 40, 3), low_energy=(5, 50))
    params = ProtocolParams(kind=kind, p=0.05, r_min=30.0, r_max=120.0, control_traffic=control)
    alive = net.alive.sum()
    for entries in BUDGETS:
        with block_entries(entries):
            one_block = block_rows(net.n) >= 3 * net.n
            assert one_block if entries == BLOCK_ENTRIES else alive > 10 * block_rows(net.n)
            plan, drained, ref, ref_drained = both_rounds(net, params, EPOCH_END, 9)
            assert_same_round(plan, drained, ref, ref_drained)
    d0 = threshold_distance(CH2)
    assert max(net.bs_dist[c.head] for c in plan.clusters) > d0
    if kind == "leach":
        assert len(plan.clusters) == alive  # every alive node broadcasts
    else:
        assert max(c.radius for c in plan.clusters) > d0
    assert plan.control_spend.any() == control


def test_type2_orphans_send_no_schedule():
    net = network(60, 300.0, 2, dead=(3, 4))
    params = ProtocolParams(kind="type2fl", p=0.05, r_min=5.0, r_max=20.0)
    plan, drained, ref, ref_drained = both_rounds(net, params, 3, 1, CH3)
    assert_same_round(plan, drained, ref, ref_drained)
    orphans = [c for c in plan.clusters if c.radius == 0.0]
    assert len(orphans) == plan.orphan_fallbacks > 0


@pytest.mark.parametrize("radio", [CH2, CH3], ids=["ch2", "ch3"])
def test_tx_energy_array_matches_one_distance_formula(radio):
    # numpy's array d ** 4 differs from libm pow in the last bit for a few
    # percent of distances, so 20,000 of them beyond d0 tell the two apart
    d0 = threshold_distance(radio)
    edges = [0.0, d0, np.nextafter(d0, 0.0), np.nextafter(d0, np.inf), 3 * d0]
    d = np.concatenate((edges, np.random.default_rng(7).uniform(0.0, 12 * d0, 24_000)))
    for bits in (radio.ctrl_bits, radio.packet_bits, 1):
        want = [tx_energy_ref(radio, bits, x) for x in d.tolist()]
        assert same_bits(tx_energy(radio, bits, d), want)
        assert same_bits(tx_energy(radio, bits, d0), [want[1]])


def test_epoch_end_round_memory_stays_bounded():
    # every one of 1000 (ch2-scenario2) or 100 (ch2-scenario1) alive nodes is a
    # fuzzy-unequal candidate, and on ch3 most nodes draw above type2fl's p:
    # pricing and competition must work a block or a dist row at a time, never
    # a candidates x candidates or candidates x n array. The 100-node rounds
    # are priced in one block.
    for preset, kind, n in (
        ("ch2-scenario2", "fuzzy_unequal", 1000),
        ("ch2-scenario1", "fuzzy_unequal", 100),
        ("ch3", "type2fl", 100),
    ):
        cfg = parse_config(preset)
        assert (cfg.protocol.kind, cfg.n) == (kind, n)
        assert kind == "type2fl" or ch_threshold(cfg.protocol.p, EPOCH_END - 1) == 1.0
        assert n == 1000 or block_rows(n) >= 3 * n
        rng = Xorshift64Star(1)
        net = deploy_from_rng(cfg.n, cfg.area_side, cfg.bs_pos, rng, cfg.initial_energy)
        peak, plan = traced_peak(run_protocol_round, net, cfg, rng, EPOCH_END)
        assert plan.clusters, preset
        assert peak < 2 * 2**20, preset
