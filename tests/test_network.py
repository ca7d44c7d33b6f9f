import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deploy
from fuzzcluster import network as network_module
from fuzzcluster.network import (
    Network,
    block_rows,
    neighbor_count,
    network_from_positions,
    normalize_inputs,
)
from fuzzcluster.rng import Xorshift64Star


# --- rng ----------------------------------------------------------------------


def test_rng_known_answer_seed1():
    r = Xorshift64Star(1)
    assert [r.next_u64() for _ in range(3)] == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
    ]


def test_rng_zero_seed_padded():
    a = Xorshift64Star(0)
    b = Xorshift64Star(0)
    assert a.random() == b.random()
    assert a.random() != 0.0


def test_rng_unit_interval():
    r = Xorshift64Star(7)
    draws = [r.random() for _ in range(10_000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.45 < sum(draws) / len(draws) < 0.55


# --- deployment ------------------------------------------------------------------


def test_deploy_deterministic():
    a = deploy(50, 100.0, (50.0, 175.0), seed=9)
    b = deploy(50, 100.0, (50.0, 175.0), seed=9)
    assert np.array_equal(a.positions, b.positions)


def test_deploy_single_node_dmax():
    net = deploy(1, 100.0, (50.0, 175.0), seed=3)
    assert net.d_max == net.bs_dist[0]


def test_deploy_seed42_mean_x_sane():
    net = deploy(100, 100.0, (50.0, 175.0), seed=42)
    mean_x = net.positions[:, 0].mean()
    assert 35.0 <= mean_x <= 65.0


def test_deploy_positions_within_area():
    net = deploy(200, 100.0, (50.0, 50.0), seed=5)
    assert ((net.positions >= 0.0) & (net.positions <= 100.0)).all()


def test_positions_immutable():
    net = deploy(10, 100.0, (50.0, 50.0), seed=1)
    with pytest.raises(ValueError):
        net.positions[0, 0] = 5.0
    with pytest.raises(ValueError):
        net.dist[0, 1] = 5.0


def test_network_rejects_out_of_area_positions():
    with pytest.raises(ValueError, match=f"^{re.escape('positions: node 1 at (120.0, 10.0) outside [0, 100.0]^2')}$"):
        network_from_positions([(0.0, 0.0), (120.0, 10.0)], 100.0, (50.0, 50.0))


def test_network_rejects_bad_shape():
    with pytest.raises(ValueError, match="^n: must be at least 1, got 0$"):
        Network([], (0.0, 0.0), 10.0, 1.0)
    with pytest.raises(ValueError, match=r"^positions: must be an \(n, 2\) array, got shape \(1, 3\)$"):
        Network([(0.0, 0.0, 0.0)], (0.0, 0.0), 10.0, 1.0)
    with pytest.raises(ValueError, match=r"^positions: must be an \(n, 2\) array, got shape \(\)$"):
        Network(5.0, (0.0, 0.0), 10.0, 1.0)


@pytest.mark.parametrize(
    "area,bs_pos,energy,field",
    [
        (math.inf, (0.0, 0.0), 1.0, "area_side"),
        (100.0, (0.0, 0.0), math.nan, "initial_energy"),
        (100.0, (0.0, 0.0), math.inf, "initial_energy"),
        (100.0, (math.nan, 0.0), 1.0, "bs_pos"),
    ],
    ids=["area-inf", "energy-nan", "energy-inf", "bs-nan"],
)
def test_network_rejects_non_finite_geometry_and_energy(area, bs_pos, energy, field):
    with pytest.raises(ValueError, match=f"^{field}: must be "):
        network_from_positions([(0.0, 40.0)], area, bs_pos, energy)


# --- geometry queries ----------------------------------------------------------------


def line_net():
    return network_from_positions([(0.0, 0.0), (10.0, 0.0), (25.0, 0.0)], 100.0, (0.0, 0.0))


def test_neighbor_count_line_case():
    net = line_net()
    assert neighbor_count(net, 1, 15.0) == 2  # both endpoints, 15 m boundary included


def test_neighbor_count_radius_below_nearest():
    net = line_net()
    assert neighbor_count(net, 0, 5.0) == 0


def test_neighbor_count_covers_whole_area():
    net = deploy(30, 100.0, (50.0, 50.0), seed=2)
    assert neighbor_count(net, 0, 100.0 * math.sqrt(2)) == 29


def test_neighbor_count_excludes_dead():
    net = line_net()
    net.alive[0] = False
    assert neighbor_count(net, 1, 15.0) == 1


def test_neighbor_count_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        neighbor_count(line_net(), 0, 0.0)


@pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
def test_counts_reject_radius_not_positive_and_finite(radius):
    # a NaN radius would count no neighbor and inf would give conc = 0
    message = f"^radius must be positive and finite, got {radius}$"
    with pytest.raises(ValueError, match=message):
        neighbor_count(line_net(), 0, radius)
    with pytest.raises(ValueError, match=message):
        normalize_inputs(line_net(), [0, 1], radius)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_neighbor_counts_follow_deaths_revival_and_radius(data):
    # counts kept from an earlier call must equal a fresh count after every
    # step: deaths in batches, one revival, a revival and deaths before one
    # count (a swap), a change of radius
    n = data.draw(st.integers(1, 90))
    net = deploy(n, 100.0, (50.0, 175.0), seed=data.draw(st.integers(0, 2**31)))
    radii = [data.draw(st.sampled_from([5.0, 15.0, 40.0, 200.0])) for _ in range(2)]
    steps = data.draw(st.lists(st.sampled_from(["die", "revive", "swap", "radius"]), max_size=12))
    step = data.draw(st.sampled_from([n, 3, 1]))  # dist rows per block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network_module, "BLOCK_ENTRIES", step * n)
        for action in ["count", *steps]:
            alive = np.flatnonzero(net.alive)
            if action == "die" and len(alive):
                dying = data.draw(st.lists(st.sampled_from(alive.tolist()), max_size=len(alive)))
                net.alive[dying] = False
            elif action == "revive" and not net.alive.all():
                net.alive[data.draw(st.sampled_from(np.flatnonzero(~net.alive).tolist()))] = True
            elif action == "swap" and len(alive) and not net.alive.all():
                back = data.draw(st.sampled_from(np.flatnonzero(~net.alive).tolist()))
                dying = data.draw(st.lists(st.sampled_from(alive.tolist()), min_size=1, max_size=len(alive)))
                net.alive[dying] = False
                net.alive[back] = True
            elif action == "radius":
                radii.reverse()
            ids = np.arange(n)
            fresh = [
                sum(net.alive[j] and j != i and net.dist[i, j] <= radii[0] for j in range(n))
                for i in range(n)
            ]
            assert neighbor_count(net, ids, radii[0]).tolist() == fresh, action


# --- normalized inputs ------------------------------------------------------------------


def test_full_energy_gives_re_one():
    net = deploy(10, 100.0, (50.0, 175.0), seed=1, initial_energy=0.5)
    _, re, _ = normalize_inputs(net, 0, 20.0)
    assert re == 1.0


def test_farthest_node_gives_db_one():
    net = deploy(10, 100.0, (50.0, 175.0), seed=1)
    far = int(np.argmax(net.bs_dist))
    db, _, _ = normalize_inputs(net, far, 20.0)
    assert db == 1.0


def test_concentration_exact_expected_count():
    # two nodes in a 10 m square; nbr_radius chosen so density*pi*r^2 == 1
    r = 10.0 / math.sqrt(2.0 * math.pi)
    net = network_from_positions([(0.0, 0.0), (1.0, 0.0)], 10.0, (5.0, 5.0))
    _, _, conc = normalize_inputs(net, 0, r)
    assert conc == pytest.approx(1.0, abs=1e-12)


def test_concentration_clamped_at_one():
    pts = [(float(i) * 0.01, 0.0) for i in range(20)]
    net = network_from_positions(pts, 100.0, (50.0, 50.0))
    _, _, conc = normalize_inputs(net, 10, 5.0)
    assert conc == 1.0


def test_dead_node_rejected():
    net = deploy(5, 100.0, (50.0, 50.0), seed=1)
    net.alive[2] = False
    with pytest.raises(ValueError, match="dead"):
        normalize_inputs(net, 2, 20.0)


@given(st.integers(0, 1000))
@settings(max_examples=30)
def test_normalized_inputs_bounded(seed):
    net = deploy(40, 100.0, (50.0, 175.0), seed=seed, initial_energy=0.5)
    rng = Xorshift64Star(seed + 1)
    for i in range(net.n):
        net.energy[i] = rng.random() * 0.5
        if net.energy[i] == 0.0:
            net.energy[i] = 0.1
    for i in range(net.n):
        db, re, conc = normalize_inputs(net, i, 30.0)
        assert 0.0 <= db <= 1.0
        assert 0.0 <= re <= 1.0
        assert 0.0 <= conc <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 120),
    st.integers(0, 2**31),
    st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)), min_size=1, max_size=60),
)
def test_dist_is_symmetric_bit_for_bit(n, seed, positions):
    # joining reads a head's row for every node's distance to it, and the
    # neighbor counts take a dead node's row for its column
    for net in (
        deploy(n, 300.0, (150.0, 525.0), seed),
        network_from_positions(positions, 100.0, (50.0, 175.0)),
    ):
        assert net.dist.tobytes() == np.ascontiguousarray(net.dist.T).tobytes()


def test_dist_matches_difference_tensor_bit_for_bit():
    net = deploy(300, 100.0, (50.0, 175.0), seed=9)
    pos = net.positions
    diff = pos[:, None, :] - pos[None, :, :]
    assert net.dist.tobytes() == np.sqrt((diff**2).sum(axis=-1)).tobytes()


ROWS_150 = block_rows(150)


def test_block_rows_follow_the_entry_budget():
    assert block_rows(1000) == 32  # 250 KiB of dist rows at 1000 nodes
    # a round has at most 3n message groups (candidates, finals, clusters):
    # a 100-node round is priced in one block
    assert block_rows(100) >= 3 * 100
    assert block_rows(10**6) == 1  # wider than the budget: still one row a block


@pytest.mark.parametrize("count", [1, ROWS_150 - 1, ROWS_150, ROWS_150 + 1, 3 * ROWS_150 + 5])
def test_batch_inputs_match_one_node_formula(count):
    net = deploy(150, 100.0, (50.0, 175.0), seed=4, initial_energy=0.5)
    rng = Xorshift64Star(8)
    net.energy[:] = [0.05 + rng.random() * 0.5 for _ in range(net.n)]  # some above initial
    net.alive[::7] = False
    # unsorted ids, repeated once the alive ones run out, so that a count can
    # pass every block boundary at this n
    ids = np.resize(np.flatnonzero(net.alive)[::-1], count)
    db, re, conc = normalize_inputs(net, ids, 25.0)
    counts = neighbor_count(net, ids, 25.0)
    expected = net.n / (net.area_side**2) * math.pi * 25.0 * 25.0
    for k, i in enumerate(ids.tolist()):
        others = [j for j in range(net.n) if j != i and net.alive[j] and net.dist[i, j] <= 25.0]
        assert counts[k] == neighbor_count(net, i, 25.0) == len(others)
        want = (
            net.bs_dist[i] / net.d_max,
            min(1.0, max(0.0, net.energy[i] / net.initial_energy)),
            min(1.0, len(others) / expected),
        )
        assert (db[k], re[k], conc[k]) == normalize_inputs(net, i, 25.0) == want


def test_batch_inputs_name_the_first_dead_node():
    net = deploy(10, 100.0, (50.0, 50.0), seed=1)
    net.alive[[3, 6]] = False
    with pytest.raises(ValueError, match="node 6 is dead"):
        normalize_inputs(net, np.array([1, 6, 3]), 20.0)


def test_inputs_without_radius_count_no_neighbors():
    net = deploy(40, 100.0, (50.0, 175.0), seed=2, initial_energy=0.5)
    net.alive[[4, 9]] = False
    ids = np.flatnonzero(net.alive)[::-1]
    db, re, conc = normalize_inputs(net, ids, None)
    want = normalize_inputs(net, ids, 25.0)
    assert conc is None and db.tobytes() == want[0].tobytes() and re.tobytes() == want[1].tobytes()
    with pytest.raises(ValueError, match="node 9 is dead"):
        normalize_inputs(net, np.array([1, 9]), None)
