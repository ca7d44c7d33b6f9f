"""Metamorphic whole-run relations: checks between two runs that hold
whatever bytes the goldens pin, so they still say something after a re-pin.

Transpose: swapping x and y of every node and of the sink changes no
distance in any bit, because dx^2 + dy^2 commutes, so the run is the same.

Energy x 8: multiplying the initial energy, the overrides and the four radio
constants by a power of two scales every energy the run forms exactly and
leaves every normalized energy as it was, so the clusters are the same and
every total is 8 times the original.

Length x 2: doubling every length and dividing eps_fs by 4 and eps_mp by 16
leaves every amplifier cost (eps_fs d^2, eps_mp d^4) and every normalized
distance as it was, and doubles d0, so the energy series is the same and
every radius is doubled.

Each preset x protocol cell runs its base run once, for all three relations.
"""
import functools
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from test_golden import WEAK_NODES
from fuzzcluster.config import PROTOCOL_NAMES, parse_config
from fuzzcluster.csvio import write_clusters_csv
from fuzzcluster.simulator import run_simulation

# long enough at 100 nodes to leave the flat tops of the energy memberships,
# and every weak node dies on the way; the 1000-node field runs fewer
ROUNDS = {100: 200, 1000: 60}

PROTOCOLS = pytest.mark.parametrize("protocol", sorted(PROTOCOL_NAMES))
PRESETS = pytest.mark.parametrize("preset", ["ch3", "ch2-scenario1", "ch2-scenario2"])


def clusters_and_energy(cfg):
    """The run's clusters.csv text and its total_j series, and the run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clusters.csv"
        result = write_clusters_csv(lambda on_round: run_simulation(cfg, on_round=on_round), path)
        return path.read_text(encoding="utf-8"), [m.total_j for m in result.rounds], result


def cell_run(preset, protocol):
    """The cell's config and clusters_and_energy of its run, weak nodes
    included at 100 nodes, as the goldens run them."""
    cfg = parse_config(preset)
    cfg = replace(
        cfg,
        protocol=replace(cfg.protocol, kind=PROTOCOL_NAMES[protocol]),
        max_rounds=ROUNDS[cfg.n],
        energy_overrides=WEAK_NODES if cfg.n == 100 else {},
    )
    text, total_j, result = clusters_and_energy(cfg)
    assert result.rounds[-1].dead >= len(cfg.energy_overrides)
    return cfg, text, total_j, result


@pytest.fixture(scope="module")
def base_run():
    """cell_run, run once per cell for this module's tests."""
    return functools.cache(cell_run)


@PROTOCOLS
@PRESETS
def test_transposed_field_gives_the_same_run(base_run, preset, protocol):
    cfg, text, total_j, result = base_run(preset, protocol)
    swapped = replace(
        cfg, positions=[(y, x) for x, y in result.positions.tolist()], bs_pos=cfg.bs_pos[::-1]
    )
    assert clusters_and_energy(swapped)[:2] == (text, total_j)


@PROTOCOLS
@PRESETS
def test_energy_times_8_gives_the_same_clusters_and_8_times_the_energy(base_run, preset, protocol):
    cfg, text, total_j, _ = base_run(preset, protocol)
    radio = cfg.radio
    scaled = replace(
        cfg,
        initial_energy=8 * cfg.initial_energy,
        energy_overrides={i: 8 * e for i, e in cfg.energy_overrides.items()},
        radio=replace(
            radio,
            e_elec=8 * radio.e_elec,
            eps_fs=8 * radio.eps_fs,
            eps_mp=8 * radio.eps_mp,
            e_da=8 * radio.e_da,
        ),
    )
    assert clusters_and_energy(scaled)[:2] == (text, [8 * t for t in total_j])


def rows_and_radii(text):
    """clusters.csv's rows without their radius, and the radii as floats."""
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return [row[:3] + row[4:] for row in rows], [float(row[3]) for row in rows]


@PROTOCOLS
@PRESETS
def test_length_times_2_gives_the_same_energy_and_twice_the_radii(base_run, preset, protocol):
    cfg, text, total_j, result = base_run(preset, protocol)
    radio, params = cfg.radio, cfg.protocol
    doubled = replace(
        cfg,
        positions=(2 * result.positions).tolist(),
        area_side=2 * cfg.area_side,
        bs_pos=(2 * cfg.bs_pos[0], 2 * cfg.bs_pos[1]),
        radio=replace(radio, eps_fs=radio.eps_fs / 4, eps_mp=radio.eps_mp / 16),
        protocol=replace(
            params,
            r_min=2 * params.r_min,
            r_max=2 * params.r_max,
            nbr_radius=params.nbr_radius and 2 * params.nbr_radius,
        ),
    )
    doubled_text, doubled_total_j, _ = clusters_and_energy(doubled)
    assert doubled_total_j == total_j
    rows, radii = rows_and_radii(text)
    assert rows_and_radii(doubled_text) == (rows, [2 * r for r in radii])
