"""Metamorphic whole-run relations: checks between two runs that hold
whatever bytes the goldens pin, so they still say something after a re-pin.

Transpose: swapping x and y of every node and of the sink changes no
distance in any bit, because dx^2 + dy^2 commutes, so the run is the same.
"""
from dataclasses import replace

import pytest

from test_golden import WEAK_NODES
from fuzzcluster.config import PROTOCOL_NAMES, parse_config
from fuzzcluster.csvio import write_clusters_csv
from fuzzcluster.simulator import run_simulation

# long enough to leave the flat tops of the energy memberships, and every
# weak node dies on the way
ROUNDS = 200


def clusters_and_energy(cfg, path):
    """The run's clusters.csv text and its total_j series."""
    result = write_clusters_csv(lambda on_round: run_simulation(cfg, on_round=on_round), path)
    return path.read_text(encoding="utf-8"), [m.total_j for m in result.rounds], result


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_NAMES))
@pytest.mark.parametrize("preset", ["ch3", "ch2-scenario1"])
def test_transposed_field_gives_the_same_run(tmp_path, preset, protocol):
    cfg = parse_config(preset)
    cfg = replace(
        cfg,
        protocol=replace(cfg.protocol, kind=PROTOCOL_NAMES[protocol]),
        max_rounds=ROUNDS,
        energy_overrides=WEAK_NODES,
    )
    text, total_j, result = clusters_and_energy(cfg, tmp_path / "a.csv")
    assert result.rounds[-1].dead >= len(WEAK_NODES)
    swapped = replace(
        cfg, positions=[(y, x) for x, y in result.positions.tolist()], bs_pos=cfg.bs_pos[::-1]
    )
    assert clusters_and_energy(swapped, tmp_path / "b.csv")[:2] == (text, total_j)
