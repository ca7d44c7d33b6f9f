"""Reference CSV writers for the byte-identity tests.

These are the writers as they were written before lines were preformatted:
every cell through ``csv.writer`` and ``fmt``, and one tuple per member in
``cluster_rows``. The package's writers must reproduce their bytes exactly,
so keep this file as it is when the package's writers change.
"""
from __future__ import annotations

import csv
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from fuzzcluster.fis1 import RuleBase1, eval_fis1
from fuzzcluster.fis2 import RuleBase2, eval_t2fis
from fuzzcluster.simulator import SimResult

METRICS_HEADER = ("round", "alive", "dead", "total_j", "avg_j", "ch_count")
SUMMARY_HEADER = ("fnd", "hnd", "lnd", "seed")


def fmt(x: float) -> str:
    return f"{x:.16e}"


def _open_writer(path: str | Path):
    fh = open(path, "w", encoding="utf-8", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def write_metrics_csv(result: SimResult, path: str | Path) -> None:
    """One row per round in simulation order."""
    fh, w = _open_writer(path)
    with fh:
        w.writerow(METRICS_HEADER)
        for m in result.rounds:
            w.writerow((m.round, m.alive, m.dead, fmt(m.total_j), fmt(m.avg_j), m.ch_count))


def write_summary_csv(results: Iterable[SimResult], path: str | Path) -> None:
    """One row per run; undefined lifetime events are left empty."""
    fh, w = _open_writer(path)
    with fh:
        w.writerow(SUMMARY_HEADER)
        for r in results:
            w.writerow(
                (
                    "" if r.fnd is None else r.fnd,
                    "" if r.hnd is None else r.hnd,
                    "" if r.lnd is None else r.lnd,
                    r.seed,
                )
            )


def write_positions_csv(positions: np.ndarray, path: str | Path) -> None:
    """(n, 2) positions, one row per node id."""
    fh, w = _open_writer(path)
    with fh:
        w.writerow(("id", "x", "y"))
        for i, (x, y) in enumerate(positions.tolist()):
            w.writerow((i, fmt(x), fmt(y)))


def write_clusters_csv(rows: Sequence[tuple], path: str | Path) -> None:
    """Per-round membership dump: (round, ch_id, member_id, radius, next_hop)."""
    fh, w = _open_writer(path)
    with fh:
        w.writerow(("round", "ch_id", "member_id", "radius", "next_hop"))
        for rnd, ch, member, radius, hop in rows:
            w.writerow(
                (rnd, ch, "" if member is None else member, fmt(radius), "BS" if hop is None else hop)
            )


def cluster_rows(round_index: int, plan) -> list[tuple]:
    """A round's rows for ``write_clusters_csv``, in cluster order: one per
    member, or one with no member for a head without members."""
    heads, members = plan.heads.tolist(), plan.members.tolist()
    sizes, ends = plan.sizes.tolist(), np.cumsum(plan.sizes).tolist()
    rows = []
    for head, n, end, radius, k in zip(heads, sizes, ends, plan.radius.tolist(), plan.next_hop.tolist()):
        hop = None if k < 0 else heads[k]
        mine = members[end - n : end] or [None]
        rows.extend(zip(repeat(round_index), repeat(head), mine, repeat(radius), repeat(hop)))
    return rows


def write_fis1_surface(rb: RuleBase1, samples: int, path: str | Path, grid: int = 21) -> None:
    """(db, re, conc) -> (radius_norm, chance) over a uniform grid, one engine
    call per db value."""
    fh, w = _open_writer(path)
    with fh:
        w.writerow(("db", "re", "conc", "radius_norm", "chance"))
        steps = [i / (grid - 1) for i in range(grid)]
        re = np.repeat(steps, grid)
        conc = np.tile(steps, grid)
        for db in steps:
            inputs = {"distance": np.full(len(re), db), "energy": re, "concentration": conc}
            out = eval_fis1(rb, inputs, samples)
            rows = zip(re.tolist(), conc.tolist(), out["radius"].tolist(), out["chance"].tolist())
            for row in rows:
                w.writerow((fmt(db), *map(fmt, row)))


def write_fis2_surface(rb: RuleBase2, path: str | Path, grid: int = 101) -> None:
    """(db, re) -> (radius_norm, chance) over a uniform grid, one engine call
    per db value."""
    fh, w = _open_writer(path)
    with fh:
        w.writerow(("db", "re", "radius_norm", "chance"))
        steps = [i / (grid - 1) for i in range(grid)]
        re = np.array(steps)
        for db in steps:
            radius, chance = eval_t2fis(rb, np.full(grid, db), re)
            for row in zip(steps, radius.tolist(), chance.tolist()):
                w.writerow((fmt(db), *map(fmt, row)))
