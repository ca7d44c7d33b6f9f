"""CSV emission for metrics, summaries, positions and dumps; positions files
are read back for replay.

Dialect: comma separator, '.' decimal point, LF line endings, mandatory header
row, no quoting, and an empty field for a missing value. Floats are written as
``.16e`` (full-precision scientific notation) so files round-trip bit-exactly.
Each line is built as one string; every writer has closed its file when it
returns.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

import numpy as np

from .fis1 import RuleBase1, eval_fis1
from .fis2 import RuleBase2, eval_t2fis
from .simulator import SimResult

METRICS_HEADER = ("round", "alive", "dead", "total_j", "avg_j", "ch_count")
SUMMARY_HEADER = ("fnd", "hnd", "lnd", "seed")


def _write_lines(path: str | Path, header: tuple[str, ...], lines: Iterable[str]) -> None:
    """The header, then ``lines`` as they are: each ends in LF, and one item
    may hold many lines."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def write_metrics_csv(result: SimResult, path: str | Path) -> None:
    """One row per round in simulation order."""
    lines = (
        f"{m.round},{m.alive},{m.dead},{m.total_j:.16e},{m.avg_j:.16e},{m.ch_count}\n"
        for m in result.rounds
    )
    _write_lines(path, METRICS_HEADER, lines)


def write_summary_csv(results: Iterable[SimResult], path: str | Path) -> None:
    """One row per run; undefined lifetime events are left empty."""
    events = ((r.fnd, r.hnd, r.lnd, r.seed) for r in results)
    lines = (",".join("" if v is None else str(v) for v in row) + "\n" for row in events)
    _write_lines(path, SUMMARY_HEADER, lines)


def write_positions_csv(positions: np.ndarray, path: str | Path) -> None:
    """(n, 2) positions, one row per node id."""
    lines = (f"{i},{x:.16e},{y:.16e}\n" for i, (x, y) in enumerate(positions.tolist()))
    _write_lines(path, ("id", "x", "y"), lines)


def read_positions_csv(path: str | Path) -> list[tuple[float, float]]:
    """Positions ordered by node id; ids must be the contiguous range 0..n-1."""
    rows: dict[int, tuple[float, float]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != ["id", "x", "y"]:
            raise ValueError(f"{path}: line 1: expected header id,x,y, got {','.join(header)!r}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            try:
                nid, x, y = row
                nid, x, y = int(nid), float(x), float(y)
            except ValueError:
                raise ValueError(f"{where}: expected id,x,y, got {','.join(row)!r}") from None
            if nid in rows:
                raise ValueError(f"{where}: duplicate node id {nid}")
            rows[nid] = (x, y)
    if sorted(rows) != list(range(len(rows))):
        raise ValueError("positions file must list node ids 0..n-1")
    return [rows[i] for i in range(len(rows))]


def write_clusters_csv(rounds: Iterable[str], path: str | Path) -> None:
    """Per-round membership dump (round, ch_id, member_id, radius, next_hop):
    the header, then each round's text from ``cluster_rows`` in order."""
    _write_lines(path, ("round", "ch_id", "member_id", "radius", "next_hop"), rounds)


def cluster_rows(round_index: int, plan) -> str:
    """A round's lines for ``write_clusters_csv``, in cluster order: one per
    member, or one with an empty member field for a head without members.
    The next hop is a head id, or ``BS`` for the sink."""
    heads, ids = plan.heads.tolist(), list(map(str, plan.members.tolist()))
    sizes, ends = plan.sizes.tolist(), np.cumsum(plan.sizes).tolist()
    parts = []
    clusters = zip(heads, sizes, ends, plan.radius.tolist(), plan.next_hop.tolist())
    for head, n, end, radius, k in clusters:
        prefix = f"{round_index},{head},"
        suffix = f",{radius:.16e},{'BS' if k < 0 else heads[k]}\n"
        parts.append(prefix + (suffix + prefix).join(ids[end - n : end]) + suffix)
    return "".join(parts)


def _grid_steps(grid: int) -> list[float]:
    """grid evenly spaced steps from 0 to 1; fewer than two raise a
    ValueError, before any file is opened."""
    if grid < 2:
        raise ValueError(f"grid: need at least 2 steps to span [0, 1], got {grid}")
    return [i / (grid - 1) for i in range(grid)]


def write_fis1_surface(rb: RuleBase1, samples: int, path: str | Path, grid: int = 21) -> None:
    """(db, re, conc) -> (radius_norm, chance) over a uniform grid, one engine
    call per db value."""
    steps = _grid_steps(grid)
    text = [f"{s:.16e}" for s in steps]
    pairs = [f"{a},{b}," for a in text for b in text]  # (re, conc), conc fastest
    re, conc = np.repeat(steps, grid), np.tile(steps, grid)

    def block(db: float, db_text: str) -> str:
        inputs = {"distance": np.full(len(re), db), "energy": re, "concentration": conc}
        out = eval_fis1(rb, inputs, samples)
        points = zip(pairs, out["radius"].tolist(), out["chance"].tolist())
        return "".join(f"{db_text},{pair}{r:.16e},{c:.16e}\n" for pair, r, c in points)

    _write_lines(path, ("db", "re", "conc", "radius_norm", "chance"), map(block, steps, text))


def write_fis2_surface(rb: RuleBase2, path: str | Path, grid: int = 101) -> None:
    """(db, re) -> (radius_norm, chance) over a uniform grid, one engine call
    per db value."""
    steps = _grid_steps(grid)
    text = [f"{s:.16e}" for s in steps]
    re = np.array(steps)

    def block(db: float, db_text: str) -> str:
        radius, chance = eval_t2fis(rb, np.full(grid, db), re)
        points = zip(text, radius.tolist(), chance.tolist())
        return "".join(f"{db_text},{t},{r:.16e},{c:.16e}\n" for t, r, c in points)

    _write_lines(path, ("db", "re", "radius_norm", "chance"), map(block, steps, text))
