"""CSV emission for metrics, summaries, positions and dumps; positions files
are read back for replay.

Dialect: comma separator, '.' decimal point, LF line endings, mandatory header
row, no quoting, and an empty field for a missing value. Floats are written as
``.16e`` (full-precision scientific notation) so files round-trip bit-exactly.
Each line is built as one string; every writer has closed its file when it
returns, and none holds more than one round or one surface slice of text.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

from .fis1 import RuleBase1, eval_fis1
from .fis2 import RuleBase2, eval_t2fis
from .protocols import RoundPlan
from .simulator import SimResult

T = TypeVar("T")

METRICS_HEADER = ("round", "alive", "dead", "total_j", "avg_j", "ch_count")
SUMMARY_HEADER = ("fnd", "hnd", "lnd", "seed")
# Most points per engine call of a surface writer, which calls in whole db
# values. The type-1 call then spans two 21 x 21 slices of the default grid,
# whose (17, points) firing table is 117 KiB, below glibc malloc's 128 KiB
# mmap threshold; the type-2 call spans eight 101-point slices.
SURFACE_POINTS = 882


@contextmanager
def _csv_file(path: str | Path, header: tuple[str, ...]):
    """The file at path, opened for writing with the header written."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        yield fh


def _write_lines(path: str | Path, header: tuple[str, ...], lines: Iterable[str]) -> None:
    """The header, then ``lines`` as they are: each ends in LF, and one item
    may hold many lines."""
    with _csv_file(path, header) as fh:
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


def write_clusters_csv(
    simulate: Callable[[Callable[[int, RoundPlan], None]], T], path: str | Path
) -> T:
    """Per-round membership dump (round, ch_id, member_id, radius, next_hop),
    written while the run goes.

    Opens path, writes the header and calls ``simulate(on_round)``; each
    ``on_round(round_index, plan)`` writes that round's ``cluster_rows``, so
    only one round's text is held at a time. Returns what ``simulate``
    returns, once the file is closed. If ``simulate`` raises, the file is
    closed holding the header and the rounds written before the error, and
    the error propagates."""
    with _csv_file(path, ("round", "ch_id", "member_id", "radius", "next_hop")) as fh:
        write = fh.write
        return simulate(lambda round_index, plan: write(cluster_rows(round_index, plan)))


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


def _db_groups(steps: list[float], text: list[str], per_db: int):
    """Consecutive db values in groups of one engine call each, with
    ``per_db`` points per db value: at most SURFACE_POINTS points a group,
    and one db value at least. Yields each group's db texts and its db input
    column."""
    size = max(1, SURFACE_POINTS // per_db)
    for g in range(0, len(steps), size):
        yield text[g : g + size], np.repeat(steps[g : g + size], per_db)


def write_fis1_surface(rb: RuleBase1, samples: int, path: str | Path, grid: int = 21) -> None:
    """(db, re, conc) -> (radius_norm, chance) over a uniform grid. One engine
    call evaluates a group of consecutive db values (see _db_groups); the
    text is formatted one db value at a time."""
    steps = _grid_steps(grid)
    text = [f"{s:.16e}" for s in steps]
    pairs = [f"{a},{b}," for a in text for b in text]  # (re, conc), conc fastest
    n = grid * grid
    re, conc = np.repeat(steps, grid), np.tile(steps, grid)

    def blocks():
        for db_text, db in _db_groups(steps, text, n):
            k = len(db_text)
            inputs = {"distance": db, "energy": np.tile(re, k), "concentration": np.tile(conc, k)}
            out = eval_fis1(rb, inputs, samples)
            radius, chance = out["radius"].reshape(k, n), out["chance"].reshape(k, n)
            for d, r_row, c_row in zip(db_text, radius, chance):
                points = zip(pairs, r_row.tolist(), c_row.tolist())
                yield "".join(f"{d},{pair}{r:.16e},{c:.16e}\n" for pair, r, c in points)

    _write_lines(path, ("db", "re", "conc", "radius_norm", "chance"), blocks())


def write_fis2_surface(rb: RuleBase2, path: str | Path, grid: int = 101) -> None:
    """(db, re) -> (radius_norm, chance) over a uniform grid, in engine calls
    and text as write_fis1_surface makes them."""
    steps = _grid_steps(grid)
    text = [f"{s:.16e}" for s in steps]

    def blocks():
        for db_text, db in _db_groups(steps, text, grid):
            k = len(db_text)
            radius, chance = eval_t2fis(rb, db, np.tile(steps, k))
            for d, r_row, c_row in zip(db_text, radius.reshape(k, grid), chance.reshape(k, grid)):
                points = zip(text, r_row.tolist(), c_row.tolist())
                yield "".join(f"{d},{t},{r:.16e},{c:.16e}\n" for t, r, c in points)

    _write_lines(path, ("db", "re", "radius_norm", "chance"), blocks())
