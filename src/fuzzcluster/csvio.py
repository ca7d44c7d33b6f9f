"""CSV emission for metrics, summaries, positions and dumps; positions files
are read back for replay.

Dialect: comma separator, '.' decimal point, LF line endings, mandatory header
row, no quoting, and an empty field for a missing value. Floats are written as
``.16e`` (full-precision scientific notation) so files round-trip bit-exactly.
Each line is built as one string; every writer has closed its file when it
returns, and none holds more than one round or one surface slice of text
(the type-1 surface writer also holds the outputs it evaluates, see
write_fis1_surface).
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

from .fis1 import RuleBase1, eval_fis1, membership_patterns
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
    missing = next((i for i in range(len(rows)) if i not in rows), None)
    if missing is not None:
        low = min(rows)
        why = f"id {low} is negative" if low < 0 else f"id {missing} is missing"
        raise ValueError(f"{path}: node ids must run 0..n-1, but {why}")
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


# The text of each node id below its length, grown to the largest member id
# cluster_rows has seen: a take from it costs a tenth of formatting the ids.
_ID_TEXT = np.empty(0, dtype=object)


def _id_texts(ids: np.ndarray) -> list[str]:
    """The decimal text of each (nonnegative) id, from _ID_TEXT."""
    global _ID_TEXT
    top = int(ids.max(initial=-1)) + 1
    if top > len(_ID_TEXT):
        grown = np.array([str(i) for i in range(len(_ID_TEXT), top)], dtype=object)
        _ID_TEXT = np.concatenate([_ID_TEXT, grown])
    return _ID_TEXT.take(ids).tolist()


def cluster_rows(round_index: int, plan) -> str:
    """A round's lines for ``write_clusters_csv``, in cluster order: one per
    member, or one with an empty member field for a head without members.
    The next hop is a head id, or ``BS`` for the sink."""
    heads, ids = plan.heads.tolist(), _id_texts(plan.members)
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


def _texts(values: np.ndarray) -> list[list[str]]:
    """The ``.16e`` text of each value of each row of values, each distinct
    bit pattern formatted once."""
    seen: dict[int, str] = {}
    texts = []
    for row in values:
        keys = row.view(np.uint64).tolist()
        texts.append([seen.get(k) or seen.setdefault(k, f"{v:.16e}") for k, v in zip(keys, row.tolist())])
    return texts


def write_fis1_surface(rb: RuleBase1, samples: int, path: str | Path, grid: int = 21) -> None:
    """(db, re, conc) -> (radius_norm, chance) over a uniform grid.

    A point's outputs are a function of the membership pattern of each of its
    three steps (membership_patterns), so the engine runs once the file is
    open, on the product of one step per pattern, in calls of at most
    SURFACE_POINTS points: 12**3 points in two calls for the stock rule base
    at the default grid. A db value's lines are built once per run of db
    values of one pattern, from the texts of that pattern's outputs, each
    distinct bit pattern among them formatted once. So besides one db value's
    text the writer holds the product's outputs, 16 bytes a point."""
    steps = _grid_steps(grid)
    text = [f"{s:.16e}" for s in steps]
    pairs = [f"{a},{b}," for a in text for b in text]  # (re, conc), conc fastest
    x = np.array(steps)
    names = ("distance", "energy", "concentration")
    firsts, (db_of, re_of, conc_of) = zip(*(membership_patterns(rb, name, x) for name in names))
    shape = tuple(map(len, firsts))
    per_db = shape[1] * shape[2]
    # each (re, conc) point's place among the product points of one db pattern
    in_block = (re_of[:, None] * shape[2] + conc_of).ravel().tolist()
    db_of = db_of.tolist()

    def blocks():
        out = np.empty((2, shape[0] * per_db))
        for s in range(0, out.shape[1], SURFACE_POINTS):
            at = np.unravel_index(np.arange(s, min(s + SURFACE_POINTS, out.shape[1])), shape)
            got = eval_fis1(rb, {name: x[f[k]] for name, f, k in zip(names, firsts, at)}, samples)
            out[:, s : s + len(at[0])] = got["radius"], got["chance"]
        for i, d in enumerate(text):
            if i == 0 or db_of[i] != db_of[i - 1]:  # the lines of db value i after its db field
                radius, chance = _texts(out[:, db_of[i] * per_db : (db_of[i] + 1) * per_db])
                lines = [f"{pair}{radius[k]},{chance[k]}\n" for pair, k in zip(pairs, in_block)]
            yield f"{d}," + f"{d},".join(lines)

    _write_lines(path, ("db", "re", "conc", "radius_norm", "chance"), blocks())


def write_fis2_surface(rb: RuleBase2, path: str | Path, grid: int = 101) -> None:
    """(db, re) -> (radius_norm, chance) over a uniform grid. One engine call
    evaluates a group of consecutive db values (see _db_groups); the text is
    formatted one db value at a time."""
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
