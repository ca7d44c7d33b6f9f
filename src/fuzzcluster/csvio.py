"""CSV emission for metrics, summaries, positions and dumps; positions files
are read back for replay.

Dialect: comma separator, '.' decimal point, LF line endings, mandatory header
row, no quoting, and an empty field for a missing value. Floats are written as
``.16e`` (full-precision scientific notation) so files round-trip bit-exactly.
Each line is built as one string; every writer has closed its file when it
returns, and none holds more than one round or one surface slice of text
(both surface writers also hold the outputs they evaluate, see
_write_surface).
"""
from __future__ import annotations

import csv
import itertools
import math
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
# Most points per engine call of a surface writer. A type-1 call's (17,
# points) firing table is then 117 KiB, below glibc malloc's 128 KiB mmap
# threshold. At the default grids the stock type-1 dump takes two calls
# (12**3 points) and the type-2 dump twelve (101**2 points).
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


def _write_surface(path: str | Path, header: tuple[str, ...], grid: int, patterns, evaluate) -> None:
    """An engine surface: one line per point of a uniform grid of ``grid``
    steps from 0 to 1 in each input, the first input slowest, then the
    point's (radius_norm, chance). A grid below 2 steps raises a ValueError
    before any file is opened.

    ``patterns(x)`` gives, for each input, its steps x sorted into patterns
    (the pair membership_patterns returns), such that a point's outputs are a
    function of its inputs' patterns; ``evaluate(*columns)`` gives the
    outputs at the points of one column per input. Once the file is open the
    engine runs on the product of one step per pattern, in calls of at most
    SURFACE_POINTS points, and the writer holds those outputs, 16 bytes a
    point. A first-input value's lines are built once per run of its
    pattern, from that pattern's block of outputs."""
    if grid < 2:
        raise ValueError(f"grid: need at least 2 steps to span [0, 1], got {grid}")
    x = np.arange(grid) / (grid - 1)
    text = [f"{s:.16e}" for s in x.tolist()]
    firsts, (first_of, *rest_of) = zip(*patterns(x))
    shape = tuple(map(len, firsts))
    size = math.prod(shape[1:])
    # the fields of each point of a first-input value before its outputs, the
    # last input fastest, and that point's place in its pattern's block
    fields = ["".join(p) for p in itertools.product([f"{t}," for t in text], repeat=len(rest_of))]
    in_block = np.ravel_multi_index(np.ix_(*rest_of), shape[1:]).ravel().tolist()
    first_of = first_of.tolist()

    def blocks():
        out = np.empty((2, shape[0] * size))
        for s in range(0, out.shape[1], SURFACE_POINTS):
            at = np.unravel_index(np.arange(s, min(s + SURFACE_POINTS, out.shape[1])), shape)
            out[:, s : s + len(at[0])] = evaluate(*(x[f[k]] for f, k in zip(firsts, at)))
        for i, d in enumerate(text):
            if i == 0 or first_of[i] != first_of[i - 1]:
                block = out[:, first_of[i] * size : (first_of[i] + 1) * size].tolist()
                radius, chance = ([f"{v:.16e}" for v in row] for row in block)
                lines = [f"{f}{radius[k]},{chance[k]}\n" for f, k in zip(fields, in_block)]
            yield f"{d}," + f"{d},".join(lines)

    _write_lines(path, header, blocks())


def write_fis1_surface(rb: RuleBase1, samples: int, path: str | Path, grid: int = 21) -> None:
    """(db, re, conc) -> (radius_norm, chance) over a uniform grid, evaluated
    once per membership pattern of each input (membership_patterns): 12**3
    points in two calls for the stock rule base at the default grid."""
    names = ("distance", "energy", "concentration")

    def evaluate(*columns):
        got = eval_fis1(rb, dict(zip(names, columns)), samples)
        return got["radius"], got["chance"]

    header = ("db", "re", "conc", "radius_norm", "chance")
    _write_surface(path, header, grid, lambda x: [membership_patterns(rb, n, x) for n in names], evaluate)


def write_fis2_surface(rb: RuleBase2, path: str | Path, grid: int = 101) -> None:
    """(db, re) -> (radius_norm, chance) over a uniform grid, evaluated at
    every point: each step is its own pattern, which is exact for any rule
    base (the stock footprints give no two steps one pattern anyway)."""
    every = np.arange(grid)  # the first step of each pattern, and each step's pattern
    header = ("db", "re", "radius_norm", "chance")
    _write_surface(path, header, grid, lambda x: [(every, every)] * 2, lambda db, re: eval_t2fis(rb, db, re))
