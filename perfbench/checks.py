"""Output checks. Each returns a list of failure messages (empty when the
outputs pass); the first failure found per check family is enough.

Simulation runs are checked round by round against properties the method must
have and against oracle.py's own radio model and positions. Library runs are
read from the worker's capture; CLI runs from the files the CLI wrote, with
only each round's control spend taken from the capture, since no file records
it. Surfaces are compared point by point with oracle.py's engines.
"""
from __future__ import annotations

import csv
import math
import pickle
from dataclasses import dataclass

import numpy as np

import oracle

REL_TOL = 1e-9
MAX_ROUNDS = 5000  # the presets' round cap


@dataclass
class Round:
    index: int
    clusters: list  # (head, radius, members)
    routes: dict  # head -> next-hop head, None for the sink
    control_j: float
    alive_after: int
    dead_after: int
    total_j: float
    avg_j: float
    ch_count: int
    spent_j: float


def read_capture(path: str) -> tuple[list[list[tuple]], list, object]:
    """(round plans per run, generator per run, library result or None)."""
    runs: list[list[tuple]] = []
    with open(path, "rb") as fh:
        while True:
            rec = pickle.load(fh)
            if rec[0] == "run":
                runs.append([])
            elif rec[0] == "round":
                runs[-1].append(rec[1:])
            else:
                return runs, rec[1], rec[2]


def lifetime(alive: list[int], dead: list[int], n: int) -> tuple:
    half = math.ceil(n / 2)
    fnd = next((r + 1 for r, d in enumerate(dead) if d >= 1), None)
    hnd = next((r + 1 for r, d in enumerate(dead) if d >= half), None)
    lnd = next((r + 1 for r, a in enumerate(alive) if a == 0), None)
    return fnd, hnd, lnd


# --- simulation runs ---------------------------------------------------------


def check_rounds(
    p: oracle.Preset, geo: oracle.Geometry, kind: str, rounds: list[Round], cap: int = MAX_ROUNDS
) -> list[str]:
    errors: list[str] = []

    def fail(rnd: int, family: str, msg: str) -> None:
        if not any(e.startswith(family) for e in errors):
            errors.append(f"{family} (round {rnd}): {msg}")

    alive_start = p.n
    prev_nodes: set[int] | None = None
    total_before = math.fsum([p.e0] * p.n)
    for rd in rounds:
        r = rd.index
        heads = [c[0] for c in rd.clusters]
        members = [m for c in rd.clusters for m in c[2]]
        nodes = set(heads) | set(members)
        if len(nodes) != len(heads) + len(members) or len(nodes) != alive_start:
            fail(r, "partition", f"{len(heads)} heads + {len(members)} members, {alive_start} alive")
        if prev_nodes is not None and not nodes <= prev_nodes:
            fail(r, "partition", f"nodes {sorted(nodes - prev_nodes)[:5]} were dead")
        prev_nodes = nodes

        # Routes: every head has one; each hop is a head strictly closer to the sink.
        if set(rd.routes) != set(heads):
            fail(r, "routes", "route table does not cover exactly the heads")
        for h, hop in rd.routes.items():
            if hop is not None and (hop not in rd.routes or not geo.bs_dist[hop] < geo.bs_dist[h]):
                fail(r, "routes", f"head {h} -> {hop} makes no progress to the sink")

        elected = sorted((c[0], c[1]) for c in rd.clusters if c[1] > 0.0)
        if kind != "leach" and len(elected) > 1:
            ids = np.array([e[0] for e in elected])
            rad = np.array([e[1] for e in elected])
            d = geo.dist[np.ix_(ids, ids)]
            ok = (d > rad[:, None]) & (d > rad[None, :])
            np.fill_diagonal(ok, True)
            if not ok.all():
                i, j = np.argwhere(~ok)[0]
                fail(r, "competition", f"heads {ids[i]} and {ids[j]} lie within a radius of each other")

        check_joining(p, geo, kind, rd, elected, fail)
        check_energy(p, geo, rd, alive_start, fail)

        if rd.ch_count != len(rd.clusters):
            fail(r, "metrics", f"ch_count {rd.ch_count} != {len(rd.clusters)} clusters")
        if rd.alive_after > alive_start or rd.alive_after + rd.dead_after != p.n:
            fail(r, "metrics", f"alive {rd.alive_after} after {alive_start}, dead {rd.dead_after}")
        want_avg = rd.total_j / rd.alive_after if rd.alive_after else 0.0
        if abs(rd.avg_j - want_avg) > REL_TOL * abs(want_avg):
            fail(r, "metrics", f"avg_j {rd.avg_j} != total/alive {want_avg}")
        drop = total_before - rd.total_j
        if abs(drop - rd.spent_j) > REL_TOL * rd.spent_j + 1e-12 * p.n * p.e0:
            fail(r, "metrics", f"total fell by {drop}, spent {rd.spent_j}")
        total_before = rd.total_j
        alive_start = rd.alive_after
    if rounds and rounds[-1].alive_after != 0 and len(rounds) != cap:
        errors.append(f"metrics: run stopped at round {len(rounds)} with {rounds[-1].alive_after} alive")
    return errors


def check_joining(p, geo, kind, rd: Round, elected, fail) -> None:
    """leach / fuzzy-unequal: nearest head, lowest id on a tie. type2fl: nearest
    elected head, within r_max; a self-promoted node has none within r_max."""
    pairs = [(m, c[0]) for c in rd.clusters for m in c[2]]
    heads = sorted(c[0] for c in rd.clusters)
    if kind == "type2fl":
        heads = [e[0] for e in elected]
        for h, radius, mem in rd.clusters:
            if radius == 0.0 and (mem or (heads and geo.dist[h, heads].min() <= p.r_max)):
                fail(rd.index, "joining", f"self-promoted node {h} had an elected head in range")
    if not pairs:
        return
    if not heads:
        fail(rd.index, "joining", "members but no eligible head")
        return
    mem = np.array([m for m, _ in pairs])
    got = np.array([h for _, h in pairs])
    hs = np.array(heads)
    want = hs[np.argmin(geo.dist[np.ix_(mem, hs)], axis=1)]
    bad = np.flatnonzero(want != got)
    if len(bad):
        i = bad[0]
        fail(rd.index, "joining", f"member {mem[i]} joined {got[i]}, nearest is {want[i]}")
    if kind == "type2fl" and (geo.dist[mem, got] > p.r_max).any():
        fail(rd.index, "joining", "a member joined a head beyond r_max")


def check_energy(p, geo, rd: Round, alive_start: int, fail) -> None:
    """Re-price the round's data traffic, add the plan's control spend, and
    compare with what the round drained: equal when nobody died, else at least."""
    bits = p.bits
    terms = [rd.control_j]
    packets = {}
    for head, _, mem in rd.clusters:
        if mem:
            terms.extend(p.tx(bits, geo.dist[mem, head]).tolist())
        terms.append(p.rx(bits) * len(mem))
        terms.append(p.e_da * bits * (len(mem) + 1))
        packets[head] = 1
    for head in sorted(packets, key=lambda h: (-geo.bs_dist[h], h)):
        hop = rd.routes.get(head)
        d = geo.bs_dist[head] if hop is None else geo.dist[head, hop]
        terms.append(float(p.tx(bits, d)) * packets[head])
        if hop in packets:
            terms.append(p.rx(bits) * packets[head])
            packets[hop] += packets[head]
    priced = math.fsum(terms)
    if rd.alive_after == alive_start:
        if abs(priced - rd.spent_j) > REL_TOL * rd.spent_j:
            fail(rd.index, "energy", f"re-priced {priced!r} J, spent {rd.spent_j!r} J, nobody died")
    elif priced < rd.spent_j * (1.0 - REL_TOL):
        fail(rd.index, "energy", f"re-priced {priced!r} J < spent {rd.spent_j!r} J")


def check_draws(p: oracle.Preset, seed: int, rounds: list[Round], rng) -> list[str]:
    """The run consumed 2n deployment draws plus one per alive node per round."""
    draws = 2 * p.n + p.n + sum(rd.alive_after for rd in rounds[:-1])
    ref = oracle.XorShift64Star(seed)
    ref.skip(draws)
    if [ref.uniform(), ref.uniform()] != [rng.random(), rng.random()]:
        return [f"rng: generator state is not 2n + sum(alive at start) = {draws} draws from the seed"]
    return []


def check_lib_run(preset: str, kind: str, seed: int, cap: int, plans, rng, result) -> list[str]:
    p = oracle.PRESETS[preset]
    geo = oracle.Geometry(p, seed)
    if len(plans) != len(result.rounds):
        return [f"capture: {len(plans)} round plans for {len(result.rounds)} rounds"]
    if [m.round for m in result.rounds] != list(range(1, len(plans) + 1)):
        return ["metrics: rounds are not numbered 1..R"]
    rounds = [
        Round(m.round, cl, routes, math.fsum(control), m.alive, m.dead, m.total_j, m.avg_j,
              m.ch_count, m.spent_j)
        for (_, cl, routes, control, _, _), m in zip(plans, result.rounds)
    ]
    errors = check_rounds(p, geo, kind, rounds, cap)
    # orphan_fallbacks: self-promoted nodes plus one if the election was empty
    for plan, m in zip(plans, result.rounds):
        promoted = sum(1 for c in plan[1] if c[1] == 0.0) if kind == "type2fl" else 0
        if m.orphan_fallbacks - promoted not in (0, 1):
            errors.append(f"metrics (round {m.round}): orphan_fallbacks {m.orphan_fallbacks}, "
                          f"{promoted} self-promoted")
            break
    events = lifetime([m.alive for m in result.rounds], [m.dead for m in result.rounds], p.n)
    if events != (result.fnd, result.hnd, result.lnd):
        errors.append(f"lifetime: reported {(result.fnd, result.hnd, result.lnd)}, dead counts give {events}")
    return errors + check_draws(p, seed, rounds, rng)


def read_csv(path: str, header: tuple) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"{path}: header {rows[:1]} != {header}")
    return rows[1:]


def check_cli_run(preset: str, kind: str, seed: int, files: list[str], plans, rng,
                  summary_row: list[str]) -> list[str]:
    """files: metrics, clusters, positions (as the CLI named them)."""
    p = oracle.PRESETS[preset]
    geo = oracle.Geometry(p, seed)
    metrics_path, clusters_path, positions_path = files
    errors = []
    pos = read_csv(positions_path, ("id", "x", "y"))
    got = np.array([[float(x), float(y)] for _, x, y in pos])
    if [int(r[0]) for r in pos] != list(range(p.n)) or not np.array_equal(got, geo.pos):
        errors.append("positions: positions.csv is not the seed's deployment")
    metrics = [
        (int(a), int(b), int(c), float(d), float(e), int(f))
        for a, b, c, d, e, f in read_csv(
            metrics_path, ("round", "alive", "dead", "total_j", "avg_j", "ch_count")
        )
    ]
    if [m[0] for m in metrics] != list(range(1, len(metrics) + 1)):
        return errors + ["metrics: rounds are not numbered 1..R"]
    if len(plans) != len(metrics):
        return errors + [f"capture: {len(plans)} round plans for {len(metrics)} rounds"]
    per_round: list[dict] = [{} for _ in metrics]
    header = ("round", "ch_id", "member_id", "radius", "next_hop")
    for rnd, head, member, radius, hop in read_csv(clusters_path, header):
        entry = per_round[int(rnd) - 1].setdefault(
            int(head), (float(radius), [], None if hop == "BS" else int(hop))
        )
        if member:
            entry[1].append(int(member))
    rounds = []
    total_before = math.fsum([p.e0] * p.n)
    for (r, alive, dead, total, avg, ch), heads, plan in zip(metrics, per_round, plans):
        rounds.append(Round(
            r,
            [(h, rad, mem) for h, (rad, mem, _) in heads.items()],
            {h: hop for h, (_, _, hop) in heads.items()},
            math.fsum(plan[3]),
            alive, dead, total, avg, ch,
            total_before - total,  # metrics.csv has no spent_j; the total's drop is it
        ))
        total_before = total
    errors += check_rounds(p, geo, kind, rounds)
    events = lifetime([m[1] for m in metrics], [m[2] for m in metrics], p.n)
    want = ["" if e is None else str(e) for e in events] + [str(seed)]
    if summary_row != want:
        errors.append(f"summary: row {summary_row}, dead counts give {want}")
    return errors + check_draws(p, seed, rounds, rng)


# --- surfaces ----------------------------------------------------------------


def _grid(grid: int) -> list[float]:
    return [i / (grid - 1) for i in range(grid)]


def check_fis2_surface(path: str, rb2, seed: int, points: int = 400) -> list[str]:
    rows = read_csv(path, ("db", "re", "radius_norm", "chance"))
    steps = _grid(101)
    coords = [(db, re) for db in steps for re in steps]
    vals = np.array([[float(x) for x in row] for row in rows])
    if len(rows) != len(coords) or not np.array_equal(vals[:, :2], np.array(coords)):
        return ["surface: fis2 grid is not the 101 x 101 grid in db-major order"]
    pick = np.random.default_rng(seed).choice(len(coords), size=points, replace=False)
    radius, chance = oracle.t2_reference(rb2, vals[pick, 0], vals[pick, 1])
    err = np.maximum(np.abs(radius - vals[pick, 2]), np.abs(chance - vals[pick, 3]))
    if not (err <= 1e-9).all():
        i = int(np.argmax(err))
        return [f"surface: fis2 at (db, re) = {tuple(vals[pick[i], :2].tolist())} is {err[i]:.3g} from "
                f"exhaustive Karnik-Mendel"]
    return []


def check_fis1_surface(path: str, rb1, samples: int) -> list[str]:
    rows = read_csv(path, ("db", "re", "conc", "radius_norm", "chance"))
    steps = _grid(21)
    coords = [(a, b, c) for a in steps for b in steps for c in steps]
    vals = np.array([[float(x) for x in row] for row in rows])
    if len(rows) != len(coords) or not np.array_equal(vals[:, :3], np.array(coords)):
        return ["surface: fis1 grid is not the 21^3 grid in db-major order"]
    ref = oracle.t1_reference(rb1, vals[:, :3], samples)
    err = np.abs(ref - vals[:, 3:]).max(axis=1)
    if not (err <= 1e-9).all():
        i = int(np.argmax(err))
        return [f"surface: fis1 at {tuple(vals[i, :3].tolist())} is {err[i]:.3g} from the reference Mamdani"]
    return []
