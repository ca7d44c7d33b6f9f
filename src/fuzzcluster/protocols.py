"""One round of clustering for each protocol.

Three kinds share the same round skeleton (elect provisionals, size and rank
them, resolve the competition, join members, plan routes):

* ``leach``          -- rotating-threshold election, nearest joining, every
                        head transmits straight to the sink.
* ``fuzzy_unequal``  -- type-1 engine sizes a competition radius and a head
                        chance from (distance, energy, concentration); heads
                        relay sink-ward through closer heads.
* ``type2fl``        -- constant-threshold election (draw above T), interval
                        type-2 engine on (distance, energy), range-limited
                        joining with orphan self-promotion, same relaying.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .energy import RadioParams, rx_energy, threshold_distance, tx_energy
from .fis1 import DEFAULT_SAMPLES, RuleBase1, eval_fis1
from .fis2 import RuleBase2, eval_t2fis
from .network import ROW_CHUNK, Network, normalize_inputs
from .rng import Xorshift64Star

KIND_LEACH = "leach"
KIND_FUZZY_UNEQUAL = "fuzzy_unequal"
KIND_TYPE2 = "type2fl"
KINDS = (KIND_LEACH, KIND_FUZZY_UNEQUAL, KIND_TYPE2)

DIRECTION_BELOW = "below"
DIRECTION_ABOVE = "above"


@dataclass(frozen=True)
class ProtocolParams:
    kind: str
    p: float
    r_min: float
    r_max: float
    nbr_radius: float | None = None
    threshold_direction: str | None = None
    control_traffic: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError(f"need 0 < r_min < r_max, got ({self.r_min}, {self.r_max})")
        if self.nbr_radius is not None and self.nbr_radius <= 0.0:
            raise ValueError("nbr_radius must be positive")
        if self.threshold_direction not in (None, DIRECTION_BELOW, DIRECTION_ABOVE):
            raise ValueError(f"bad threshold_direction {self.threshold_direction!r}")

    @property
    def direction(self) -> str:
        if self.threshold_direction is not None:
            return self.threshold_direction
        return DIRECTION_ABOVE if self.kind == KIND_TYPE2 else DIRECTION_BELOW


@dataclass
class Engines:
    """Inference engines a run needs, built once per simulation."""

    rules1: RuleBase1 | None = None
    rules2: RuleBase2 | None = None
    coa_samples: int = DEFAULT_SAMPLES


@dataclass
class Cluster:
    head: int
    members: list[int]
    radius: float
    chance: float


@dataclass
class RoundPlan:
    """Everything one round decided, priced later by the simulator."""

    clusters: list[Cluster]
    routes: dict[int, int | None]  # head id -> next-hop head id, None = sink
    control_spend: np.ndarray  # per-node control-traffic cost in J
    orphan_fallbacks: int = 0
    fis_fallbacks: int = 0


def ch_threshold(p: float, r: int) -> float:
    """Rotating election threshold p/(1 - p*(r mod floor(1/p))): rises over an
    epoch of floor(1/p) rounds and reaches 1 on the epoch's last round."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if r < 0:
        raise ValueError("round index must be nonnegative")
    # evaluated as 1/(1/p - k) so the epoch-end threshold is exactly 1.0
    return 1.0 / (1.0 / p - (r % int(1.0 / p)))


def select_provisional(
    net: Network, params: ProtocolParams, r: int, rng: Xorshift64Star
) -> tuple[list[int], bool]:
    """Per-node threshold draw (ascending id). Below-mode compares against the
    rotating threshold, above-mode against the constant p. An empty selection
    promotes the alive node with the most residual energy."""
    if params.direction == DIRECTION_BELOW:
        th, elected = ch_threshold(params.p, r), operator.lt
    else:
        th, elected = params.p, operator.gt
    selected = [i for i in np.flatnonzero(net.alive).tolist() if elected(rng.random(), th)]
    if selected:
        return selected, False
    # argmax returns the first maximum, so equal energies go to the lowest id
    return [int(np.argmax(np.where(net.alive, net.energy, -np.inf)))], True


def compute_radius_chance(
    inputs: tuple, engines: Engines, params: ProtocolParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map normalized (db, re, conc) to (radius in meters, chance, fell_back).

    The inputs are equal-length arrays with one entry per candidate, sized in
    one engine call. A point where the engine output is degenerate falls back
    to the domain midpoint on its own and is flagged."""
    db, re, conc = inputs
    if params.kind == KIND_TYPE2:
        if engines.rules2 is None:
            raise ValueError("type2fl requires a type-2 rule base")
        r_norm, chance = eval_t2fis(engines.rules2, db, re)
    else:
        if engines.rules1 is None:
            raise ValueError("fuzzy_unequal requires a type-1 rule base")
        out = eval_fis1(
            engines.rules1,
            {"distance": db, "energy": re, "concentration": conc},
            engines.coa_samples,
        )
        r_norm, chance = out["radius"], out["chance"]
    fallback = np.isnan(r_norm) | np.isnan(chance)
    r_norm = np.where(fallback, 0.5, r_norm)
    chance = np.where(fallback, 0.5, chance)
    radius = params.r_min + r_norm * (params.r_max - params.r_min)
    return radius, chance, fallback


def compete_final_chs(
    candidates: list[tuple[int, float, float]], net: Network
) -> list[tuple[int, float, float]]:
    """Greedy competition in descending chance (ascending id breaks ties): a
    candidate survives unless an already-final head sits within either of the
    pair's competition radii."""
    if not candidates:
        return []
    ids, rad, chance = (np.array(col) for col in zip(*candidates))
    blocked = np.zeros(len(candidates), dtype=bool)
    finals: list[tuple[int, float, float]] = []
    # one dist row per kept head, never a candidates x candidates matrix
    for k in np.lexsort((ids, -chance)).tolist():
        if blocked[k]:
            continue
        finals.append(candidates[k])
        d = net.dist[ids[k], ids]
        blocked |= (d <= rad[k]) | (d <= rad)
    return finals


def assign_members(
    net: Network,
    finals: list[tuple[int, float, float]],
    kind: str,
    r_max: float,
) -> tuple[list[Cluster], int]:
    """Join every alive non-head node to a head. type2fl restricts joining to
    heads within r_max and self-promotes uncovered nodes into singleton
    clusters; the other kinds join the nearest head unconditionally."""
    clusters = {fid: Cluster(fid, [], frad, fch) for fid, frad, fch in finals}
    # argmin returns the first minimum, so sorted heads break ties to the lowest id
    heads = np.array(sorted(clusters), dtype=np.intp)
    joining = net.alive.copy()
    joining[heads] = False
    joiners = np.flatnonzero(joining)
    d = net.dist[np.ix_(joiners, heads)]
    if kind == KIND_TYPE2:
        d = np.where(d <= r_max, d, np.inf)
    best = d.argmin(axis=1)
    covered = np.isfinite(d.min(axis=1))
    for m, h in zip(joiners[covered].tolist(), heads[best[covered]].tolist()):
        clusters[h].members.append(m)
    orphans = joiners[~covered].tolist()
    for o in orphans:
        clusters[o] = Cluster(o, [], 0.0, 0.0)
    return list(clusters.values()), len(orphans)


def build_routes(
    head_ids: list[int], net: Network, d0: float, direct_only: bool = False
) -> dict[int, int | None]:
    """Next hop per head: the sink when within d0 (or always, for LEACH),
    otherwise the nearest other head strictly closer to the sink; heads with
    no sink-ward peer go direct. Strict progress keeps the route graph acyclic."""
    routes: dict[int, int | None] = dict.fromkeys(head_ids)
    if direct_only:
        return routes
    # argmin returns the first minimum, so sorted heads break ties to the lowest id
    heads = np.array(sorted(routes), dtype=np.intp)
    head_bs = net.bs_dist[heads]
    if head_bs.max(initial=d0) <= d0:
        return routes
    far = np.flatnonzero(head_bs > d0)  # positions in heads
    for s in range(0, len(far), ROW_CHUNK):
        part = far[s : s + ROW_CHUNK]
        rows = heads[part]
        closer = head_bs < head_bs[part, None]
        d = np.where(closer, net.dist[rows[:, None], heads], np.inf)
        best = heads[d.argmin(axis=1)]
        for h, hop, ok in zip(rows.tolist(), best.tolist(), closer.any(axis=1).tolist()):
            if ok:
                routes[h] = hop
    return routes


def cluster_arrays(clusters: list[Cluster]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(heads, sizes, members) of a cluster list: head ids and member counts in
    list order, and every member id, cluster after cluster."""
    heads = np.fromiter((c.head for c in clusters), np.intp, len(clusters))
    sizes = np.fromiter((len(c.members) for c in clusters), np.intp, len(clusters))
    members = np.fromiter(chain.from_iterable(c.members for c in clusters), np.intp)
    return heads, sizes, members


def price_control(
    control: np.ndarray,
    net: Network,
    radio: RadioParams,
    senders: np.ndarray,
    ranges: np.ndarray,
    send_group: np.ndarray,
    members: np.ndarray,
    member_heads: np.ndarray,
    join_group: np.ndarray,
) -> None:
    """Add a round's control messages to ``control``, ROW_CHUNK groups at a
    time.

    Messages come in numbered groups, sent in ascending group order (both group
    arrays ascending). In a group, each join costs its member one transmission
    over its distance to its head and the head one reception; then the group's
    broadcast (at most one) costs its sender one transmission over its range
    and every other alive node within that range one reception. Each cost is
    its own addition to its node, in message order: ``np.add.at`` adds in
    input order, so the sums round exactly as when the messages are priced one
    at a time."""
    n_groups = int(max(send_group.max(initial=-1), join_group.max(initial=-1))) + 1
    bits = radio.ctrl_bits
    rx = rx_energy(radio, bits)
    for g in range(0, n_groups, ROW_CHUNK):
        s0, s1 = np.searchsorted(send_group, (g, g + ROW_CHUNK))
        j0, j1 = np.searchsorted(join_group, (g, g + ROW_CHUNK))
        snd, m, h = senders[s0:s1], members[j0:j1], member_heads[j0:j1]
        heard = (net.dist[snd] <= ranges[s0:s1, None]) & net.alive
        heard[np.arange(len(snd)), snd] = True  # stands for the sender's own tx
        # row-major: broadcast after broadcast, in message order (the same
        # indices as np.nonzero, which is slower on 2-D masks)
        rows, nodes = np.divmod(np.flatnonzero(heard), heard.shape[1])
        tx = tx_energy(radio, bits, np.concatenate((ranges[s0:s1], net.dist[m, h])))
        cost = np.where(nodes == snd[rows], tx[rows], rx)
        if len(m):
            # a group's joins (sequence 2g) come before its broadcast (2g + 1)
            jseq = 2 * join_group[j0:j1]
            seq = np.concatenate((2 * send_group[s0:s1][rows] + 1, jseq, jseq))
            order = np.argsort(seq, kind="stable")
            nodes = np.concatenate((nodes, m, h))[order]
            cost = np.concatenate((cost, tx[s1 - s0 :], np.full(len(h), rx)))[order]
        np.add.at(control, nodes, cost)


def run_protocol_round(
    net: Network,
    params: ProtocolParams,
    engines: Engines,
    round_index: int,
    rng: Xorshift64Star,
    radio: RadioParams,
) -> RoundPlan:
    """Elect, compete, join and route for one round; prices control traffic
    but leaves all energy deduction to the simulator.

    Control traffic, in the order it is sent: each candidate's announcement
    over its competition radius (ascending id), each final head's announcement
    (competition order), then per cluster each member's join request to its
    head followed by the head's schedule broadcast. LEACH has no candidate
    phase and announces over r_max."""
    if not net.alive.any():
        raise ValueError("no alive nodes")

    provisional_ids, forced = select_provisional(net, params, round_index - 1, rng)
    orphan_fallbacks = 1 if forced else 0
    fis_fallbacks = 0
    leach = params.kind == KIND_LEACH

    if leach:
        finals = [(pid, 0.0, 0.0) for pid in provisional_ids]
        ids, radius = np.zeros(0, dtype=np.intp), np.zeros(0)  # no candidate announcements
    else:
        nbr_radius = params.nbr_radius or threshold_distance(radio)
        ids = np.array(provisional_ids, dtype=np.intp)
        inputs = normalize_inputs(net, ids, nbr_radius)
        radius, chance, fell_back = compute_radius_chance(inputs, engines, params)
        fis_fallbacks = int(fell_back.sum())
        finals = compete_final_chs(list(zip(provisional_ids, radius.tolist(), chance.tolist())), net)

    clusters, orphans = assign_members(net, finals, params.kind, params.r_max)
    orphan_fallbacks += orphans

    control = np.zeros(net.n)
    if params.control_traffic:
        fids, frad, _ = (np.array(col) for col in zip(*finals))
        heads, sizes, members = cluster_arrays(clusters)
        radii = np.array([c.radius for c in clusters])
        if leach:
            frad, radii = np.full(len(finals), params.r_max), np.full(len(clusters), params.r_max)
        # type2fl orphans (radius 0, no members) send no schedule
        schedules = np.flatnonzero((sizes > 0) & (radii > 0.0))
        first = len(ids) + len(finals)  # the first cluster's group
        price_control(
            control,
            net,
            radio,
            senders=np.concatenate((ids, fids, heads[schedules])),
            ranges=np.concatenate((radius, frad, radii[schedules])),
            send_group=np.concatenate((np.arange(first), first + schedules)),
            members=members,
            member_heads=np.repeat(heads, sizes),
            join_group=np.repeat(np.arange(first, first + len(clusters)), sizes),
        )

    routes = build_routes(
        [c.head for c in clusters],
        net,
        threshold_distance(radio),
        direct_only=leach,
    )
    return RoundPlan(clusters, routes, control, orphan_fallbacks, fis_fallbacks)
