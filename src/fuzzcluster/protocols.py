"""One round of clustering for each protocol.

Every kind runs the same round skeleton (elect provisionals, size and rank
them, resolve the competition, join members, plan routes), and ``PROTOCOLS``
gives the four choices that tell the kinds apart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .energy import RadioParams, rx_energy, threshold_distance, tx_energy
from .fis1 import firing_outputs, term_firings
from .fis2 import eval_t2fis
from .network import Network, block_rows, normalize_inputs
from .rng import Xorshift64Star

if TYPE_CHECKING:  # the simulator imports this module
    from .simulator import SimConfig

# kind -> (election, engine, join range, relay), all a round reads of a kind.
# election: "rotating" elects a draw below ch_threshold, "above-p" one above p.
# engine: "type1" sizes candidates from (distance, energy, concentration),
# "type2" from (distance, energy); None: no candidate phase, heads announce
# over r_max. Join range, in units of r_max: a node with no head within it
# heads its own cluster. relay: heads relay sink-ward through closer heads.
PROTOCOLS = {
    "leach": ("rotating", None, math.inf, False),
    "fuzzy_unequal": ("rotating", "type1", math.inf, True),
    "type2fl": ("above-p", "type2", 1.0, True),
}
KINDS = tuple(PROTOCOLS)


@dataclass(frozen=True)
class ProtocolParams:
    kind: str
    p: float
    r_min: float
    r_max: float
    nbr_radius: float | None = None
    control_traffic: bool = True
    # derived from kind's row of PROTOCOLS on construction
    election: str = field(init=False)
    engine: str | None = field(init=False)
    join_range: float = field(init=False)
    relay: bool = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind: unknown protocol {self.kind!r}")
        ch_threshold(self.p, 0)  # the one owner of the p rule
        if not 0.0 < self.r_max < math.inf:
            raise ValueError(f"r_max: must be positive and finite, got {self.r_max}")
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError(f"r_min: must lie in (0, r_max = {self.r_max}), got {self.r_min}")
        if self.nbr_radius is not None and not 0.0 < self.nbr_radius < math.inf:
            raise ValueError(f"nbr_radius: must be positive and finite, got {self.nbr_radius}")
        election, engine, join, relay = PROTOCOLS[self.kind]
        # frozen, so the derived fields go into the instance dict directly
        vars(self).update(election=election, engine=engine, join_range=join * self.r_max, relay=relay)


@dataclass
class Cluster:
    head: int
    members: list[int]
    radius: float


@dataclass
class RoundPlan:
    """Everything one round decided, priced later by the simulator.

    The per-cluster arrays run in cluster order: the finals in competition
    order, then the orphans in ascending id."""

    heads: np.ndarray  # head id per cluster
    radius: np.ndarray  # competition radius in m; 0 for orphans and engine-less heads
    sizes: np.ndarray  # member count per cluster
    members: np.ndarray  # member ids, cluster after cluster, ascending in each
    next_hop: np.ndarray  # position in heads of each head's next hop, -1 = sink
    control_spend: np.ndarray  # per-node control-traffic cost in J
    orphan_fallbacks: int = 0
    fis_fallbacks: int = 0

    @property
    def clusters(self) -> list[Cluster]:
        """The clusters as Python objects, in cluster order."""
        members, heads, sizes = self.members.tolist(), self.heads.tolist(), self.sizes.tolist()
        ends = np.cumsum(self.sizes).tolist()
        return [
            Cluster(h, members[e - n : e], r)
            for h, n, e, r in zip(heads, sizes, ends, self.radius.tolist())
        ]

    @property
    def routes(self) -> dict[int, int | None]:
        """Head id -> next-hop head id (None = sink), in cluster order."""
        heads = self.heads.tolist()
        return {h: None if k < 0 else heads[k] for h, k in zip(heads, self.next_hop.tolist())}


def ch_threshold(p: float, r: int) -> float:
    """Rotating election threshold p/(1 - p*(r mod floor(1/p))): rises over an
    epoch of floor(1/p) rounds to 1/(1/p - floor(1/p) + 1) on the epoch's last
    round, which is 1 only when 1/p is an integer (0.778 at p = 0.07, 0.75 at
    p = 0.3)."""
    if not (0.0 < p < 1.0 and 1.0 / p < math.inf):
        raise ValueError(f"p: must lie in (0, 1) with a finite 1/p, got {p}")
    if r < 0:
        raise ValueError("round index must be nonnegative")
    # evaluated as 1/(1/p - k) so that an integer 1/p gives exactly 1.0 at the
    # epoch's end
    return 1.0 / (1.0 / p - (r % int(1.0 / p)))


def select_provisional(
    net: Network, params: ProtocolParams, r: int, rng: Xorshift64Star
) -> tuple[np.ndarray, bool]:
    """Per-node threshold draw, one block for the alive nodes in ascending id
    order, giving the ids that params.election elects. An empty selection
    promotes the alive node with the most residual energy."""
    alive = np.flatnonzero(net.alive)
    draws = rng.uniforms(len(alive))
    selected = alive[draws > params.p if params.election == "above-p" else draws < ch_threshold(params.p, r)]
    if len(selected):
        return selected, False
    # argmax returns the first maximum, so equal energies go to the lowest id
    return np.array([np.argmax(np.where(net.alive, net.energy, -np.inf))]), True


def compute_radius_chance(
    net: Network, ids: np.ndarray, inputs: tuple, cfg: SimConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map normalized (db, re, conc) to (radius in meters, chance, fell_back).

    The inputs are equal-length arrays with one entry per candidate, the
    distinct node ids of net, sized in one engine call; the type-2 engine reads
    only db and re, so its conc may be None, and the type-1 engine reads the
    two outputs of rules1 as the radius and the chance, in that order. A point
    where the engine output is degenerate falls back to 0.5 in both outputs on
    its own and is flagged.

    The network keeps each node's last type-1 firing column and outputs, and
    the rule base and sample count they were made with (a new one starts
    from none): only the candidates whose column differs in any bit from
    their node's kept one are inferred and defuzzified. An output is a
    function of its column's bits alone, so a kept output is the one a fresh
    evaluation would give. A node's energy sits on the flat top of its
    highest term for much of its life and its concentration saturates at 1,
    so its column often repeats."""
    db, re, conc = inputs
    params = cfg.protocol
    if params.engine == "type2":
        r_norm, chance = eval_t2fis(cfg.rules2, db, re)
    else:
        rb, samples = cfg.rules1, cfg.coa_samples
        fire = term_firings(rb, {"distance": db, "energy": re, "concentration": conc})
        kept_rb, kept_samples, columns, outputs = net._fis1
        if rb is not kept_rb or samples != kept_samples:
            columns = np.full((len(fire), net.n), np.nan)  # NaN matches no firing
            outputs = np.empty((len(rb.outputs), net.n))
            net._fis1 = (rb, samples, columns, outputs)
        diff = (columns.take(ids, axis=1).view(np.uint64) != fire.view(np.uint64)).any(axis=0)
        changed = ids[diff]
        if len(changed):
            fire = fire[:, diff]
            outputs[:, changed] = firing_outputs(rb, fire, samples)
            columns[:, changed] = fire
        r_norm, chance = outputs.take(ids, axis=1)
    fallback = np.isnan(r_norm) | np.isnan(chance)
    r_norm = np.where(fallback, 0.5, r_norm)
    chance = np.where(fallback, 0.5, chance)
    radius = params.r_min + r_norm * (params.r_max - params.r_min)
    return radius, chance, fallback


def compete_final_chs(
    ids: np.ndarray, radius: np.ndarray, chance: np.ndarray, net: Network
) -> np.ndarray:
    """Greedy competition in descending chance (ascending id breaks ties): a
    candidate survives unless an already-final head sits within either of the
    pair's competition radii. Returns the finals' positions in the candidate
    arrays, in competition order."""
    blocked = np.zeros(len(ids), dtype=bool)
    finals: list[int] = []
    # one dist row per kept head, never a candidates x candidates matrix
    for k in np.lexsort((ids, -chance)).tolist():
        if blocked[k]:
            continue
        finals.append(k)
        d = net.dist[ids[k], ids]
        blocked |= (d <= radius[k]) | (d <= radius)
    return np.array(finals, dtype=np.intp)


def assign_members(
    net: Network, finals: np.ndarray, join_range: float
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], int]:
    """Join every alive non-head node to its nearest final head if that head
    lies within join_range; an uncovered node self-promotes into a singleton
    cluster after the finals. Returns ((heads, sizes, members), orphan count),
    the clusters as in ``RoundPlan``."""
    # dist is symmetric bit for bit (x_i - x_j and x_j - x_i are exact
    # negatives), so a head's row holds every node's distance to it.
    # argmin returns the first minimum and a later block replaces a node's
    # nearest only when strictly nearer, so heads sorted by id break ties to
    # the lowest id.
    order = np.argsort(finals)
    ranked = finals[order]
    step = block_rows(net.n)
    for s in range(0, len(ranked), step):
        d = net.dist[ranked[s : s + step]]
        at, near = d.argmin(axis=0) + s, d.min(axis=0)
        if s:
            nearer = near < nearest
            nearest, nearest_at = np.where(nearer, near, nearest), np.where(nearer, at, nearest_at)
        else:
            nearest, nearest_at = near, at
    joining = net.alive.copy()
    joining[finals] = False
    joiners = np.flatnonzero(joining)
    # the nearest head decides coverage
    covered = nearest[joiners] <= join_range
    cluster, orphans = order[nearest_at[joiners][covered]], joiners[~covered]
    # joiners ascend, so a stable sort keeps each cluster's members ascending
    members = joiners[covered][np.argsort(cluster, kind="stable")]
    heads = np.concatenate((finals, orphans))
    return (heads, np.bincount(cluster, minlength=len(heads)), members), len(orphans)


def build_routes(heads: np.ndarray, net: Network, d0: float) -> np.ndarray:
    """Next hop per head as a position in ``heads``, -1 for the sink: the sink
    when within d0, otherwise the nearest other head strictly closer to the
    sink, the lowest id among equally near ones; heads with no sink-ward peer
    go direct. Strict progress keeps the route graph acyclic."""
    next_hop = np.full(len(heads), -1, dtype=np.intp)
    # argmin returns the first minimum, so sorted heads break ties to the lowest id
    order = np.argsort(heads)
    ranked = heads[order]
    head_bs = net.bs_dist[ranked]
    far = np.flatnonzero(head_bs > d0)  # positions in ranked
    step = block_rows(len(ranked))
    for s in range(0, len(far), step):
        part = far[s : s + step]
        closer = head_bs < head_bs[part, None]
        d = np.where(closer, net.dist[ranked[part, None], ranked], np.inf)
        relays = closer.any(axis=1)
        next_hop[order[part[relays]]] = order[d.argmin(axis=1)[relays]]
    return next_hop


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
    """Add a round's control messages to ``control``, ``block_rows(n)`` groups
    at a time.

    Messages come in numbered groups, sent in ascending group order (both group
    arrays ascending). In a group, each join costs its member one transmission
    over its distance to its head and the head one reception; then the group's
    broadcast (at most one) costs its sender one transmission over its range
    and every other alive node within that range one reception. Each cost is
    its own addition to its node, in message order: ``np.add.at`` adds in
    input order, so the sums round exactly as when the messages are priced one
    at a time.

    A block without joins costs each node at most one amount per broadcast.
    It is priced as one row per broadcast, 0.0 where a node pays nothing
    (which leaves a nonnegative sum as it is), and ``np.add.reduce`` along the
    rows adds them to ``control`` one row after another. numpy sums a single
    column pairwise instead, so a 1-node network keeps ``np.add.at``. Summing
    a phase per node and adding the total would round differently."""
    n_groups = int(max(send_group.max(initial=-1), join_group.max(initial=-1))) + 1
    bits = radio.ctrl_bits
    rx = rx_energy(radio, bits)
    step = block_rows(net.n)
    for g in range(0, n_groups, step):
        s0, s1 = np.searchsorted(send_group, (g, g + step))
        j0, j1 = np.searchsorted(join_group, (g, g + step))
        snd, m, h = senders[s0:s1], members[j0:j1], member_heads[j0:j1]
        d = net.dist[snd]
        heard = (d <= ranges[s0:s1, None]) & net.alive
        if not len(m) and len(snd) and net.n > 1:
            # the gathered rows become the cost rows, control joins the first
            np.multiply(heard, rx, out=d)
            d[np.arange(len(snd)), snd] = tx_energy(radio, bits, ranges[s0:s1])
            d[0] += control
            np.add.reduce(d, axis=0, out=control)
            continue
        heard[np.arange(len(snd)), snd] = True  # stands for the sender's own tx
        # row-major: broadcast after broadcast, in message order (the same
        # indices as np.nonzero, which is slower on 2-D masks)
        rows, nodes = np.divmod(np.flatnonzero(heard), heard.shape[1])
        tx = tx_energy(radio, bits, np.concatenate((ranges[s0:s1], net.dist[m, h])))
        cost = np.where(nodes == snd[rows], tx[rows], rx)
        # a group's joins (sequence 2g) come before its broadcast (2g + 1)
        jseq = 2 * join_group[j0:j1]
        seq = np.concatenate((2 * send_group[s0:s1][rows] + 1, jseq, jseq))
        order = np.argsort(seq, kind="stable")
        nodes = np.concatenate((nodes, m, h))[order]
        cost = np.concatenate((cost, tx[s1 - s0 :], np.full(len(h), rx)))[order]
        np.add.at(control, nodes, cost)


def run_protocol_round(
    net: Network, cfg: SimConfig, rng: Xorshift64Star, round_index: int
) -> RoundPlan:
    """Elect, compete, join and route for one round of the run cfg; prices
    control traffic but leaves all energy deduction to the simulator.

    Control traffic, in the order it is sent and added to each node: each
    candidate's announcement over its competition radius (ascending id), each
    final head's announcement (competition order), then per cluster, in plan
    order, each member's join request to its head followed by the head's
    schedule broadcast. A protocol without an engine has no candidate phase
    and announces over r_max."""
    if not net.alive.any():
        raise ValueError("no alive nodes")
    params, radio = cfg.protocol, cfg.radio
    d0 = threshold_distance(radio)

    ids, forced = select_provisional(net, params, round_index - 1, rng)
    fis_fallbacks = 0

    if params.engine is None:
        finals, radius = ids, np.zeros(len(ids))
        ids, cand_radius = ids[:0], radius[:0]  # no candidate announcements
    else:
        # only the type-1 engine reads the concentration, so only it counts neighbors
        inputs = normalize_inputs(net, ids, cfg.neighbor_radius if params.engine == "type1" else None)
        cand_radius, chance, fell_back = compute_radius_chance(net, ids, inputs, cfg)
        fis_fallbacks = int(fell_back.sum())
        won = compete_final_chs(ids, cand_radius, chance, net)
        finals, radius = ids[won], cand_radius[won]

    (heads, sizes, members), orphans = assign_members(net, finals, params.join_range)
    radius = np.concatenate((radius, np.zeros(orphans)))
    k = len(finals)  # the finals' announcements are heads[:k]

    control = np.zeros(net.n)
    if params.control_traffic:
        ranges = np.full(len(heads), params.r_max) if params.engine is None else radius
        # orphans (radius 0, no members) send no schedule
        schedules = np.flatnonzero((sizes > 0) & (ranges > 0.0))
        first = len(ids) + k  # the first cluster's group
        price_control(
            control,
            net,
            radio,
            senders=np.concatenate((ids, heads[:k], heads[schedules])),
            ranges=np.concatenate((cand_radius, ranges[:k], ranges[schedules])),
            send_group=np.concatenate((np.arange(first), first + schedules)),
            members=members,
            member_heads=np.repeat(heads, sizes),
            join_group=np.repeat(np.arange(first, first + len(heads)), sizes),
        )

    next_hop = build_routes(heads, net, d0) if params.relay else np.full(len(heads), -1, dtype=np.intp)
    return RoundPlan(
        heads, radius, sizes, members, next_hop, control, int(forced) + orphans, fis_fallbacks
    )
