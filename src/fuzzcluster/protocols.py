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

from dataclasses import dataclass

import numpy as np

from .energy import RadioParams, rx_energy, threshold_distance, tx_energy
from .fis1 import RuleBase1, eval_fis1
from .fis2 import RuleBase2, eval_t2fis
from .network import Network, normalize_inputs
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
    coa_samples: int = 1001


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
        th = ch_threshold(params.p, r)
    else:
        th = params.p
    selected = []
    for i in np.flatnonzero(net.alive).tolist():
        draw = rng.random()
        if (params.direction == DIRECTION_BELOW and draw < th) or (
            params.direction == DIRECTION_ABOVE and draw > th
        ):
            selected.append(i)
    if selected:
        return selected, False
    # argmax returns the first maximum, so equal energies go to the lowest id
    return [int(np.argmax(np.where(net.alive, net.energy, -np.inf)))], True


def compute_radius_chance(
    inputs: tuple, engines: Engines, params: ProtocolParams
) -> tuple[float, float, bool] | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map normalized (db, re, conc) to (radius in meters, chance, fell_back).

    The inputs are floats, or equal-length arrays with one entry per candidate,
    sized in one engine call; the outputs follow suit. A point where the
    engine output is degenerate falls back to the domain midpoint on its own
    and is flagged."""
    db, re, conc = (np.atleast_1d(x) for x in inputs)
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
    if np.ndim(inputs[0]) == 0:
        return float(radius[0]), float(chance[0]), bool(fallback[0])
    return radius, chance, fallback


def compete_final_chs(
    candidates: list[tuple[int, float, float]], net: Network
) -> list[tuple[int, float, float]]:
    """Greedy competition in descending chance (ascending id breaks ties): a
    candidate survives unless an already-final head sits within either of the
    pair's competition radii."""
    finals: list[tuple[int, float, float]] = []
    for cand in sorted(candidates, key=lambda c: (-c[2], c[0])):
        cid, crad, _ = cand
        clear = all(
            net.dist[cid, fid] > crad and net.dist[cid, fid] > frad for fid, frad, _ in finals
        )
        if clear:
            finals.append(cand)
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
    routes: dict[int, int | None] = {}
    for h in head_ids:
        if direct_only or net.bs_dist[h] <= d0:
            routes[h] = None
            continue
        closer = [o for o in head_ids if o != h and net.bs_dist[o] < net.bs_dist[h]]
        routes[h] = min(closer, key=lambda o: (net.dist[h, o], o)) if closer else None
    return routes


def run_protocol_round(
    net: Network,
    params: ProtocolParams,
    engines: Engines,
    round_index: int,
    rng: Xorshift64Star,
    radio: RadioParams,
) -> RoundPlan:
    """Elect, compete, join and route for one round; prices control traffic
    but leaves all energy deduction to the simulator."""
    if not net.alive.any():
        raise ValueError("no alive nodes")

    control = np.zeros(net.n)

    def broadcast(sender: int, rng_m: float) -> None:
        control[sender] += tx_energy(radio, radio.ctrl_bits, rng_m)
        heard = (net.dist[sender] <= rng_m) & net.alive
        heard[sender] = False
        control[heard] += rx_energy(radio, radio.ctrl_bits)

    provisional_ids, forced = select_provisional(net, params, round_index - 1, rng)
    orphan_fallbacks = 1 if forced else 0
    fis_fallbacks = 0

    if params.kind == KIND_LEACH:
        finals = [(pid, 0.0, 0.0) for pid in provisional_ids]
        announce_range = params.r_max
    else:
        nbr_radius = params.nbr_radius or threshold_distance(radio)
        inputs = normalize_inputs(net, np.array(provisional_ids, dtype=np.intp), nbr_radius)
        radius, chance, fell_back = compute_radius_chance(inputs, engines, params)
        fis_fallbacks = int(fell_back.sum())
        candidates = list(zip(provisional_ids, radius.tolist(), chance.tolist()))
        if params.control_traffic:
            for pid, radius, _ in candidates:
                broadcast(pid, radius)
        finals = compete_final_chs(candidates, net)
        announce_range = None

    if params.control_traffic:
        for fid, frad, _ in finals:
            broadcast(fid, announce_range if announce_range is not None else frad)

    clusters, orphans = assign_members(net, finals, params.kind, params.r_max)
    orphan_fallbacks += orphans

    if params.control_traffic:
        for c in clusters:
            for m in c.members:
                control[m] += tx_energy(radio, radio.ctrl_bits, net.dist[m, c.head])
                control[c.head] += rx_energy(radio, radio.ctrl_bits)
            if c.members and (c.radius > 0.0 or announce_range is not None):
                broadcast(c.head, announce_range if announce_range is not None else c.radius)

    routes = build_routes(
        [c.head for c in clusters],
        net,
        threshold_distance(radio),
        direct_only=params.kind == KIND_LEACH,
    )
    return RoundPlan(clusters, routes, control, orphan_fallbacks, fis_fallbacks)
