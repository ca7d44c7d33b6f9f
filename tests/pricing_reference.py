"""One-message-at-a-time reference round for the array bookkeeping tests.

These are the competition, joining, routing, control pricing and energy
application as they were written before array bookkeeping: one loop per
decision, one Python addition per message, per member uplink and per hop,
and the one-distance radio formula. The candidates' radius and chance come
from a fresh engine call each round, never from what the network keeps.
The array code must reproduce them bit for bit, so keep this file as it is
when the package's bookkeeping changes. It reads each kind's choices from
the kind itself: the oracle that protocols.PROTOCOLS is checked against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fuzzcluster.energy import threshold_distance
from fuzzcluster.fis1 import eval_fis1
from fuzzcluster.fis2 import eval_t2fis
from fuzzcluster.network import normalize_inputs
from fuzzcluster.protocols import select_provisional


@dataclass
class RefCluster:
    head: int
    members: list[int]
    radius: float
    chance: float


@dataclass
class RefPlan:
    clusters: list[RefCluster]  # in cluster order
    routes: dict  # head id -> next-hop head id, None = sink
    control_spend: np.ndarray
    orphan_fallbacks: int
    fis_fallbacks: int


def tx_energy_ref(p, bits, d):
    if d <= threshold_distance(p):
        return bits * p.e_elec + bits * p.eps_fs * d * d
    return bits * p.e_elec + bits * p.eps_mp * d ** 4


def rx_energy_ref(p, bits):
    return bits * p.e_elec


def radius_chance_ref(inputs, cfg):
    """(radius in m, chance, fell_back) per candidate from a fresh engine
    call, 0.5 in both outputs where the engine output is degenerate."""
    db, re, conc = inputs
    params = cfg.protocol
    if params.kind == "type2fl":
        r_norm, chance = eval_t2fis(cfg.rules2, db, re)
    else:
        inputs = {"distance": db, "energy": re, "concentration": conc}
        out = eval_fis1(cfg.rules1, inputs, cfg.coa_samples)
        r_norm, chance = out["radius"], out["chance"]
    fell_back = np.isnan(r_norm) | np.isnan(chance)
    r_norm, chance = np.where(fell_back, 0.5, r_norm), np.where(fell_back, 0.5, chance)
    return params.r_min + r_norm * (params.r_max - params.r_min), chance, fell_back


def compete_final_chs_ref(candidates, net):
    finals = []
    for cand in sorted(candidates, key=lambda c: (-c[2], c[0])):
        cid, crad, _ = cand
        clear = all(
            net.dist[cid, fid] > crad and net.dist[cid, fid] > frad for fid, frad, _ in finals
        )
        if clear:
            finals.append(cand)
    return finals


def assign_members_ref(net, finals, kind, r_max):
    """Each alive non-head node joins its nearest final, the lowest id on a
    tie; type2fl joins only a final within r_max, and a node with none becomes
    a singleton cluster after the finals, in ascending id."""
    clusters = [RefCluster(fid, [], frad, fch) for fid, frad, fch in finals]
    orphans = []
    for i in range(net.n):
        if not net.alive[i] or any(i == fid for fid, _, _ in finals):
            continue
        reach = [c for c in clusters if kind != "type2fl" or net.dist[i, c.head] <= r_max]
        if reach:
            min(reach, key=lambda c: (net.dist[i, c.head], c.head)).members.append(i)
        else:
            orphans.append(RefCluster(i, [], 0.0, 0.0))
    return clusters + orphans, len(orphans)


def build_routes_ref(head_ids, net, d0, direct_only=False):
    routes = {}
    for h in head_ids:
        if direct_only or net.bs_dist[h] <= d0:
            routes[h] = None
            continue
        closer = [o for o in head_ids if o != h and net.bs_dist[o] < net.bs_dist[h]]
        routes[h] = min(closer, key=lambda o: (net.dist[h, o], o)) if closer else None
    return routes


def run_protocol_round_ref(net, cfg, rng, round_index):
    if not net.alive.any():
        raise ValueError("no alive nodes")
    params, radio = cfg.protocol, cfg.radio

    control = np.zeros(net.n)

    def broadcast(sender, rng_m):
        control[sender] += tx_energy_ref(radio, radio.ctrl_bits, rng_m)
        heard = (net.dist[sender] <= rng_m) & net.alive
        heard[sender] = False
        control[heard] += rx_energy_ref(radio, radio.ctrl_bits)

    provisional_ids, forced = select_provisional(net, params, round_index - 1, rng)
    orphan_fallbacks = 1 if forced else 0
    fis_fallbacks = 0

    if params.kind == "leach":
        finals = [(pid, 0.0, 0.0) for pid in provisional_ids]
        announce_range = params.r_max
    else:
        nbr_radius = params.nbr_radius or threshold_distance(radio)
        inputs = normalize_inputs(net, np.array(provisional_ids, dtype=np.intp), nbr_radius)
        radius, chance, fell_back = radius_chance_ref(inputs, cfg)
        fis_fallbacks = int(fell_back.sum())
        candidates = list(zip(provisional_ids, radius.tolist(), chance.tolist()))
        if params.control_traffic:
            for pid, radius, _ in candidates:
                broadcast(pid, radius)
        finals = compete_final_chs_ref(candidates, net)
        announce_range = None

    if params.control_traffic:
        for fid, frad, _ in finals:
            broadcast(fid, announce_range if announce_range is not None else frad)

    clusters, orphans = assign_members_ref(net, finals, params.kind, params.r_max)
    orphan_fallbacks += orphans

    if params.control_traffic:
        for c in clusters:
            for m in c.members:
                control[m] += tx_energy_ref(radio, radio.ctrl_bits, net.dist[m, c.head])
                control[c.head] += rx_energy_ref(radio, radio.ctrl_bits)
            if c.members and (c.radius > 0.0 or announce_range is not None):
                broadcast(c.head, announce_range if announce_range is not None else c.radius)

    routes = build_routes_ref(
        [c.head for c in clusters],
        net,
        threshold_distance(radio),
        direct_only=params.kind == "leach",
    )
    return RefPlan(clusters, routes, control, orphan_fallbacks, fis_fallbacks)


def apply_round_energy_ref(net, plan, radio):
    spend = plan.control_spend.copy()
    bits = radio.packet_bits
    for c in plan.clusters:
        for m in c.members:
            spend[m] += tx_energy_ref(radio, bits, net.dist[m, c.head])
        spend[c.head] += rx_energy_ref(radio, bits) * len(c.members)
        spend[c.head] += radio.e_da * bits * (len(c.members) + 1)

    incoming = {c.head: 0 for c in plan.clusters}
    for head in sorted(incoming, key=lambda h: (-net.bs_dist[h], h)):
        packets = 1 + incoming[head]
        hop = plan.routes.get(head)
        d = net.bs_dist[head] if hop is None else net.dist[head, hop]
        spend[head] += tx_energy_ref(radio, bits, d) * packets
        if hop is not None:
            spend[hop] += rx_energy_ref(radio, bits) * packets
            incoming[hop] += packets

    drained = np.where(net.alive, np.minimum(net.energy, spend), 0.0)
    net.energy -= drained
    net.alive &= net.energy > 0.0
    return drained
