"""Round loop, energy accounting and lifetime metrics."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .energy import RadioParams, agg_energy, rx_energy, tx_energy
from .fis1 import DEFAULT_SAMPLES, RuleBase1, default_rulebase1
from .fis2 import RuleBase2, default_rulebase2
from .network import Network, check_deployment, deploy_from_rng, network_from_positions
from .protocols import ProtocolParams, RoundPlan, run_protocol_round
from .rng import Xorshift64Star


@dataclass
class SimConfig:
    n: int
    area_side: float
    bs_pos: tuple[float, float]
    initial_energy: float
    radio: RadioParams
    protocol: ProtocolParams
    max_rounds: int = 5000
    seed: int = 1
    coa_samples: int = DEFAULT_SAMPLES
    rules1: RuleBase1 = field(default_factory=default_rulebase1)
    rules2: RuleBase2 = field(default_factory=default_rulebase2)
    energy_overrides: dict[int, float] = field(default_factory=dict)
    positions: list[tuple[float, float]] | None = None

    def validate(self) -> None:
        """Raise a ValueError whose message starts with the first bad field."""
        check_deployment(self.n, self.area_side, self.bs_pos, self.initial_energy, self.positions)
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds: must be at least 1, got {self.max_rounds}")
        if not 0 <= self.seed < 2**64:  # the generator keeps 64 bits of it
            raise ValueError(f"seed: must lie in [0, 2**64), got {self.seed}")
        if self.coa_samples < 3:
            raise ValueError(f"coa_samples: must be at least 3, got {self.coa_samples}")
        for nid, e in self.energy_overrides.items():
            if not 0 <= nid < self.n:
                raise ValueError(f"energy_overrides: node {nid} outside 0..{self.n - 1}")
            if not 0.0 < e < math.inf:
                raise ValueError(f"energy_overrides: node {nid} energy must be positive and finite")

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)


@dataclass
class RoundMetrics:
    """Snapshot taken after a round's energy was applied. orphan_fallbacks
    counts forced promotions (empty election or uncovered nodes) and
    fis_fallbacks counts degenerate-inference midpoint substitutions."""

    round: int
    alive: int
    dead: int
    total_j: float
    avg_j: float
    ch_count: int
    orphan_fallbacks: int = 0
    fis_fallbacks: int = 0
    spent_j: float = 0.0


@dataclass
class SimResult:
    rounds: list[RoundMetrics]
    fnd: int | None
    hnd: int | None
    lnd: int | None
    fnd_energy: float | None
    hnd_energy: float | None
    seed: int
    protocol: str
    positions: np.ndarray  # (n, 2) deployment the run used, ordered by node id


def apply_round_energy(net: Network, plan: RoundPlan, radio: RadioParams) -> np.ndarray:
    """Price and deduct one round of traffic. Members pay the uplink, heads pay
    reception, aggregation and their sink-ward hop, relays additionally pay
    rx+tx per forwarded packet, and the plan's control costs are added on top.
    Nodes drain at most what they hold (clamp at zero) and a drained node is
    dead from the next round on. Returns the per-node energy actually drained."""
    bits = radio.packet_bits
    rx = rx_energy(radio, bits)
    heads, sizes, members, next_hop = plan.heads, plan.sizes, plan.members, plan.next_hop

    # Packets flow sink-ward, farthest head first (ascending id on ties):
    # every hop is strictly closer to the sink, so a head has all its relayed
    # packets before it sends. Only the integer packet counts need a loop.
    sending = np.lexsort((heads, -net.bs_dist[heads]))
    packets = [1] * len(heads)  # by position in heads
    hops = next_hop.tolist()
    for i in sending.tolist():
        if hops[i] >= 0:
            packets[hops[i]] += packets[i]
    packets = np.array(packets)
    relays = sending[next_hop[sending] >= 0]  # senders to a head, in sending order

    member_d = net.dist[members, np.repeat(heads, sizes)]
    # a sink hop (-1) reads the last head's distance, which np.where discards
    hop_d = np.where(next_hop < 0, net.bs_dist[heads], net.dist[heads, heads[next_hop]])
    tx = tx_energy(radio, bits, np.concatenate((member_d, hop_d)))
    # One addition per cost, per node in the order the costs arise: a
    # member's uplink; a head's reception and aggregation, then the relayed
    # packets it receives in sending order, then its own hop (a head is never
    # a member).
    hop_cost = np.concatenate((rx * packets[relays], tx[len(members) :] * packets))
    spend = plan.control_spend.copy()
    np.add.at(
        spend,
        np.concatenate((members, heads, heads, heads[next_hop[relays]], heads)),
        np.concatenate((tx[: len(members)], rx * sizes, agg_energy(radio, bits, sizes + 1), hop_cost)),
    )

    drained = np.where(net.alive, np.minimum(net.energy, spend), 0.0)
    net.energy -= drained
    net.alive &= net.energy > 0.0
    return drained


def lifetime_metrics(rounds: list[RoundMetrics], n: int) -> tuple[int | None, int | None, int | None]:
    """First rounds at which >=1 node, >=ceil(n/2) nodes and all nodes are dead."""
    if not rounds:
        raise ValueError("empty metrics series")
    fnd = hnd = lnd = None
    half = math.ceil(n / 2)
    for m in rounds:
        if fnd is None and m.dead >= 1:
            fnd = m.round
        if hnd is None and m.dead >= half:
            hnd = m.round
        if lnd is None and m.alive == 0:
            lnd = m.round
    return fnd, hnd, lnd


def _mean_dissipation(rounds: list[RoundMetrics], upto: int | None, n: int) -> float | None:
    """Mean per-alive-node spend per round through the given event round
    (round r is rounds[r - 1])."""
    if upto is None:
        return None
    total, alive_at_start = 0.0, n
    for m in rounds[:upto]:
        total += m.spent_j / alive_at_start
        alive_at_start = m.alive
    return total / upto


def run_simulation(
    cfg: SimConfig, on_round: Callable[[int, RoundPlan], None] | None = None
) -> SimResult:
    """Deploy once, then select/cluster/route and spend energy each round until
    the network dies or max_rounds elapse. Deterministic in (cfg, seed)."""
    cfg.validate()
    rng = Xorshift64Star(cfg.seed)
    if cfg.positions is not None:
        # burn the deployment draws so replaying a run's own positions file
        # with its seed reproduces that run exactly
        rng.uniforms(2 * cfg.n)
        net = network_from_positions(cfg.positions, cfg.area_side, cfg.bs_pos, cfg.initial_energy)
    else:
        net = deploy_from_rng(cfg.n, cfg.area_side, cfg.bs_pos, rng, cfg.initial_energy)
    for nid, e in cfg.energy_overrides.items():
        net.energy[nid] = e

    rounds: list[RoundMetrics] = []
    for r in range(1, cfg.max_rounds + 1):
        plan = run_protocol_round(net, cfg, rng, r)
        if on_round is not None:
            on_round(r, plan)
        drained = apply_round_energy(net, plan, cfg.radio)
        alive = int(net.alive.sum())
        total = net.total_energy()
        rounds.append(
            RoundMetrics(
                round=r,
                alive=alive,
                dead=cfg.n - alive,
                total_j=total,
                avg_j=total / alive if alive else 0.0,
                ch_count=len(plan.heads),
                orphan_fallbacks=plan.orphan_fallbacks,
                fis_fallbacks=plan.fis_fallbacks,
                spent_j=math.fsum(drained.tolist()),
            )
        )
        if alive == 0:
            break

    fnd, hnd, lnd = lifetime_metrics(rounds, cfg.n)
    return SimResult(
        rounds=rounds,
        fnd=fnd,
        hnd=hnd,
        lnd=lnd,
        fnd_energy=_mean_dissipation(rounds, fnd, cfg.n),
        hnd_energy=_mean_dissipation(rounds, hnd, cfg.n),
        seed=cfg.seed,
        protocol=cfg.protocol.kind,
        positions=net.positions,
    )
