"""Round loop, energy accounting and lifetime metrics."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .energy import RadioParams, agg_energy, rx_energy, tx_energy
from .fis1 import DEFAULT_SAMPLES, RuleBase1, default_rulebase1
from .fis2 import DEFAULT_BLUR, RuleBase2, default_rulebase2
from .network import Network, deploy_from_rng, network_from_positions
from .protocols import (
    KIND_FUZZY_UNEQUAL,
    KIND_TYPE2,
    Engines,
    ProtocolParams,
    RoundPlan,
    run_protocol_round,
)
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
    blur: float = DEFAULT_BLUR
    blur_overrides: dict[str, float] = field(default_factory=dict)
    rules1: RuleBase1 | None = None
    rules2: RuleBase2 | None = None
    energy_overrides: dict[int, float] = field(default_factory=dict)
    positions: list[tuple[float, float]] | None = None

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.area_side <= 0.0:
            raise ValueError("area_side must be positive")
        if self.initial_energy <= 0.0:
            raise ValueError("initial_energy must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.coa_samples < 3:
            raise ValueError("coa_samples must be at least 3")
        if not 0.0 <= self.blur < 1.0:
            raise ValueError("blur must lie in [0, 1)")
        for nid, e in self.energy_overrides.items():
            if not 0 <= nid < self.n:
                raise ValueError(f"energy override for unknown node {nid}")
            if e <= 0.0:
                raise ValueError(f"energy override for node {nid} must be positive")
        if self.positions is not None and len(self.positions) != self.n:
            raise ValueError(
                f"positions file lists {len(self.positions)} nodes, config says {self.n}"
            )

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


def build_engines(cfg: SimConfig) -> Engines:
    """Materialize only the engine the configured protocol needs."""
    rules1 = cfg.rules1
    rules2 = cfg.rules2
    if cfg.protocol.kind == KIND_FUZZY_UNEQUAL and rules1 is None:
        rules1 = default_rulebase1()
    if cfg.protocol.kind == KIND_TYPE2 and rules2 is None:
        rules2 = default_rulebase2(cfg.blur, cfg.blur_overrides)
    return Engines(rules1, rules2, cfg.coa_samples)


def apply_round_energy(net: Network, plan: RoundPlan, radio: RadioParams) -> np.ndarray:
    """Price and deduct one round of traffic. Members pay the uplink, heads pay
    reception, aggregation and their sink-ward hop, relays additionally pay
    rx+tx per forwarded packet, and the plan's control costs are added on top.
    Nodes drain at most what they hold (clamp at zero) and a drained node is
    dead from the next round on. Returns the per-node energy actually drained."""
    spend = plan.control_spend.copy()
    bits = radio.packet_bits
    for c in plan.clusters:
        for m in c.members:
            spend[m] += tx_energy(radio, bits, net.dist[m, c.head])
        spend[c.head] += rx_energy(radio, bits) * len(c.members)
        spend[c.head] += agg_energy(radio, bits, len(c.members) + 1)

    incoming: dict[int, int] = {c.head: 0 for c in plan.clusters}
    for head in sorted(incoming, key=lambda h: (-net.bs_dist[h], h)):
        packets = 1 + incoming[head]
        hop = plan.routes.get(head)
        d = net.bs_dist[head] if hop is None else net.dist[head, hop]
        spend[head] += tx_energy(radio, bits, d) * packets
        if hop is not None:
            spend[hop] += rx_energy(radio, bits) * packets
            incoming[hop] += packets

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
    """Mean per-alive-node spend per round through the given event round."""
    if upto is None:
        return None
    total = 0.0
    count = 0
    alive_at_start = n
    for m in rounds:
        if m.round > upto:
            break
        total += m.spent_j / alive_at_start
        count += 1
        alive_at_start = m.alive
    return total / count if count else None


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
        for _ in range(2 * cfg.n):
            rng.random()
        net = network_from_positions(cfg.positions, cfg.area_side, cfg.bs_pos, cfg.initial_energy)
    else:
        net = deploy_from_rng(cfg.n, cfg.area_side, cfg.bs_pos, rng, cfg.initial_energy)
    for nid, e in cfg.energy_overrides.items():
        net.energy[nid] = e
    engines = build_engines(cfg)

    rounds: list[RoundMetrics] = []
    for r in range(1, cfg.max_rounds + 1):
        plan = run_protocol_round(net, cfg.protocol, engines, r, rng, cfg.radio)
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
                ch_count=len(plan.clusters),
                orphan_fallbacks=plan.orphan_fallbacks,
                fis_fallbacks=plan.fis_fallbacks,
                spent_j=math.fsum(drained),
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
