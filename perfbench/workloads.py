"""The benchmark's workloads: which operations each one runs for a given seed.

An operation is one simulation run (preset x protocol x seed) or one surface
dump. A CLI call with ``--seeds N`` performs N operations. This module
imports nothing heavy, so the set-up probe can load it without adding to the
set-up it measures; the program is imported inside the functions that run it.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

WORKLOAD_NAMES = ("ch3-type2fl", "ch2s1-fuzzy", "ch2s2-cli", "fis-surface")

# Repetitions are kept to a second or two, so that a run holds ten or more of
# them and their median is steady (README.md, "Host noise"). A full ch3 type2fl
# lifetime takes about 15 s, so that workload stops at CH3_ROUNDS, while every
# node is still alive.
CH3_ROUNDS = 150

# Repetitions per run. The count is fixed, not set by the time budget, so that
# every commit's figures are medians over the same number of repetitions. Each
# is sized to 20-30 s of repetitions on the host described in README.md;
# --seconds only cuts short a run much slower than that.
REPETITIONS = {"ch3-type2fl": 16, "ch2s1-fuzzy": 10, "ch2s2-cli": 12, "fis-surface": 14}


@dataclass(frozen=True)
class LibRun:
    """One ``run_simulation`` call on a preset."""

    preset: str
    protocol: str  # CLI spelling: leach, fuzzy-unequal, type2fl
    seed: int
    rounds: int | None = None  # None: the preset's cap, which every run dies before

    @property
    def key(self) -> str:
        capped = "" if self.rounds is None else f"/rounds={self.rounds}"
        return f"{self.preset}/{self.protocol}/seed={self.seed}{capped}"


@dataclass(frozen=True)
class CliCall:
    """One in-process ``fuzzcluster.cli.main`` call over a batch of seeds."""

    preset: str
    protocol: str
    seed: int
    seeds: int

    @property
    def run_seeds(self) -> list[int]:
        return [self.seed + k for k in range(self.seeds)]

    def run_key(self, seed: int) -> str:
        return f"cli/{self.preset}/{self.protocol}/seed={seed}"

    def out_dir(self, work: str) -> str:
        return os.path.join(work, "cli", self.protocol)

    def argv(self, work: str) -> list[str]:
        return [
            "--preset", self.preset,
            "--protocol", self.protocol,
            "--seed", str(self.seed),
            "--seeds", str(self.seeds),
            "--dump-clusters",
            "--out", self.out_dir(work),
        ]


@dataclass(frozen=True)
class SurfaceDump:
    """One engine surface written by ``csvio.write_fis{1,2}_surface``."""

    engine: str  # "fis1" or "fis2"

    @property
    def key(self) -> str:
        return f"surface/{self.engine}"

    def path(self, work: str) -> str:
        return os.path.join(work, f"{self.engine}_surface.csv")


@dataclass
class Workload:
    name: str
    calls: list = field(default_factory=list)

    def op_keys(self) -> list[str]:
        keys = []
        for call in self.calls:
            if isinstance(call, CliCall):
                keys.extend(call.run_key(s) for s in call.run_seeds)
            else:
                keys.append(call.key)
        return keys


def make_workload(name: str, seed: int) -> Workload:
    """The operations of one repetition; the same seed gives the same inputs."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if name == "ch3-type2fl":
        return Workload(name, [LibRun("ch3", "type2fl", seed, CH3_ROUNDS)])
    if name == "ch2s1-fuzzy":
        return Workload(name, [LibRun("ch2-scenario1", "fuzzy-unequal", seed)])
    if name == "ch2s2-cli":
        return Workload(
            name, [CliCall("ch2-scenario2", proto, seed, 1) for proto in ("leach", "fuzzy-unequal")]
        )
    if name == "fis-surface":
        # The grids do not depend on the seed; it picks the points the
        # type-2 check enumerates exhaustively.
        return Workload(name, [SurfaceDump("fis2"), SurfaceDump("fis1")])
    raise ValueError(f"unknown workload {name!r} (choices: {', '.join(WORKLOAD_NAMES)})")


# --- running one call -------------------------------------------------------


def run_lib(call: LibRun):
    from dataclasses import replace

    from fuzzcluster.config import PROTOCOL_NAMES, parse_config
    from fuzzcluster.simulator import run_simulation

    cfg = parse_config(call.preset)
    cfg = replace(cfg, protocol=replace(cfg.protocol, kind=PROTOCOL_NAMES[call.protocol]))
    if call.rounds is not None:
        cfg = replace(cfg, max_rounds=call.rounds)
    return run_simulation(cfg.with_seed(call.seed))


def run_cli(call: CliCall, work: str) -> int:
    from fuzzcluster import cli

    return cli.main(call.argv(work))


def run_surface(call: SurfaceDump, work: str) -> None:
    """The grid the CLI's --dump-fis-surface writes, on the preset that selects
    each engine, without the simulation that flag also starts."""
    from fuzzcluster import csvio
    from fuzzcluster.config import parse_config
    from fuzzcluster.fis1 import default_rulebase1
    from fuzzcluster.fis2 import default_rulebase2

    if call.engine == "fis2":
        cfg = parse_config("ch3")
        rb = cfg.rules2 or default_rulebase2(cfg.blur, cfg.blur_overrides)
        csvio.write_fis2_surface(rb, call.path(work))
    else:
        cfg = parse_config("ch2-scenario1")
        rb = cfg.rules1 or default_rulebase1()
        csvio.write_fis1_surface(rb, cfg.coa_samples, call.path(work))


def run_call(call, work: str):
    if isinstance(call, LibRun):
        return run_lib(call)
    if isinstance(call, CliCall):
        return run_cli(call, work)
    return run_surface(call, work)
