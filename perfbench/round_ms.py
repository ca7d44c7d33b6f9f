"""Wall-clock ms per round for every preset x protocol, through run_simulation.

    python3 perfbench/round_ms.py

Seed SEED. Rounds are capped at ROUNDS (ROUNDS_1000 for the 1000-node preset),
so early rounds, when every node is alive, dominate. Prints one line per pair
and a JSON list.
"""
from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

SEED = 1
ROUNDS = 300
ROUNDS_1000 = 20


def main() -> int:
    from fuzzcluster.config import PRESETS, PROTOCOL_NAMES, parse_config
    from fuzzcluster.simulator import run_simulation

    rows = []
    for preset in sorted(PRESETS):
        for proto in ("leach", "fuzzy-unequal", "type2fl"):
            cfg = parse_config(preset)
            cap = ROUNDS_1000 if cfg.n >= 1000 else ROUNDS
            cfg = replace(cfg, protocol=replace(cfg.protocol, kind=PROTOCOL_NAMES[proto]), max_rounds=cap)
            t0 = time.perf_counter()
            result = run_simulation(cfg.with_seed(SEED))
            ms = (time.perf_counter() - t0) * 1e3 / len(result.rounds)
            rows.append({"preset": preset, "protocol": proto, "rounds": len(result.rounds), "ms_per_round": ms})
            print(f"{preset:14s} {proto:14s} {len(result.rounds):5d} rounds  {ms:8.2f} ms/round", flush=True)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
