#!/usr/bin/env python3
"""Run all three protocols over a batch of seeds and tabulate lifetime metrics.

Example:
    python scripts/compare_protocols.py --preset ch2-scenario1 --seeds 10 --out results/
"""
from __future__ import annotations

import argparse
import csv
import statistics
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fuzzcluster.config import PRESETS, parse_config
from fuzzcluster.protocols import KINDS
from fuzzcluster.simulator import run_simulation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="ch2-scenario1", choices=sorted(PRESETS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=3000)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    try:
        if args.seeds < 1:
            raise ValueError("seeds: must be at least 1")
        base = replace(parse_config(args.preset), max_rounds=args.rounds, seed=args.seed0)
        replace(base, seed=args.seed0 + args.seeds - 1)  # the last seed, so every seed between
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for kind in KINDS:
        for k in range(args.seeds):
            cfg = replace(base, protocol=replace(base.protocol, kind=kind), seed=args.seed0 + k)
            r = run_simulation(cfg)
            rows.append((kind, r.seed, r.fnd, r.hnd, r.lnd, r.fnd_energy, r.hnd_energy))
            print(f"{kind:14s} seed={r.seed:3d} fnd={r.fnd} hnd={r.hnd} lnd={r.lnd}")

    with open(out / "comparison.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("protocol", "seed", "fnd", "hnd", "lnd", "fnd_energy_j", "hnd_energy_j"))
        w.writerows(rows)

    censored = args.rounds + 1
    print(f"\n{'protocol':14s} {'median FND':>11s} {'median HND':>11s} {'mean FND J/node':>16s}")
    for kind in KINDS:
        sub = [r for r in rows if r[0] == kind]
        med_fnd = statistics.median(r[2] if r[2] is not None else censored for r in sub)
        med_hnd = statistics.median(r[3] if r[3] is not None else censored for r in sub)
        fnd_e = [r[5] for r in sub if r[5] is not None]
        mean_e = statistics.mean(fnd_e) if fnd_e else float("nan")
        print(f"{kind:14s} {med_fnd:11.1f} {med_hnd:11.1f} {mean_e:16.3e}")
    print(f"\nwrote {out / 'comparison.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
