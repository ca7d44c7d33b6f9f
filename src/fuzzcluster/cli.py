"""Command-line entry point: run simulations, batches and surface dumps."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import PRESETS, PROTOCOL_NAMES, ConfigError, parse_config
from .csvio import (
    read_positions_csv,
    write_clusters_csv,
    write_fis1_surface,
    write_fis2_surface,
    write_metrics_csv,
    write_positions_csv,
    write_summary_csv,
)
from .simulator import run_simulation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzcluster",
        description="Deterministic round-based WSN clustering simulator",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
    src.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--protocol", choices=sorted(PROTOCOL_NAMES), help="override protocol")
    parser.add_argument("--seed", type=int, help="override RNG seed")
    parser.add_argument("--seeds", type=int, default=1, help="batch size: run seeds seed..seed+N-1")
    parser.add_argument("--rounds", type=int, help="override max_rounds")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--dump-clusters", action="store_true", help="per-round cluster CSV")
    parser.add_argument(
        "--dump-fis-surface", action="store_true", help="input->output grid CSV for the engine"
    )
    parser.add_argument("--positions", help="replay an exact topology from a positions CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.preset if args.preset else args.config)
        if args.seeds < 1:
            raise ConfigError("seeds: must be at least 1")
        try:
            cfg = replace(
                cfg,
                protocol=replace(cfg.protocol, kind=PROTOCOL_NAMES.get(args.protocol, cfg.protocol.kind)),
                seed=cfg.seed if args.seed is None else args.seed,
                max_rounds=cfg.max_rounds if args.rounds is None else args.rounds,
                positions=read_positions_csv(args.positions) if args.positions else cfg.positions,
            )
            replace(cfg, seed=cfg.seed + args.seeds - 1)  # the last seed, so every seed between
        except ValueError as e:
            # a replayed topology's errors name its file, as read_positions_csv's do
            key, _, why = str(e).partition(": ")
            if args.positions and key == "positions":
                raise ValueError(f"{args.positions}: {why}") from None
            raise
        if args.dump_fis_surface and cfg.protocol.engine is None:
            raise ConfigError("--dump-fis-surface requires a fuzzy protocol (fuzzy-unequal or type2fl)")

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)

        if args.dump_fis_surface:
            if cfg.protocol.engine == "type1":
                write_fis1_surface(cfg.rules1, cfg.coa_samples, out / "fis_surface.csv")
            else:
                write_fis2_surface(cfg.rules2, out / "fis_surface.csv")
            return 0

        results = []
        for k in range(args.seeds):
            run_cfg = cfg.with_seed(cfg.seed + k)
            suffix = f"_seed{run_cfg.seed}" if args.seeds > 1 else ""
            if args.dump_clusters:
                result = write_clusters_csv(
                    lambda on_round: run_simulation(run_cfg, on_round=on_round),
                    out / f"clusters{suffix}.csv",
                )
            else:
                result = run_simulation(run_cfg)
            results.append(result)
            write_metrics_csv(result, out / f"metrics{suffix}.csv")
            write_positions_csv(result.positions, out / f"positions{suffix}.csv")
            print(
                f"seed={result.seed} protocol={result.protocol} "
                f"fnd={result.fnd} hnd={result.hnd} lnd={result.lnd}"
            )
        write_summary_csv(results, out / "summary.csv")
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
