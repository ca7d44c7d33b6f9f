"""fuzzcluster benchmark: full-lifetime runs, CLI batches and engine surfaces.

    python3 perfbench/run.py                        # every workload, tracing off
    python3 perfbench/run.py --workload ch3-type2fl --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py --workload fis-surface --trace 1   # per-layer metrics
    python3 perfbench/run.py --write-digests        # re-pin perfbench/digests.json

One workload runs as one worker process, which makes the workload's fixed
number of repetitions of its operations, within --seconds, and starts set-up
probes between them; the output checks run here. Outputs must also match the
digests that perfbench/digests.json pins for the run's seed, if it pins any.
Processes run one at a time. The last line printed is a JSON object with
correct, attempted, failed and metrics; the exit code is 1 unless every
operation passed. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from worker import REFERENCE_SLICE_S

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
DIGESTS = os.path.join(BENCH, "digests.json")
SECONDS_PER_WORKLOAD = 36.0

PROCESS_TIMEOUT_S = 170
# One thread per process: the program does no BLAS work, but numpy's BLAS
# pool would otherwise start a thread per core at import.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class BenchError(Exception):
    """The benchmark itself could not run; a program fault is a failed check."""


def python(script: str, *args) -> str:
    """Run one of the benchmark's scripts to completion; returns its output."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, script), *map(str, args)],
            cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=PROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish within {PROCESS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(map(str, args))} exited {proc.returncode}:\n{proc.stdout[-3000:]}")
    return proc.stdout


def check_ops(wl, seed: int, work: str) -> dict[str, list[str]]:
    """Output-check failures per operation key, on the last repetition's outputs."""
    import checks
    from worker import cli_files
    from workloads import CliCall, LibRun

    from fuzzcluster.fis1 import default_rulebase1
    from fuzzcluster.fis2 import default_rulebase2

    errors: dict[str, list[str]] = {}
    for i, call in enumerate(wl.calls):
        keys = list(map(call.run_key, call.run_seeds)) if isinstance(call, CliCall) else [call.key]
        try:
            if isinstance(call, LibRun):
                runs, rngs, result = checks.read_capture(os.path.join(work, f"capture{i}.pkl"))
                errors[call.key] = checks.check_lib_run(
                    call.preset, call.protocol, call.seed, call.rounds or checks.MAX_ROUNDS,
                    runs[0], rngs[0], result,
                )
            elif isinstance(call, CliCall):
                runs, rngs, _ = checks.read_capture(os.path.join(work, f"capture{i}.pkl"))
                summary = checks.read_csv(
                    os.path.join(call.out_dir(work), "summary.csv"), ("fnd", "hnd", "lnd", "seed")
                )
                for k, s in enumerate(call.run_seeds):
                    errors[call.run_key(s)] = checks.check_cli_run(
                        call.preset, call.protocol, s, cli_files(call, work, s)[:3],
                        runs[k], rngs[k], summary[k],
                    )
            elif call.engine == "fis2":
                errors[call.key] = checks.check_fis2_surface(call.path(work), default_rulebase2(), seed)
            else:
                errors[call.key] = checks.check_fis1_surface(call.path(work), default_rulebase1(), 1001)
        except (OSError, ValueError, IndexError, EOFError) as e:
            for key in keys:
                errors.setdefault(key, []).append(f"unreadable output: {e!r}")
    return errors


def at_reference_speed(seconds: float, slice_s: float) -> float:
    """A time taken while calibration slices took `slice_s`, scaled to a host
    on which they take REFERENCE_SLICE_S (README.md, "Host noise")."""
    return seconds * REFERENCE_SLICE_S / slice_s


def pinned_digests(name: str, seed: int) -> dict[str, str]:
    """The digests that digests.json pins for this workload and seed, if any."""
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            pin = json.load(fh).get(name)
    except FileNotFoundError:
        return {}
    return pin["ops"] if pin and pin["seed"] == seed else {}


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics BENCHMARK.json declares: name -> unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, pins: dict[str, str]) -> dict:
    from workloads import make_workload

    wl = make_workload(name, seed)
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    python("worker.py", name, seed, seconds, int(trace), work)
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        res = json.load(fh)
    reps = res["reps"]
    errors = check_ops(wl, seed, work)
    first = reps[0]["ops"]
    for key, digest in pins.items():
        if key in first and first[key]["digest"] not in (None, digest):
            errors.setdefault(key, []).append(f"digest differs from {os.path.relpath(DIGESTS, ROOT)}")

    # A repetition's operation fails if it raised, if its outputs fail a
    # check or differ from the pinned digest, or if its digest differs from
    # the first repetition's (tracing on or off, the bytes must be the same).
    failed = 0
    for rep in reps:
        for key in wl.op_keys():
            op = rep["ops"][key]
            bad = op["error"] or errors.get(key) or op["digest"] != first[key]["digest"]
            failed += bool(bad)
    for key in wl.op_keys():
        if reps[0]["ops"][key]["error"]:
            errors.setdefault(key, []).append(reps[0]["ops"][key]["error"].strip().splitlines()[-1])
        if len({rep["ops"][key]["digest"] for rep in reps}) > 1:
            errors.setdefault(key, []).append("digest differs between repetitions")

    # Each repetition's times at reference speed, by the mean of the
    # host-speed readings taken just before and just after it.
    speeds = res["speeds"]
    for k, r in enumerate(reps):
        for field in ("wall", "cpu"):
            r[field + "_ref"] = at_reference_speed(r[field], (speeds[k] + speeds[k + 1]) / 2)
    plain = [r for r in reps if not r["traced"]]
    if trace:
        traced = [r for r in reps if r["traced"]]
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        # Repetitions come in (untraced, traced) pairs, run back to back.
        layers["trace.overhead_s"] = statistics.median(
            t["wall_ref"] - p["wall_ref"] for p, t in zip(plain, traced)
        )
        units = per_layer_units()
        if set(units) - set(layers):
            raise BenchError(f"no figure for per-layer metrics {sorted(set(units) - set(layers))}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(r["wall_ref"] for r in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_ref"] for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(at_reference_speed(*p) for p in res["setups"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kib"] / 1024.0, "unit": "MB"},
        }
    return {
        "workload": name,
        "seed": seed,
        "reps": len(reps),
        "slice_s": statistics.median(speeds),
        "digests": {k: first[k]["digest"] for k in wl.op_keys()},
        "errors": {k: v for k, v in errors.items() if v},
        "correct": failed == 0,
        "attempted": len(reps) * len(wl.op_keys()),
        "failed": failed,
        "metrics": metrics,
    }


def write_digests(results: list[dict]) -> None:
    """Pin the results' digests in digests.json, keeping other workloads' pins."""
    ref = {r["workload"]: {"seed": r["seed"], "ops": r["digests"]} for r in results}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            ref = {**json.load(fh), **ref}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(results)} workload(s) to {os.path.relpath(DIGESTS, ROOT)}")


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOAD_NAMES

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="upper limit on measuring time, split evenly across the workloads run "
                         f"(default {SECONDS_PER_WORKLOAD:g} s per workload)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="run each workload once and pin its digests for --seed in perfbench/digests.json")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fuzzcluster", "__init__.py")):
        print(f"error: no fuzzcluster sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.write_digests:
        seconds = 0.0
    elif args.seconds is None:
        seconds = SECONDS_PER_WORKLOAD
    else:
        seconds = args.seconds / len(names)

    results = []
    try:
        for name in names:
            pins = {} if args.write_digests else pinned_digests(name, args.seed)
            r = run_workload(name, args.seed, seconds, bool(args.trace), pins)
            results.append(r)
            for key, digest in r["digests"].items():
                print(f"digest {name} {key} {digest}")
            for key, errs in r["errors"].items():
                for e in errs:
                    print(f"FAILED {name} {key}: {e}")
            shown = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in r["metrics"].items())
            print(f"{name}: {r['reps']} rep(s), calibration slice {r['slice_s'] * 1e6:.0f} us, "
                  f"attempted={r['attempted']} failed={r['failed']}  {shown}")
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.write_digests:
        if all(x["correct"] for x in results):
            write_digests(results)
        else:
            print("digests not written: an operation failed")
    if len(results) == 1:
        r = results[0]
        metrics = r["metrics"]
    else:
        r = {"correct": all(x["correct"] for x in results),
             "attempted": sum(x["attempted"] for x in results),
             "failed": sum(x["failed"] for x in results)}
        metrics = {f"{x['workload']}.{k}": m for x in results for k, m in x["metrics"].items()}
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": metrics}))
    return 0 if r["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
