"""Runs one workload's operations in repetitions and times them.

Started by run.py as its own process, so that peak resident memory is the
workload's and the output checks run elsewhere. Each repetition runs every
operation of the workload once. A run makes the workload's fixed number of
repetitions, unless the next one is predicted to end after the time budget.
Before every repetition, and four times at the end, it starts a set-up probe,
one at a time.

Per operation it times wall and CPU time. Then, outside the timed span, it
digests the outputs. Simulation runs also stream a compact copy of every round
plan, the run's random generator and its result to a capture file that the
checks read. Before the first repetition and after each one it reads the
host's current speed with a fixed calibration loop (`host_speed`).

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> <work-dir>
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import resource
import subprocess
import sys
import time
import traceback

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import REPETITIONS, CliCall, LibRun, SurfaceDump, make_workload, run_call  # noqa: E402

END_PROBES = 4
CALIBRATION_SLICES = 30
# A calibration slice's time in the fast phase of the host described in
# README.md. Times are reported at this host speed.
REFERENCE_SLICE_S = 360e-6


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
    return h.hexdigest()


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
    return h.hexdigest()


def result_lines(result):
    """A library run's round metrics, formatted, including the columns that
    metrics.csv leaves out."""
    for m in result.rounds:
        yield (
            f"{m.round},{m.alive},{m.dead},{m.total_j:.16e},{m.avg_j:.16e},{m.ch_count},"
            f"{m.orphan_fallbacks},{m.fis_fallbacks},{m.spent_j:.16e}\n"
        )
    yield f"fnd={result.fnd},hnd={result.hnd},lnd={result.lnd}\n"


def cli_files(call: CliCall, work: str, seed: int) -> list[str]:
    out = call.out_dir(work)
    suffix = f"_seed{seed}" if call.seeds > 1 else ""
    names = [f"metrics{suffix}.csv", f"clusters{suffix}.csv", f"positions{suffix}.csv", "summary.csv"]
    return [os.path.join(out, n) for n in names]


class Capture:
    """Streams what the output checks need from a simulation call: a compact
    copy of each round plan, each run's generator, and the result."""

    def __init__(self) -> None:
        import fuzzcluster.simulator as simulator

        self.simulator = simulator
        self.fh = None
        self.rngs: list = []

    def begin(self, path: str) -> None:
        sim = self.simulator
        self.fh = fh = open(path, "wb")
        self.rngs = rngs = []
        self.saved = (sim.run_protocol_round, sim.Xorshift64Star)
        plan_round, make_rng = self.saved
        dump = pickle.dump

        def new_rng(seed):
            rng = make_rng(seed)
            rngs.append(rng)
            dump(("run",), fh)
            return rng

        def captured_round(*args, **kwargs):
            plan = plan_round(*args, **kwargs)
            dump(
                (
                    "round",
                    args[3],
                    [(c.head, c.radius, c.members) for c in plan.clusters],
                    plan.routes,
                    plan.control_spend,
                    plan.orphan_fallbacks,
                    plan.fis_fallbacks,
                ),
                fh,
                pickle.HIGHEST_PROTOCOL,
            )
            return plan

        sim.run_protocol_round = captured_round
        sim.Xorshift64Star = new_rng

    def end(self, result) -> None:
        sim = self.simulator
        sim.run_protocol_round, sim.Xorshift64Star = self.saved
        pickle.dump(("end", self.rngs, result), self.fh, pickle.HIGHEST_PROTOCOL)
        self.fh.close()
        self.fh = None


def _calibration_slice() -> int:
    """A fixed piece of interpreter work, about half a millisecond."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    return total


def host_speed() -> float:
    """Median wall time of CALIBRATION_SLICES calibration slices, in seconds:
    how fast the host runs fixed work right now (README.md, "Host noise")."""
    times = []
    for _ in range(CALIBRATION_SLICES):
        t0 = time.perf_counter()
        _calibration_slice()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def run_rep(wl, work: str, capture: Capture, traced: bool, spans_path: str | None) -> dict:
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rep = {"traced": traced, "wall": 0.0, "cpu": 0.0, "ops": {}}
    try:
        for i, call in enumerate(wl.calls):
            simulates = not isinstance(call, SurfaceDump)
            if simulates:
                capture.begin(os.path.join(work, f"capture{i}.pkl"))
            error = None
            result = None
            # Every operation starts from the same collector state, so it
            # does the same cyclic-GC work in every repetition.
            gc.collect()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = run_call(call, work)
            except Exception:
                error = traceback.format_exc(limit=4)
            c1, w1 = time.process_time(), time.perf_counter()
            if simulates:
                capture.end(result if isinstance(call, LibRun) else None)
            rep["wall"] += w1 - w0
            rep["cpu"] += c1 - c0
            rep["ops"].update(op_digests(call, work, result, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        rep["layers"] = tracer.layer_metrics()
        if spans_path:
            tracer.write_spans(spans_path)
    return rep


def op_digests(call, work: str, result, error) -> dict:
    """{op key: {"digest": sha256 or None, "error": text or None}}."""
    if isinstance(call, CliCall):
        if error is None and result != 0:
            error = f"cli.main returned {result}"
        out = {}
        for seed in call.run_seeds:
            digest = None
            if error is None:
                try:
                    digest = sha256_files(cli_files(call, work, seed))
                except OSError as e:
                    error = f"missing output: {e}"
            out[call.run_key(seed)] = {"digest": digest, "error": error}
        return out
    digest = None
    if error is None:
        if isinstance(call, LibRun):
            digest = sha256_lines(result_lines(result))
        else:
            digest = sha256_files([call.path(work)])
    return {call.key: {"digest": digest, "error": error}}


def peak_rss_kib() -> int:
    """This process image's peak resident set. getrusage's ru_maxrss would also
    count the parent's resident set at fork, which exec does not reset."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup_probe(name: str, seed: int, work: str) -> float:
    """Seconds from starting probe.py to its first round or grid point."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py"),
         name, str(seed), work],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    work = argv[4]
    wl = make_workload(name, seed)
    os.makedirs(work, exist_ok=True)
    # Imports belong to set-up, which the probes measure; load them before timing.
    import fuzzcluster  # noqa: F401
    import fuzzcluster.cli  # noqa: F401
    import fuzzcluster.config  # noqa: F401
    import fuzzcluster.csvio  # noqa: F401

    capture = Capture()
    # With tracing, repetitions come in (untraced, traced) pairs so that the
    # overhead and the byte-identity of traced outputs compare like with like.
    block = (False, True) if trace else (False,)
    blocks = max(1, REPETITIONS[name] // len(block)) if seconds > 0 else 1
    # Untraced runs probe set-up before every block and END_PROBES times
    # at the end, so the probes span the run. Probes write their partial
    # outputs elsewhere.
    probe_work = os.path.join(work, "probe")
    # Each probe is stored with the host-speed reading taken just before it.
    setups: list[tuple[float, float]] = []
    speeds = [host_speed()]
    # Each block runs on the next allowed CPU in turn: the host slows each
    # vCPU independently, at times for longer than a run, and a process left
    # alone stays on the CPU it started on.
    cpus = sorted(os.sched_getaffinity(0))
    reps: list[dict] = []
    start = time.perf_counter()
    for b in range(blocks):
        try:
            os.sched_setaffinity(0, {cpus[b % len(cpus)]})
        except OSError:  # the run is still valid, only more exposed to one slow vCPU
            pass
        b0 = time.perf_counter()
        if not trace:
            setups.append((setup_probe(name, seed, probe_work), speeds[-1]))
        for traced in block:
            spans = os.path.join(work, "spans.npz") if traced and len(reps) < 2 else None
            reps.append(run_rep(wl, work, capture, traced, spans))
            speeds.append(host_speed())
        now = time.perf_counter()
        if now - start + (now - b0) > seconds:
            break
    if not trace:
        setups += [(setup_probe(name, seed, probe_work), speeds[-1]) for _ in range(END_PROBES)]
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"reps": reps, "speeds": speeds, "setups": setups, "peak_rss_kib": peak_rss_kib()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
