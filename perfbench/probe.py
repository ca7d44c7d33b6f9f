"""Set-up probe: start a workload's first operation in a fresh interpreter and
stop it at its first round or first grid point.

Prints the CLOCK_MONOTONIC reading taken there; the caller subtracts the
reading it took before starting this process, so set-up covers interpreter
start, importing fuzzcluster and numpy, parse_config, deployment with its
n x n distance matrix, and engine construction.

    python3 perfbench/probe.py <workload> <seed> <work-dir>
"""
import os
import sys
import time

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import SurfaceDump, make_workload, run_call  # noqa: E402


class FirstStep(Exception):
    """Raised at the first round or grid point to end the probe."""


def _trap(*_args, **_kwargs):
    print(repr(time.monotonic()), flush=True)
    raise FirstStep


def main(argv: list[str]) -> int:
    name, seed, work = argv[0], int(argv[1]), argv[2]
    call = make_workload(name, seed).calls[0]
    os.makedirs(work, exist_ok=True)
    if isinstance(call, SurfaceDump):
        import fuzzcluster.csvio as hooked

        hooked.eval_t2fis = hooked.eval_fis1 = _trap
    else:
        import fuzzcluster.simulator as hooked

        hooked.run_protocol_round = _trap
    try:
        run_call(call, work)
    except FirstStep:
        return 0
    print("error: the operation ended before its first round", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
