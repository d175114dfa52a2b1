"""Set-up cost of a fresh interpreter: ``import cyclebound`` plus first-call cost.

Run as ``python3 perfbench/setup_child.py {cycle|bounds}`` with ``src`` on
PYTHONPATH.  Prints one JSON object: the import time, how much longer
the first call of the workload's unit operation takes than the second
(lazy set-up work that a fresh process pays once), and the factor that
turns those wall seconds into normalized seconds (see speed.py).
"""

import json
import sys
from time import perf_counter

import speed

before = [speed.import_calibration_sample() for _ in range(speed.SAMPLES)]
t0 = perf_counter()
import cyclebound  # noqa: E402

import_s = perf_counter() - t0


def _operation(kind: str):
    p = cyclebound.Params(a=0.05, lam=0.05, m=1.0)
    if kind == "cycle":
        return lambda: cyclebound.cycle_extreme_report(p)
    if kind == "bounds":
        return lambda: (cyclebound.cycle_bounds(p), cyclebound.canard_estimates(p))
    raise SystemExit(f"unknown set-up probe {kind!r}")


if __name__ == "__main__":
    op = _operation(sys.argv[1])
    times = []
    for _ in range(2):
        t0 = perf_counter()
        op()
        times.append(perf_counter() - t0)
    print(json.dumps({
        "import_s": import_s,
        "first_call_extra_s": times[0] - times[1],
        "scale": speed.scale(
            before + [speed.import_calibration_sample() for _ in range(speed.SAMPLES)]),
    }))
