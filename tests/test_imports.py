"""NumPy loads on the first array use, and only there.

Each check runs in a fresh interpreter, because the test session has
imported NumPy long before.  Scalar bounds, a cycle, a serial sweep row
and the ``bounds``/``cycle`` commands must leave every ``numpy.*``
module unloaded; the proof spot-checks load it.  Whether NumPy was
imported before cyclebound or on first use, the array paths print the
same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCALAR_PATHS = """
import contextlib, io, json, sys
import cyclebound
from cyclebound import (
    Params, SweepSpec, canard_estimates, cli, cycle_bounds, cycle_extreme_report,
    proof_spotchecks, run_sweep,
)

def loaded():
    return sorted(name for name in sys.modules if name.startswith("numpy."))

after = {"import": loaded()}
p = Params(0.05, 0.05, 1.0)
cycle_bounds(p)
canard_estimates(p)
after["bounds"] = loaded()
cycle_extreme_report(p)
after["cycle"] = loaded()
report = run_sweep(SweepSpec(a_values=(0.05,), lambda_values=(0.05,), m_values=(1.0,)))
assert report.rows[0].error is None
after["sweep"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["bounds", "--a", "0.05", "--lambda", "0.05", "--m", "1"]),
        cli.main(["cycle", "--a", "0.05", "--lambda", "0.05", "--m", "1", "--json"]),
    ]
after["cli"] = loaded()
pool = "concurrent.futures.process" in sys.modules
passed = all(c.passed for c in proof_spotchecks("A").checks)
print(json.dumps({"after": after, "codes": codes, "pool": pool, "passed": passed,
                  "numpy_loaded": bool(loaded())}))
"""

ARRAY_PATHS = """
import sys
if sys.argv[1] == "eager":
    import numpy
import cyclebound
from cyclebound import Params, State, ZIndex, h, integrate, proof_spotchecks, z

# in the lazy run, the first spot-check loads NumPy
for case in ("A", "B"):
    print("\\n".join(proof_spotchecks(case).lines()))
import numpy as np
ys = np.geomspace(1.0, 800.0, 50)
print([repr(z(i, ys).tolist()) for i in ZIndex])
p = Params(0.05, 0.05, 1.0)
traj = integrate(State(h(0.8, p), 0.8), p)
print(repr(traj.taus.tolist()), repr(traj.points.tolist()))
"""


def _python(script: str, *args: str) -> str:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scalar_paths_load_no_numpy_module():
    record = json.loads(_python(SCALAR_PATHS))
    assert record["after"] == {
        "import": [], "bounds": [], "cycle": [], "sweep": [], "cli": [],
    }
    assert record["codes"] == [0, 0]
    assert not record["pool"]  # a serial sweep starts no process pool
    # the proof spot-checks are array code: they load NumPy, and pass
    assert record["passed"] and record["numpy_loaded"]


def test_array_paths_print_the_same_bytes_whenever_numpy_loads():
    lazy = _python(ARRAY_PATHS, "lazy")
    assert "[ok ]" in lazy
    assert _python(ARRAY_PATHS, "eager") == lazy
