"""Each layer loads on its first use, and NumPy on the first array use.

Each check runs in a fresh interpreter, because the test session has
imported everything long before.  ``import cyclebound`` loads ``model``
only; scalar bounds add ``lvroot`` and ``bounds``, a cycle adds
``simulator`` and ``dopri``, and ``region4`` and ``harness`` load when
one of their names is read.  Scalar bounds, a cycle, a serial sweep row
and the ``bounds``/``cycle`` commands must leave every ``numpy.*``
module unloaded; the proof spot-checks load it.  Whether NumPy was
imported before cyclebound or on first use, the array paths print the
same bytes.  The command line reads every name through the package, so
each subcommand loads only its layers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCALAR_PATHS = """
import contextlib, io, json, sys
import cyclebound

after, layers = {}, {}

def record(stage):
    after[stage] = sorted(name for name in sys.modules if name.startswith("numpy."))
    layers[stage] = sorted(name for name in sys.modules if name.startswith("cyclebound"))

record("import")
p = cyclebound.Params(0.05, 0.05, 1.0)
cyclebound.cycle_bounds(p)
cyclebound.canard_estimates(p)
record("bounds")
cyclebound.cycle_extreme_report(p)
record("cycle")
cyclebound.region4.Case.A  # a submodule read as a package attribute
record("region4")
spec = cyclebound.SweepSpec(a_values=(0.05,), lambda_values=(0.05,), m_values=(1.0,))
record("harness")
report = cyclebound.run_sweep(spec)
assert report.rows[0].error is None
record("sweep")
from cyclebound import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["bounds", "--a", "0.05", "--lambda", "0.05", "--m", "1"]),
        cli.main(["cycle", "--a", "0.05", "--lambda", "0.05", "--m", "1", "--json"]),
    ]
record("cli")
pool = "multiprocessing" in sys.modules
passed = all(c.passed for c in cyclebound.proof_spotchecks("A").checks)
record("proofcheck")
print(json.dumps({"after": after, "layers": layers, "codes": codes, "pool": pool,
                  "passed": passed}))
"""

CLI_PATHS = """
import contextlib, io, json, sys
from cyclebound import cli

layers, numpy, codes = {}, {}, []

def record(stage):
    layers[stage] = sorted(name for name in sys.modules if name.startswith("cyclebound"))
    numpy[stage] = sorted(name for name in sys.modules if name.startswith("numpy."))

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(list(argv)))

P = ["--a", "0.05", "--lambda", "0.05", "--m", "1"]
record("import")
run("bounds", *P)
run("canard", *P)
record("bounds")
run("region4", "--case", "A", "--m", "1")
record("region4")
run("cycle", *P, "--json")
record("cycle")
run("proofcheck", "--case", "A")
record("proofcheck")
print(json.dumps({"layers": layers, "numpy": numpy, "codes": codes}))
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


@pytest.fixture(scope="module")
def scalar_record():
    return json.loads(_python(SCALAR_PATHS))


def test_scalar_paths_load_no_numpy_module(scalar_record):
    after = dict(scalar_record["after"])
    # the proof spot-checks are array code: they load NumPy, and pass
    assert after.pop("proofcheck") and scalar_record["passed"]
    assert after == {
        stage: [] for stage in ("import", "bounds", "cycle", "region4", "harness", "sweep", "cli")
    }
    assert scalar_record["codes"] == [0, 0]
    assert not scalar_record["pool"]  # a serial sweep loads no multiprocessing


def test_each_layer_loads_on_first_use(scalar_record):
    seen: set[str] = set()
    added = {}
    for stage, modules in scalar_record["layers"].items():
        added[stage] = sorted(set(modules) - seen)
        seen.update(modules)
    assert added == {
        "import": ["cyclebound", "cyclebound.model"],
        "bounds": ["cyclebound._lazy", "cyclebound.bounds", "cyclebound.lvroot"],
        "cycle": ["cyclebound.dopri", "cyclebound.simulator"],
        "region4": ["cyclebound.region4"],
        "harness": ["cyclebound.harness"],
        "sweep": [],
        "cli": ["cyclebound.cli"],
        "proofcheck": [],
    }


def test_each_cli_command_loads_only_its_layers():
    record = json.loads(_python(CLI_PATHS))
    assert record["codes"] == [0, 0, 0, 0, 0]
    seen: set[str] = set()
    added = {}
    for stage, modules in record["layers"].items():
        added[stage] = sorted(set(modules) - seen)
        seen.update(modules)
    assert added == {
        "import": ["cyclebound", "cyclebound.cli", "cyclebound.model"],
        "bounds": ["cyclebound._lazy", "cyclebound.bounds", "cyclebound.lvroot"],
        "region4": ["cyclebound.region4"],
        "cycle": ["cyclebound.dopri", "cyclebound.simulator"],
        "proofcheck": ["cyclebound.harness"],
    }
    numpy = record["numpy"]
    assert numpy.pop("proofcheck")  # the spot-checks are array code
    assert numpy == {stage: [] for stage in ("import", "bounds", "region4", "cycle")}


def test_array_paths_print_the_same_bytes_whenever_numpy_loads():
    lazy = _python(ARRAY_PATHS, "lazy")
    assert "[ok ]" in lazy
    assert _python(ARRAY_PATHS, "eager") == lazy
