"""Each layer loads on its first use, and NumPy on the first array use.

Each check runs in a fresh interpreter, because the test session has
imported everything long before.  ``import cyclebound`` loads ``model``
only; scalar bounds add ``lvroot``, ``bounds`` and ``_arith`` (the
float-or-array rule), a cycle adds ``simulator`` and ``dopri``, and
``region4`` and ``harness`` load when one of their names is read.
Scalar bounds, a cycle, region4's cap chain on a float ``Params``, a
serial sweep row and the ``bounds``, ``cycle``, ``simulate`` and
``figures`` commands must leave no ``numpy`` entry in ``sys.modules``,
and so must a library that probes it, as ``pytest.approx`` does; the
proof spot-checks load NumPy.  Neither the scalar layers nor the
scalar commands load ``dataclasses`` (nor the ``inspect`` it pulls in):
only the harness does, for its sweep spec.  Whether
NumPy was imported before cyclebound or on first use, the array paths
print the same bytes.  The command line reads every name through the
package, so each subcommand loads only its layers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# what `import dataclasses` loads first, about 11 ms of a fresh process
HEAVY = ("dataclasses", "inspect")

SCALAR_PATHS = f"HEAVY = {HEAVY!r}\n" + """
import contextlib, io, json, sys
import cyclebound

after, layers, heavy = {}, {}, {}

def record(stage):
    after[stage] = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
    layers[stage] = sorted(name for name in sys.modules if name.startswith("cyclebound"))
    heavy[stage] = [name for name in HEAVY if name in sys.modules]

record("import")
p = cyclebound.Params(0.05, 0.05, 1.0)
cyclebound.cycle_bounds(p)
cyclebound.canard_estimates(p)
record("bounds")
cyclebound.cycle_extreme_report(p)
record("cycle")
r4 = cyclebound.region4  # a submodule read as a package attribute
caps = [f(p, r4.Case.A) for f in (r4.handoff_cap_bound, r4.handoff_cap_bound_ln)]
caps.append(r4.growth_ratio_quadratic(0.5, p, r4.Case.A))
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
import pytest  # approx probes sys.modules for numpy
assert pytest.approx(1.0) == 1.0
record("approx")
pool = "multiprocessing" in sys.modules
passed = all(c.passed for c in cyclebound.proof_spotchecks("A").checks)
record("proofcheck")
print(json.dumps({"after": after, "layers": layers, "heavy": heavy, "codes": codes,
                  "pool": pool, "passed": passed,
                  "cap_types": [type(c).__name__ for c in caps]}))
"""

CLI_PATHS = f"HEAVY = {HEAVY!r}\n" + """
import contextlib, io, json, sys
from cyclebound import cli

out = sys.argv[1]

layers, numpy, heavy, codes = {}, {}, {}, []

def record(stage):
    layers[stage] = sorted(name for name in sys.modules if name.startswith("cyclebound"))
    numpy[stage] = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
    heavy[stage] = [name for name in HEAVY if name in sys.modules]

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
run("simulate", *P)
run("transit", *P)
record("simulate")
run("figures", "--which", "fig5", "--out", out, "--points", "2", "--panel", "0.05,0.05")
record("figures")
run("proofcheck", "--case", "A")
record("proofcheck")
print(json.dumps({"layers": layers, "numpy": numpy, "heavy": heavy, "codes": codes}))
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
print(repr(traj.taus), repr(traj.points))
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
        stage: []
        for stage in ("import", "bounds", "cycle", "region4", "harness", "sweep", "cli", "approx")
    }
    assert scalar_record["codes"] == [0, 0]
    # region4's cap chain on a float Params is float arithmetic
    assert scalar_record["cap_types"] == ["float"] * 3
    assert not scalar_record["pool"]  # a serial sweep loads no multiprocessing


def test_scalar_paths_load_no_dataclasses(scalar_record):
    # the validating records are frozen classes on model's own base; only the
    # harness, for SweepSpec, loads dataclasses
    heavy = scalar_record["heavy"]
    stages = ("import", "bounds", "cycle", "region4")
    assert {stage: heavy[stage] for stage in stages} == dict.fromkeys(stages, [])
    assert heavy["harness"] == list(HEAVY)


def test_each_layer_loads_on_first_use(scalar_record):
    seen: set[str] = set()
    added = {}
    for stage, modules in scalar_record["layers"].items():
        added[stage] = sorted(set(modules) - seen)
        seen.update(modules)
    assert added == {
        "import": ["cyclebound", "cyclebound.model"],
        "bounds": ["cyclebound._arith", "cyclebound.bounds", "cyclebound.lvroot"],
        "cycle": ["cyclebound.dopri", "cyclebound.simulator"],
        "region4": ["cyclebound.region4"],
        "harness": ["cyclebound.harness"],
        "sweep": [],
        "cli": ["cyclebound.cli"],
        "approx": [],
        "proofcheck": [],
    }


def test_each_cli_command_loads_only_its_layers(tmp_path):
    record = json.loads(_python(CLI_PATHS, str(tmp_path)))
    assert record["codes"] == [0] * 8
    seen: set[str] = set()
    added = {}
    for stage, modules in record["layers"].items():
        added[stage] = sorted(set(modules) - seen)
        seen.update(modules)
    assert added == {
        "import": ["cyclebound", "cyclebound.cli", "cyclebound.model"],
        "bounds": ["cyclebound._arith", "cyclebound.bounds", "cyclebound.lvroot"],
        "region4": ["cyclebound.region4"],
        "cycle": ["cyclebound.dopri", "cyclebound.simulator"],
        "simulate": [],
        "figures": ["cyclebound.harness"],
        "proofcheck": [],
    }
    numpy = record["numpy"]
    assert numpy.pop("proofcheck")  # the spot-checks are array code
    stages = ("import", "bounds", "region4", "cycle", "simulate", "figures")
    assert numpy == {stage: [] for stage in stages}
    # bounds, canard, region4, cycle, simulate and transit load no dataclasses
    heavy = record["heavy"]
    assert heavy.pop("figures") == heavy.pop("proofcheck") == list(HEAVY)
    assert heavy == {stage: [] for stage in stages[:-1]}


def test_array_paths_print_the_same_bytes_whenever_numpy_loads():
    lazy = _python(ARRAY_PATHS, "lazy")
    assert "[ok ]" in lazy
    assert _python(ARRAY_PATHS, "eager") == lazy
