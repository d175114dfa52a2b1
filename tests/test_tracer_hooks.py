"""The benchmark's tracer still finds every attribute it hooks.

perfbench/tracer.py replaces module attributes by name (for example
``simulator.cycle_bounds`` and ``harness.handoff_cap_bound``); a refactor
that drops or moves one of them breaks every traced benchmark run.  This
test enters and leaves the tracer's hook block on the live modules,
drives the ``integrate`` and ``RK45`` hooks through one ``limit_cycle``
call and the region4 hooks through one ``proof_spotchecks`` call, and
changes nothing under perfbench/.
"""

import importlib.util
from pathlib import Path

from cyclebound import bounds, harness, lvroot, region4, simulator
from cyclebound.model import Params

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    modules = (bounds, harness, lvroot, region4, simulator)
    before = [dict(vars(module)) for module in modules]
    tracer = _load_tracer().Tracer()
    p = Params(a=0.05, lam=0.05, m=1.0)
    with tracer.installed(*modules):
        # cycle_extreme_report resolves cycle_bounds through the simulator module
        simulator.cycle_bounds(p)
        # limit_cycle resolves integrate, and integrate RK45, through the
        # simulator module: every tour is one span, every step counted
        ce = simulator.limit_cycle(p)
        # proof_spotchecks resolves the region4 names in harness, and the
        # cap chain resolves z in region4: one z per perturbed variable.
        # The slope row runs on handoff_cap_bound_ln, which the tracer does
        # not hook, so its hook on handoff_cap_bound counts no call
        harness.proof_spotchecks("A")
    assert tracer.counts()["cyclebound.simulator.cycle_bounds"] == 1
    assert tracer.counts().get("cyclebound.harness.handoff_cap_bound", 0) == 0
    assert tracer.counts()["cyclebound.region4.z"] == 2
    assert tracer.steps > 0
    assert tracer.layer_times()["simulator.integrate.tour"]["calls"] == ce.tours == 2
    assert [dict(vars(module)) for module in modules] == before
