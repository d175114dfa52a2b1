#!/usr/bin/env python3
"""cyclebound benchmark: one workload per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace {0,1}

Run it from the repository root; cyclebound is imported from ./src (no
build step).  With --trace 0 the run prints the end-to-end metrics.  With
--trace 1 it times the imports instead of set-up, runs the same passes,
then one more pass under the layer tracer, and prints the per-layer
metrics instead.  Each metric is printed with
its unit and sample count; the last line is a JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every output check passed.  Details (failure reasons, CSV digests, the
per-layer table, spans) go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
WORKLOAD_NAMES = ("sweep-reference", "near-hopf", "closed-form")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run_child(*flags: str, probe: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, str(HERE / "setup_child.py"), probe],
        env=_child_env(), capture_output=True, text=True, check=True, timeout=120,
    )


def measure_setup(probe: str, runs: int = SETUP_RUNS) -> list[float]:
    """Normalized set-up seconds of ``runs`` fresh interpreters (after one
    discarded run, so that every measured run finds compiled bytecode, as
    users do)."""
    samples = []
    for i in range(runs + 1):
        record = json.loads(_run_child(probe=probe).stdout.splitlines()[-1])
        if i:
            samples.append((record["import_s"] + record["first_call_extra_s"]) * record["scale"])
    return samples


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(dependency, own) seconds of ``import cyclebound`` from ``-X importtime``."""
    total_us = own_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "cyclebound" or name.startswith("cyclebound."):
            own_us += int(self_us)
        if name == "cyclebound":
            total_us = int(cumulative_us)
    return (total_us - own_us) / 1e6, own_us / 1e6


def measure_import_breakdown(probe: str, runs: int = IMPORTTIME_RUNS) -> dict:
    _run_child(probe=probe)  # compile bytecode first
    deps, own = zip(*(parse_importtime(_run_child("-X", "importtime", probe=probe).stderr)
                      for _ in range(runs)))
    return {"deps_s": statistics.median(deps), "own_s": statistics.median(own), "runs": runs}


def timed_pass(wl, ledger, index: int, hooks=None):
    """One pass; under the tracer's ``hooks`` if given, and then only the
    in-process part.  Its outputs are checked, untraced, and dropped.
    ``serial_norm_s`` is its in-process wall rescaled by calibration
    samples taken around the whole pass (see speed.py)."""
    gc.collect()
    before = [speed.calibration_sample() for _ in range(speed.SAMPLES)]
    with hooks or nullcontext():
        t0 = perf_counter()
        p = wl.run_pass(serial_only=hooks is not None)
        p.wall_s = perf_counter() - t0
    after = [speed.calibration_sample() for _ in range(speed.SAMPLES)]
    p.serial_norm_s = p.serial_s * speed.scale(before + after)
    wl.check_pass(index, p, ledger)
    p.outputs = None
    return p


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": samples}


def end_to_end_metrics(passes: list, setup: list[float]) -> dict:
    op_times = [t for p in passes for t in p.op_times]
    n_ops = sum(p.n_ops for p in passes)
    cuts = statistics.quantiles(op_times, n=100, method="inclusive")
    batches = [p.batch_s for p in passes]
    return {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "ops_per_s": metric(n_ops / sum(p.ops_s for p in passes), "1/s", n_ops),
        "op_ms_p50": metric(1e3 * statistics.median(op_times), "ms", len(op_times)),
        "op_ms_p80": metric(1e3 * cuts[79], "ms", len(op_times)),
        "batch_s": metric(statistics.median(batches), "s", len(batches)),
    }


def per_layer_metrics(wl, tracer, passes: list, traced, imports: dict) -> dict:
    """Per-layer numbers of one traced pass; 0 where the workload never
    reaches the layer (e.g. the simulator on closed-form)."""
    table = tracer.layer_times()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return table.get(name, empty)

    def per_call_us(name):
        r = row(name)
        return metric(1e6 * r["total_s"] / r["calls"] if r["calls"] else 0.0, "us", r["calls"])

    def ratio(num, den, unit, samples):
        return metric(num / den if den else 0.0, unit, samples)

    cycles = row("simulator.limit_cycle")["calls"]
    tours, loops = row("simulator.integrate.tour"), row("simulator.integrate.loop")
    loop_stats = tracer.loop_stats()
    bound_sets = row("bounds.cycle_bounds")["calls"]
    proofchecks = row("harness.proof_spotchecks")["calls"]
    region4_calls = sum(row(f"region4.{name}")["calls"] for name in tracing.REGION4_IN_HARNESS)
    batches = [p.batch_s for p in passes]
    return {
        "simulator.tours_per_cycle": ratio(tours["calls"], cycles, "count", cycles),
        "simulator.final_loop_share": ratio(
            loops["total_s"], row("simulator.limit_cycle")["total_s"], "frac", cycles),
        "simulator.steps_per_loop": metric(loop_stats["steps_median"], "count", loop_stats["loops"]),
        "simulator.steps_per_loop_max": metric(loop_stats["steps_max"], "count", loop_stats["loops"]),
        "simulator.us_per_step": ratio(
            1e6 * (tours["total_s"] + loops["total_s"]), tracer.steps, "us", tracer.steps),
        "simulator.raw_events_per_loop": ratio(loop_stats["raw"], loop_stats["loops"], "count",
                                               loop_stats["loops"]),
        "simulator.net_events_per_loop": ratio(loop_stats["net"], loop_stats["loops"], "count",
                                               loop_stats["loops"]),
        "simulator.net_event_ratio": ratio(loop_stats["net"], loop_stats["raw"], "frac",
                                           loop_stats["loops"]),
        "bounds.cycle_bounds_us": per_call_us("bounds.cycle_bounds"),
        "bounds.canard_estimates_us": per_call_us("bounds.canard_estimates"),
        "lvroot.z_us": per_call_us("lvroot.z"),
        "lvroot.z_exact_us": per_call_us("lvroot.z_exact"),
        "lvroot.lv_small_root_ln_us": per_call_us("lvroot.lv_small_root_ln"),
        "lvroot.z_calls_per_bound_set": ratio(tracer.counts()["cyclebound.bounds.z"], bound_sets, "count",
                                              bound_sets),
        "region4.growth_ratio_quadratic_us": per_call_us("region4.growth_ratio_quadratic"),
        "region4.handoff_cap_bound_us": per_call_us("region4.handoff_cap_bound"),
        "region4.alpha_factors_us": per_call_us("region4.alpha_factors"),
        "region4.calls_per_proofcheck": ratio(region4_calls, proofchecks, "count", proofchecks),
        "harness.row_overhead_s": metric(row("harness.run_sweep")["self_s"], "s",
                                         row("harness.run_sweep")["calls"]),
        "harness.parallel_efficiency": metric(
            statistics.median(p.ops_s for p in passes) / (2.0 * statistics.median(batches))
            if wl.parallel else 0.0, "frac", len(batches)),
        "harness.proofcheck_self_s": metric(row("harness.proof_spotchecks")["self_s"], "s",
                                            proofchecks),
        "setup.import_deps_s": metric(imports["deps_s"], "s", imports["runs"]),
        "setup.import_own_s": metric(imports["own_s"], "s", imports["runs"]),
        "trace.overhead_s": metric(
            traced.serial_norm_s - statistics.median(p.serial_norm_s for p in passes), "s",
            len(passes)),
    }


def print_metrics(workload: str, metrics: dict, attempted: int, failed: int) -> None:
    print(f"workload {workload}: {attempted} operations attempted, {failed} failed "
          f"(failed_frac = {failed / attempted:.6g})")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']:<6s} (n = {m['samples']})")


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        speed.stop_child_processes()


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclebound" / "__init__.py").is_file():
        print(f"perfbench: no cyclebound package under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads
    from cyclebound import bounds, harness, lvroot, region4, simulator

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        imports = measure_import_breakdown(wl.setup_probe)
    else:
        setup = measure_setup(wl.setup_probe)
    wl.warm_up()

    # whole passes, started until --seconds of passes have run (at least
    # the workload's minimum); each pass is checked, and its outputs
    # dropped, right after it so that a growing heap does not slow the
    # later passes down
    ledger = workloads.Ledger()
    passes = []
    while len(passes) < wl.min_passes or sum(p.wall_s for p in passes) < args.seconds:
        passes.append(timed_pass(wl, ledger, len(passes)))

    tracer = traced = None
    modules = dict(bounds=bounds, harness=harness, lvroot=lvroot, region4=region4,
                   simulator=simulator)
    if args.trace:
        tracer = tracing.Tracer()
        traced = timed_pass(wl, ledger, len(passes), tracer.installed(**modules))
    with tracer.installed(**modules) if tracer and wl.trace_checks else nullcontext():
        info = wl.check_run(ledger)

    if args.trace:
        metrics = per_layer_metrics(wl, tracer, passes, traced, imports)
    else:
        metrics = end_to_end_metrics(passes, setup)
    correct = ledger.failed == 0

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": [{"n_ops": p.n_ops, "ops_s": p.ops_s, "serial_s": p.serial_s,
                    "batch_s": p.batch_s} for p in passes],
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted,
        "failures": ledger.failures, "checks": info, "metrics": metrics,
    }
    if tracer is not None:
        details["layers"] = tracer.layer_times()
        details["counts"] = dict(tracer.counts())
        details["tracer_overhead_per_call_s"] = {
            "inside_span": tracer.overhead_in, "outside_span": tracer.overhead_out}
        tracer.write_spans(OUT / f"{stem}-spans.csv.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")

    print_metrics(args.workload, metrics, ledger.attempted, ledger.failed)
    for op, reasons in list(ledger.failures.items())[:20]:
        print(f"  FAILED {op}: {'; '.join(reasons)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
