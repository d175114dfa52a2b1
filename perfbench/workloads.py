"""The benchmark's three workloads: seeded inputs, timed passes, output checks.

Every call into cyclebound goes through a module attribute looked up at
call time (``harness.run_sweep``, ``bounds.cycle_bounds``, ...), so the
hooks of :mod:`tracer` see exactly the calls a user's program makes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import random
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Optional

from cyclebound import bounds, harness, lvroot, simulator
from cyclebound.model import Params
from cyclebound.simulator import IntegrationError, SimConfig

import checks
import speed

REFERENCE_CSV = Path(__file__).resolve().parent / "reference_sweep.csv"

# the documented reference grid: 54 main points plus 3 from branch B of
# the proven box (the grid of scripts/run_sweep.py and the acceptance suite)
REFERENCE_SPECS = (
    harness.SweepSpec(
        a_values=(0.01, 0.02, 0.05),
        lambda_values=(0.01, 0.02, 0.05),
        m_values=(0.01, 0.1, 0.3, 1.0, 2.0, 5.0),
    ),
    harness.SweepSpec(a_values=(0.1,), lambda_values=(0.01,), m_values=(0.3, 1.0, 3.0)),
)

# near-hopf: one sweep over a at fixed lam and m, toward the Hopf
# boundary.  The Hopf margins 1 - 2 lam - a sit at the centres of
# NEAR_HOPF_STRATA log-uniform strata of [0.01, 0.3], so every seed gets
# the same mix of slow (contraction rate near 1) and fast cycles; the
# seed moves each margin by up to +-NEAR_HOPF_JITTER (log scale) and m
# within +-5% of 1.  Wider draws would make a run's cost, and so its
# metrics, depend more on the seed than on the code.
NEAR_HOPF_STRATA = 7
NEAR_HOPF_MARGINS = (0.01, 0.3)
NEAR_HOPF_JITTER = 0.05
NEAR_HOPF_LAMBDA = 0.3

# closed-form: points per pass, drawn over the proven box
CLOSED_FORM_POINTS = 10_000
CLOSED_FORM_CHUNK = 1_000  # bound sets timed between two calibrations
CLOSED_FORM_M = (1e-3, 50.0)
PROVEN_BOXES = ((0.05, 0.05), (0.1, 0.01))  # (a_max, lam_max), case A and B


@dataclasses.dataclass
class Pass:
    """One timed pass over a workload's inputs.

    ``op_times`` are the unit operations' normalized seconds (see
    :mod:`speed`) and ``ops_s`` their sum; ``batch_s`` is the batch job's
    normalized seconds (None in a traced pass, which skips it).
    ``serial_s`` is the raw wall time, net of calibration, of the part
    that runs in this process: the part a traced pass repeats under the
    tracer; ``serial_norm_s`` the same, normalized.  ``wall_s`` is the
    whole pass.  ``outputs`` is dropped once the pass has been checked.
    """

    n_ops: int
    ops_s: float
    serial_s: float
    op_times: list
    batch_s: Optional[float]
    outputs: Optional[dict]
    wall_s: float = 0.0
    serial_norm_s: float = 0.0


class Ledger:
    """Operations attempted, and the reasons each failed operation failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, op_id: str, reasons) -> None:
        if reasons:
            self.failures.setdefault(op_id, []).extend(reasons)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _csv(rows) -> str:
    buf = io.StringIO()
    harness.SweepReport(rows=rows).to_csv(buf)
    return buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SweepWorkload:
    """``harness.run_sweep`` over fixed grids, once with jobs=1, once with jobs=2.

    The unit operation is one grid row, i.e. one ``cycle_extreme_report``
    call; its wall time is taken around the name ``harness`` looks up.
    """

    setup_probe = "cycle"
    parallel = True  # the batch job is the same sweep with jobs=2
    trace_checks = False  # check_run calls no cyclebound layer

    def __init__(self, specs, reference_csv: Optional[str], tight_reference: bool,
                 min_passes: int = 1):
        self.specs = tuple(specs)
        self.min_passes = min_passes
        self.reference_csv = reference_csv
        self.tight_reference = tight_reference
        self.grid = [key for spec in self.specs for key in spec.grid()]
        self.references: dict = {}  # grid point -> tight-tolerance CycleExtremes
        self.csv_sha256: list = []

    def warm_up(self) -> None:
        harness.cycle_extreme_report(Params(a=0.05, lam=0.05, m=1.0))

    def _sweep(self, jobs: int) -> list:
        rows = []
        for spec in self.specs:
            rows.extend(harness.run_sweep(dataclasses.replace(spec, jobs=jobs)).rows)
        return rows

    def run_pass(self, serial_only: bool = False) -> Pass:
        # a traced pass skips the per-row timer, whose calibration samples
        # would land in run_sweep's self time
        timer = speed.OpTimer()
        with nullcontext() if serial_only else timer.hooked(harness, "cycle_extreme_report"):
            t0 = perf_counter()
            rows = self._sweep(jobs=1)
            serial_s = perf_counter() - t0 - timer.calibration_s
        outputs = {"rows": rows, "csv": _csv(rows)}
        batch_s = None
        if not serial_only:
            rows2, batch_s = timer.once(lambda: self._sweep(jobs=2), workers=2)
            outputs.update(rows2=rows2, csv2=_csv(rows2))
        return Pass(len(rows), sum(timer.times), serial_s, timer.times, batch_s, outputs)

    def check_pass(self, i: int, p: Pass, ledger: Ledger) -> None:
        """Charge every failing row to its (pass, jobs, grid point) operation."""
        runs = [("jobs1", p.outputs["rows"], p.outputs["csv"])]
        if "rows2" in p.outputs:
            runs.append(("jobs2", p.outputs["rows2"], p.outputs["csv2"]))
            ledger.attempt()
            if p.outputs["csv2"] != p.outputs["csv"]:
                ledger.fail(f"pass{i}/csv", ["jobs=1 and jobs=2 CSVs differ"])
        self.csv_sha256.append({tag: _sha256(text) for tag, _, text in runs})
        for tag, rows, text in runs:
            ledger.attempt(len(self.grid))
            by_key = {(r.a, r.lam, r.m): r for r in rows}
            for key in self.grid:
                op = f"pass{i}/{tag}/{key}"
                row = by_key.get(key)
                if row is None:
                    ledger.fail(op, ["row missing from the sweep"])
                    continue
                ledger.fail(op, checks.sweep_row_failures(row))
                if self.tight_reference and tag == "jobs1" and row.error is None:
                    if key not in self.references:
                        self.references[key] = _tight_reference(row, self.specs[0].sim)
                    ref = self.references[key]
                    if isinstance(ref, str):
                        ledger.fail(op, [ref])
                    else:
                        ledger.fail(op, checks.extremes_failures(row, ref))
            if self.reference_csv is not None:
                for key, reason in checks.sweep_csv_failures(text, self.reference_csv):
                    ledger.fail(f"pass{i}/{tag}/{key}", [reason])

    def check_run(self, ledger: Ledger) -> dict:
        info: dict = {"csv_sha256": self.csv_sha256}
        if self.reference_csv is not None:
            ref = _sha256(self.reference_csv)
            info["reference_sha256"] = ref
            info["identical_to_reference"] = all(
                h == ref for run in self.csv_sha256 for h in run.values()
            )
        return info


def _tight_reference(row, cfg: SimConfig):
    """The same cycle at 10x tighter rtol and cycle_tol, started from the row's x_max.

    The warm start only saves tours: the return map contracts toward the
    cycle from anywhere, and the tight cycle_tol decides where it stops.
    """
    tight = SimConfig(rtol=cfg.rtol / 10, cycle_tol=cfg.cycle_tol / 10)
    try:
        return simulator.limit_cycle(Params(a=row.a, lam=row.lam, m=row.m), tight, x0=row.x_max)
    except IntegrationError as exc:
        return f"tight-tolerance reference failed: {type(exc).__name__}: {exc}"


def sweep_reference(seed: int) -> SweepWorkload:
    """The 57-row reference grid; the seed is ignored, the grid is the reference.

    Two passes at least, so that each run spans more of the machine's
    speed drift and reports the mean of two jobs=2 sweeps.
    """
    del seed
    return SweepWorkload(
        REFERENCE_SPECS, REFERENCE_CSV.read_text(), tight_reference=False, min_passes=2
    )


def near_hopf(seed: int) -> SweepWorkload:
    rng = random.Random(seed)
    lo, hi = NEAR_HOPF_MARGINS
    margins = [
        lo * (hi / lo) ** ((k + 0.5) / NEAR_HOPF_STRATA)
        * math.exp(rng.uniform(-NEAR_HOPF_JITTER, NEAR_HOPF_JITTER))
        for k in range(NEAR_HOPF_STRATA)
    ]
    spec = harness.SweepSpec(
        a_values=[1.0 - 2.0 * NEAR_HOPF_LAMBDA - margin for margin in margins],
        lambda_values=(NEAR_HOPF_LAMBDA,),
        m_values=(math.exp(rng.uniform(-0.05, 0.05)),),
    )
    # two passes at least: with one, p80 of 7 samples falls between two
    # points of the mix instead of on one, and reads a different number
    return SweepWorkload((spec,), None, tight_reference=True, min_passes=2)


class ClosedFormWorkload:
    """``cycle_bounds`` + ``canard_estimates`` per point, then both proof spot-checks.

    The unit operation is one bound set at one point; the batch job is
    ``proof_spotchecks("A")`` plus ``proof_spotchecks("B")``.
    """

    setup_probe = "bounds"
    parallel = False
    min_passes = 1
    trace_checks = True  # the z sandwich check is lvroot.z_exact's only caller

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ln_m_lo, ln_m_hi = (math.log(m) for m in CLOSED_FORM_M)
        self.points = []
        for _ in range(CLOSED_FORM_POINTS):
            a_max, lam_max = PROVEN_BOXES[rng.randrange(2)]
            self.points.append(
                Params(
                    a=a_max * (1.0 - rng.random()),
                    lam=lam_max * (1.0 - rng.random()),
                    m=math.exp(rng.uniform(ln_m_lo, ln_m_hi)),
                )
            )
        self.first = None  # the first pass's bound sets, which later passes must repeat

    def warm_up(self) -> None:
        bounds.cycle_bounds(self.points[0])
        bounds.canard_estimates(self.points[0])

    @staticmethod
    def _bound_set(p: Params) -> tuple:
        return bounds.cycle_bounds(p), bounds.canard_estimates(p)

    def run_pass(self, serial_only: bool = False) -> Pass:
        timer = speed.OpTimer()
        t0 = perf_counter()
        results = []
        for i in range(0, len(self.points), CLOSED_FORM_CHUNK):
            results += timer.each(self._bound_set, self.points[i:i + CLOSED_FORM_CHUNK])
        reports, batch_s = timer.once(
            lambda: {case: harness.proof_spotchecks(case) for case in ("A", "B")}
        )
        serial_s = perf_counter() - t0 - timer.calibration_s
        verdicts = {
            case: {c.name: bool(c.passed) for c in report.checks}
            for case, report in reports.items()
        }
        return Pass(
            len(results), sum(timer.times), serial_s, timer.times,
            None if serial_only else batch_s,
            {"bound_sets": results, "verdicts": verdicts},
        )

    def check_pass(self, i: int, p: Pass, ledger: Ledger) -> None:
        """Verdicts every pass; bound sets must repeat the first pass exactly."""
        ledger.attempt(len(self.points) + 2)
        results = p.outputs["bound_sets"]
        if self.first is None:
            self.first = results
        elif results != self.first:
            for j, (out, first) in enumerate(zip(results, self.first)):
                if out != first:
                    ledger.fail(f"pass{i}/bounds/{j}", ["bound set differs from the first pass"])
        for case, verdicts in p.outputs["verdicts"].items():
            ledger.fail(f"pass{i}/proofcheck/{case}", checks.verdict_failures(case, verdicts))

    def check_run(self, ledger: Ledger) -> dict:
        """Order, finiteness and the z sandwich of every first-pass bound set."""
        for j, (point, out) in enumerate(zip(self.points, self.first)):
            ledger.fail(
                f"pass0/bounds/{j}",
                checks.bound_set_failures(*out) + self._z_failures(point, out[0]),
            )
        return {"points": len(self.points)}

    @staticmethod
    def _z_failures(p: Params, b) -> list:
        """z1 <= z_exact <= z2 <= z0 at each y the bound set fed to z."""
        reasons = []
        for u in (b.x_max_lo, b.x_max_hi):
            for y in (u / p.a, u / p.h_lam):
                reasons += checks.z_sandwich_failures(
                    y,
                    lvroot.z(lvroot.ZIndex.Z1, y),
                    lvroot.z_exact(y),
                    lvroot.z(lvroot.ZIndex.Z2, y),
                    lvroot.z(lvroot.ZIndex.Z0, y),
                )
        return reasons


WORKLOADS = {
    "sweep-reference": sweep_reference,
    "near-hopf": near_hopf,
    "closed-form": ClosedFormWorkload,
}
