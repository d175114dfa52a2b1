"""Sweep verification, proof spot-checks and figure-data emission.

Everything here is about confronting the closed-form bounds with the
simulated cycle (and with each other) over parameter grids:

* :func:`run_sweep` simulates the cycle at every grid point, merges it
  with the bounds and reports one pass/fail row per point, in a CSV
  whose layout is stable byte for byte regardless of the job count.
* :func:`proof_spotchecks` checks the sign conditions and monotonicity
  claims the closed forms rest on.  The x_max barrier, gain-quadratic
  and hand-off envelope rows are evaluated only where a certificate puts
  their worst case; the other rows sample dense grids (confidence
  checks, not certified interval arithmetic).
* :func:`emit_figures` writes bound-versus-simulation curves over m for
  a set of parameter panels, through the sweep's row runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter, itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import IO, NamedTuple, Optional, Sequence, Union

from .bounds import S_MAX_LO, x_max_upper_linear, x_max_upper_refined
from .model import Params, positive_float, positive_int, require_cycle
from .region4 import (
    M_BRANCH,
    Case,
    alpha2_peak,
    alpha_factors,
    growth_ratio_quadratic,
    # handoff_cap_bound is not called here: perfbench's tracer hooks
    # harness.handoff_cap_bound by name (ROADMAP item 1(a))
    handoff_cap_bound,
    handoff_cap_bound_ln,
    handoff_cap_envelope,
)
from .simulator import IntegrationError, SimConfig, cycle_extreme_report

__all__ = [
    "SweepSpec",
    "SweepRow",
    "SweepReport",
    "CheckResult",
    "ProofCheckReport",
    "DEFAULT_PANELS",
    "REFERENCE_SPECS",
    "run_sweep",
    "x_max_barrier_coefficients",
    "proof_spotchecks",
    "emit_figures",
    "figure_m_values",
]

DEFAULT_PANELS: tuple[tuple[float, float], ...] = (
    (0.05, 0.05),
    (0.1, 0.01),
    (0.1, 0.1),
    (0.02, 0.02),
)

_EXPECTED_ALPHA2_PEAK = {Case.A: 4.11, Case.B: 3.06}
_ENVELOPE_CAP = {Case.A: 0.05, Case.B: 0.08}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_SPEC_KEYS = {"a_values", "lambda_values", "m_values"}


def _positive_values(what: str, values) -> tuple[float, ...]:
    """``values`` as floats; ValueError naming ``what`` unless there is at
    least one and each is a :func:`positive_float`."""
    vals = tuple(positive_float(what, v) for v in values)
    if not vals:
        raise ValueError(f"{what} must be non-empty")
    return vals


def _axis(what: str, values) -> tuple[float, ...]:
    """A grid axis: :func:`_positive_values`, none repeated."""
    vals = _positive_values(what, values)
    if len(set(vals)) < len(vals):  # a repeated value repeats its rows
        raise ValueError(f"{what} must not repeat a value, got {vals!r}")
    return vals


def _check_keys(what: str, record, required: set, allowed: set) -> None:
    if not isinstance(record, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(record).__name__}")
    missing = sorted(required - set(record))
    if missing:
        raise ValueError(f"{what} lacks keys {missing}")
    unknown = sorted(set(record) - allowed)
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; allowed: {sorted(allowed)}")


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian parameter grid plus simulation settings for a sweep."""

    a_values: tuple[float, ...]
    lambda_values: tuple[float, ...]
    m_values: tuple[float, ...]
    sim: SimConfig = field(default_factory=SimConfig)
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("a_values", "lambda_values", "m_values"):
            object.__setattr__(self, name, _axis(name, getattr(self, name)))
        # reject the whole grid before any row is simulated: a point with
        # no cycle would abort the sweep halfway, not fail its own row
        for a in self.a_values:
            for lam in self.lambda_values:
                require_cycle(Params(a=a, lam=lam, m=1.0))
        object.__setattr__(self, "jobs", positive_int("jobs", self.jobs))

    @classmethod
    def from_json(cls, record: dict) -> "SweepSpec":
        """Build a spec from a parsed JSON record; ValueError on a malformed one."""
        _check_keys("sweep spec", record, _SPEC_KEYS, _SPEC_KEYS | {"sim", "jobs"})
        sim_record = record.get("sim", {})
        _check_keys("sweep spec sim", sim_record, set(), set(SimConfig._fields))
        for name in sorted(_SPEC_KEYS):
            if not isinstance(record[name], list):
                raise ValueError(
                    f"malformed sweep spec: {name} must be a JSON array, got {record[name]!r}"
                )
        # the constructors judge every value: a JSON number is an int or a float
        return cls(
            a_values=tuple(record["a_values"]),
            lambda_values=tuple(record["lambda_values"]),
            m_values=tuple(record["m_values"]),
            sim=SimConfig(**sim_record),
            jobs=record.get("jobs", 1),
        )

    def grid(self) -> list[tuple[float, float, float]]:
        axes = (self.a_values, self.lambda_values, self.m_values)
        return list(product(*map(sorted, axes)))


class SweepRow(NamedTuple):
    """One grid point: bounds, simulated extremes and pass bookkeeping."""

    a: float
    lam: float
    m: float
    proven: bool
    x_max_lo: float
    x_max: float
    x_max_hi: float
    ln_x_min_lo: float
    ln_x_min: float
    ln_x_min_hi: float
    ln_s_min_lo: float
    ln_s_min: float
    ln_s_min_hi: float
    s_max: float
    converged: bool
    min_margin: float
    passed: bool
    error: Optional[str] = None

    def csv_line(self) -> str:
        return ",".join(_fmt(getattr(self, name)) for name in _CSV_FIELDS)


# every SweepRow field but the error, which stays out of the CSV, in order
_CSV_FIELDS = tuple(name for name in SweepRow._fields if name != "error")
_CSV_NAMES = {"lam": "lambda", "passed": "pass"}
CSV_HEADER = ",".join(_CSV_NAMES.get(name, name) for name in _CSV_FIELDS)


class SweepReport(NamedTuple):
    """Ordered sweep rows and their CSV."""

    rows: list[SweepRow]

    def to_csv(self, target: Union[str, Path, IO[str]]) -> None:
        lines = [CSV_HEADER] + [r.csv_line() for r in self.rows]
        text = "\n".join(lines) + "\n"
        if hasattr(target, "write"):
            target.write(text)
        else:
            Path(target).write_text(text)


def _row_task(args: tuple) -> SweepRow:
    """The row of one point (a, lam, m, cfg): its bounds against its
    simulated cycle, or NaN with the reason where the bound set raises
    ValueError or the simulation fails."""
    a, lam, m, cfg = args
    p = Params(a=a, lam=lam, m=m)
    try:
        report = cycle_extreme_report(p, cfg)
    except (ValueError, IntegrationError) as exc:
        row = dict.fromkeys(_CSV_FIELDS, math.nan)
        row.update(a=a, lam=lam, m=m, proven=p.proven_region, converged=False, passed=False)
        return SweepRow(**row, error=str(exc))
    b, ce = report.bounds, report.extremes
    return SweepRow(
        a=a, lam=lam, m=m, proven=b.proven,
        x_max_lo=b.x_max_lo, x_max=ce.x_max, x_max_hi=b.x_max_hi,
        ln_x_min_lo=b.ln_x_min_lo, ln_x_min=ce.ln_x_min, ln_x_min_hi=b.ln_x_min_hi,
        ln_s_min_lo=b.ln_s_min_lo, ln_s_min=ce.ln_s_min, ln_s_min_hi=b.ln_s_min_hi,
        s_max=ce.s_max, converged=ce.converged, min_margin=report.min_margin,
        passed=report.passed,
    )


# the 57-point reference grid: 54 main points, then 3 from the second proven box
REFERENCE_SPECS = (
    SweepSpec(
        a_values=(0.01, 0.02, 0.05),
        lambda_values=(0.01, 0.02, 0.05),
        m_values=(0.01, 0.1, 0.3, 1.0, 2.0, 5.0),
    ),
    SweepSpec(a_values=(0.1,), lambda_values=(0.01,), m_values=(0.3, 1.0, 3.0)),
)


def _take_rows(counter, tasks: list) -> dict:
    """{index: row} for every row index this process takes from ``counter``."""
    rows = {}
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(tasks):
            return rows
        rows[i] = _row_task(tasks[i])


def _sweep_worker(counter, tasks: list, conn) -> None:
    """A forked worker: its rows, or the exception that stopped it, sent once."""
    try:
        result = _take_rows(counter, tasks)
    except BaseException as exc:  # the caller re-raises it
        result = exc
    conn.send(result)


def _forked_rows(tasks: list, processes: int) -> list[SweepRow]:
    """The rows of ``tasks`` from this process and ``processes - 1`` forked ones.

    Every process takes the next row index from one shared counter; each
    worker sends its rows once, when the counter runs out.
    """
    # imported here: a serial sweep never loads multiprocessing.  fork
    # starts no resource tracker and no thread, and inherits ``tasks``
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)
    started = []  # (process, receiving end of its pipe)
    try:
        for _ in range(processes - 1):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_sweep_worker, args=(counter, tasks, send))
            proc.start()
            send.close()  # the worker holds the only sending end: EOF when it dies
            started.append((proc, recv))
        rows = _take_rows(counter, tasks)
        for proc, recv in started:
            wait([recv, proc.sentinel])
            try:
                # a worker that died unsent leaves its pipe at EOF, or
                # unreadable if a process forked elsewhere shares its end
                result = recv.recv() if recv.poll() else None
            except EOFError:
                result = None
            if result is None:
                proc.join()
                raise ChildProcessError(
                    f"sweep worker {proc.pid} exited with code {proc.exitcode} "
                    "before sending its rows"
                )
            if isinstance(result, BaseException):
                raise result
            rows.update(result)
    finally:
        for proc, recv in started:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            recv.close()
    return [rows[i] for i in range(len(tasks))]


def _run_rows(points: Sequence[tuple], cfg: SimConfig, jobs: int) -> list[SweepRow]:
    """The row of each (a, lam, m) in ``points``, in their order.

    Rows are independent.  With jobs > 1 the calling process computes
    rows too, next to min(jobs, rows) - 1 forked worker processes (POSIX
    only), so jobs counts the processes in all; each process takes the
    next row from one shared counter.  The order is that of ``points``
    either way, so the rows are the same for any job count.  Per-row
    failures are recorded in the row, never abort the run; any other
    exception, in a worker too, propagates, and a worker that dies
    without sending its rows raises ChildProcessError.
    """
    tasks = [(a, lam, m, cfg) for a, lam, m in points]
    processes = min(jobs, len(tasks))
    if processes == 1:
        return [_row_task(t) for t in tasks]
    return _forked_rows(tasks, processes)


def run_sweep(spec: SweepSpec) -> SweepReport:
    """Evaluate bounds against the simulated cycle over the whole grid,
    in ``spec.jobs`` processes (:func:`_run_rows`).  The rows come in the
    sorted grid order, so CSV output is byte-identical for any job count.
    """
    return SweepReport(rows=_run_rows(spec.grid(), spec.sim, spec.jobs))


def x_max_barrier_coefficients(p: Params) -> tuple[float, float]:
    """Sign-certificate coefficients (C0, C0 + C1) of the x_max barrier.

    The escape barrier behind :func:`cyclebound.bounds.x_max_upper` has
    time derivative proportional to C1 v + C0 on the barrier (v = 1 - s);
    C0 < 0 and C0 + C1 <= 0 pin its sign on 0 <= v <= 1:

        C0 = -m^3 lam (1 - lam)(4 - lam) - m^2 lam ((2a+6)(1 - lam) + 2 + 2a)
             - m lam (3 + 5a + a^2) - 1 - m - a,
        C0 + C1 = -m lam (a + 2 + 2m - m lam)^2.

    Certificate: for a >= 0, 0 <= lam < 1 and m > 0 each of C0's four
    terms is <= 0, so C0 <= -1 - m - a < 0 with equality at lam = 0.  Over
    a box a in [a_lo, a_hi], lam in [0, 1), m in [m_lo, m_hi] C0 is
    therefore largest at the corner (a_lo, 0, m_lo).  C0 + C1 is m lam >= 0
    times -F^2, F = a + 2 + m (2 - lam) >= a + 2 + m > 0, so C0 + C1 <= 0,
    and -F^2 = (C0 + C1) / (m lam) decides its sign wherever m lam > 0.  F
    increases in a and m and decreases in lam, so over the box's closure
    -F^2 < 0 is largest at the corner (a_lo, 1, m_lo).
    """
    a, lam, m = p.a, p.lam, p.m
    c = -m * lam * (3.0 + 5.0 * a + a * a) - 1.0 - m - a
    c0 = (
        -(m**3) * lam * (lam * lam - 5.0 * lam + 4.0)
        + m * m * lam * ((2.0 * a + 6.0) * lam - 8.0 - 4.0 * a)
        + c
    )
    c0_plus_c1 = -m * lam * (a + 2.0 + 2.0 * m - m * lam) ** 2
    return c0, c0_plus_c1


class CheckResult(NamedTuple):
    """One named spot-check: margin > 0 (or >= 0 where noted) means proven side."""

    name: str
    passed: bool
    margin: float
    worst_value: float
    worst_arg: tuple

    def line(self) -> str:
        verdict = "ok " if self.passed else "FAIL"
        return (
            f"[{verdict}] {self.name}: margin={self.margin:.6g} "
            f"worst={self.worst_value:.6g} at {self.worst_arg}"
        )


class ProofCheckReport(NamedTuple):
    case: Case
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _cap_bound_slopes(case: Case) -> tuple[float, tuple]:
    """Smallest central difference (step 1e-6) of handoff_cap_bound_ln in a
    or in lam over the case box, as (slope, (a, lam, m, variable)).  The
    log has the monotonicity of the cap, and unlike the cap it does not
    underflow to 0 deep in the box, where every difference would read 0.

    The 20 x 20 x 12 grid is three broadcast axes, a of shape (20, 1, 1),
    lam (20, 1) and m (12,), so each term of the cap chain runs only on
    the axes it depends on.  One cap call per variable evaluates both of
    its perturbations, +step then -step on a leading axis.  Ties go to
    the first point in (a, lam, m) order, the a slope before the lam
    slope, as in a strict scan.
    """
    import numpy as np  # here, as in proof_spotchecks: the proof table builds arrays

    a = np.linspace(2e-3, case.a_max, 20)[:, None, None]
    lam = np.linspace(2e-3, case.lam_max, 20)[:, None]
    m = np.geomspace(1e-2, 20, 12)

    def cap(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
        return handoff_cap_bound_ln(SimpleNamespace(a=a, lam=lam, m=m), case)

    step = 1e-6
    shift = np.array([step, -step])[:, None, None, None]
    up_a, down_a = cap(a + shift, lam)
    up_lam, down_lam = cap(a, lam + shift)
    slopes = np.stack(
        [(up_a - down_a) / (2 * step), (up_lam - down_lam) / (2 * step)], axis=-1
    )
    i, j, k, by = np.unravel_index(int(slopes.argmin()), slopes.shape)
    return float(slopes[i, j, k, by]), (
        float(a[i, 0, 0]), float(lam[j, 0]), float(m[k]), ("a", "lam")[by],
    )


# The barrier rows' box, a x lam x m; the certificate of
# x_max_barrier_coefficients puts the largest C0 at (a_lo, 0, m_lo) and the
# largest -F^2 = (C0 + C1) / (m lam), the factor that decides the sign of
# C0 + C1 (itself -0 at lam = 0 whatever F is), at (a_lo, 1, m_lo) on the
# box's closure.
_BARRIER_BOX = ((0.0025, 0.5), (0.0, 1.0), (0.05, 10.0))

# The m range of the gain and alpha rows, and the gain rows' box per case:
# [a_max/40, a_max] x [lam_max/40, lam_max] x _M_RANGE.  There 4 lam + a < 1,
# so G*(lam) = (k/m) lam (2 lam + a - 1) increases in a and m and decreases in
# lam, and G*(1) = (k/m)(1 + a) + 1 - lam increases in a and decreases in lam and m.
_M_RANGE = (1e-3, 50.0)
_GAIN_BOX = {
    case: ((case.a_max / 40, case.a_max), (case.lam_max / 40, case.lam_max), _M_RANGE)
    for case in Case
}


def proof_spotchecks(case: Union[Case, str]) -> ProofCheckReport:
    """Check every sign/monotonicity fact the bounds rest on.

    Each fact is one row (name, (worst value, its arg), sense, bound):
    it holds when ``worst sense bound`` does, and its margin is the
    distance from the worst value to the bound, positive on the proven
    side.  The barrier rows and the gain-quadratic rows are certified
    corners: an algebraic certificate puts their worst case at one
    corner of their box (:data:`_BARRIER_BOX`, :data:`_GAIN_BOX`), so
    each is evaluated there once.  So is the envelope row, at its branch
    ends m = :data:`M_BRANCH` = 0.3 and the next float (ties go to 0.3): a branch
    (c0 + c1 m) e^{c2 m + c3} has the slope sign of c1 + c2 (c0 + c1 m),
    which is > 0 for the low branch (c0, c1, c2 > 0), so it increases on
    [0, 0.3], while for the high branch (c2 < 0 < c1) it falls with m and
    is -0.127 (case A) or -0.091 (case B) at m = 0.3, so it decreases on
    [0.3, inf).  The alpha and cap-slope rows are still sampled, on grids
    dense enough to exceed the granularity of the case analysis they
    probe; the alpha grid also holds m = 0.3, the end of the low branch,
    where alpha drops to the high branch.  Failures are reported in the
    result, never raised.

    The alpha row is one :func:`alpha_factors` call on the 501-point
    array; it reports its first maximal element, the tie rule of max()
    over float calls.
    """
    import numpy as np  # here: a sweep or a figure builds no array

    case = Case(case)
    (a_min, _), (_, lam_end), (m_min, _) = _BARRIER_BOX
    c0_arg, factor_arg = (a_min, 0.0, m_min), (a_min, lam_end, m_min)
    c0, _ = x_max_barrier_coefficients(Params(*c0_arg, limit=True))
    _, c0_plus_c1 = x_max_barrier_coefficients(Params(*factor_arg, limit=True))
    barrier_factor = c0_plus_c1 / (m_min * lam_end)
    (a_lo, a_hi), (lam_lo, lam_hi), (_, m_hi) = _GAIN_BOX[case]
    at_lam, at_one = (a_hi, lam_lo, m_hi), (a_lo, lam_hi, m_hi)
    gain_at_lam = growth_ratio_quadratic(lam_lo, Params(*at_lam), case)
    gain_at_one = growth_ratio_quadratic(1.0, Params(*at_one), case)
    alpha_ms = np.append(np.geomspace(*_M_RANGE, 500), M_BRANCH)
    alpha_row = alpha_factors(alpha_ms, case).alpha
    worst = int(np.argmax(alpha_row))  # the first maximum, as max() takes it
    alpha = (float(alpha_row[worst]), (float(alpha_ms[worst]),))
    envelope = max(
        ((handoff_cap_envelope(m, case), (m,)) for m in (M_BRANCH, math.nextafter(M_BRANCH, 1.0))),
        key=itemgetter(0),
    )
    slope = _cap_bound_slopes(case)
    rows = (
        ("barrier_c0_negative", (c0, c0_arg), "<", 0.0),
        ("barrier_c0_plus_c1_nonpositive", (barrier_factor, factor_arg), "<=", 0.0),
        ("gain_quadratic_negative_at_lam", (gain_at_lam, at_lam), "<", 0.0),
        ("gain_quadratic_positive_at_one", (gain_at_one, at_one), ">", 0.0),
        ("alpha_below_0.2", alpha, "<", 0.2),
        ("handoff_envelope_cap", envelope, "<=", _ENVELOPE_CAP[case]),
        ("cap_bound_monotone_in_a_and_lam", slope, ">=", -1e-9),
    )
    checks = []
    for name, (value, arg), sense, bound in rows:
        margin = bound - value if sense.startswith("<") else value - bound
        passed = margin >= 0 if sense.endswith("=") else margin > 0
        checks.append(CheckResult(name, passed, margin, value, arg))
    # a pinned location, not a sign fact: the margin is what is left of
    # the 0.02 tolerance around the target, the worst value the root
    root, target = alpha2_peak(case), _EXPECTED_ALPHA2_PEAK[case]
    err = abs(root - target)
    checks.append(CheckResult("alpha2_peak_location", err <= 0.02, 0.02 - err, root, (target,)))
    return ProofCheckReport(case=case, checks=tuple(checks))


# each figure's CSV columns after m, in order: (name, value read from a SweepRow)
_FIGURE_COLUMNS = {
    "fig2": (
        ("x_max_lo", attrgetter("x_max_lo")),
        ("x_max_hi", attrgetter("x_max_hi")),
        ("x_max_hi_refined", lambda row: x_max_upper_refined(Params(row.a, row.lam, row.m))),
        ("x_max_hi_linear", lambda row: x_max_upper_linear(Params(row.a, row.lam, row.m))),
        ("x_max_sim", attrgetter("x_max")),
    ),
    "fig3": (
        ("ln_s_min_lo", attrgetter("ln_s_min_lo")),
        ("ln_s_min_hi", attrgetter("ln_s_min_hi")),
        ("ln_s_min_sim", attrgetter("ln_s_min")),
    ),
    "fig4": (
        ("ln_x_min_lo", attrgetter("ln_x_min_lo")),
        ("ln_x_min_hi", attrgetter("ln_x_min_hi")),
        ("ln_x_min_sim", attrgetter("ln_x_min")),
    ),
    "fig5": (
        ("s_max_lo", lambda row: S_MAX_LO),
        ("s_max_hi", lambda row: 1.0),
        ("s_max_sim", attrgetter("s_max")),
    ),
}
_FIGURES = tuple(_FIGURE_COLUMNS)


def figure_m_values(points: int = 50) -> tuple[float, ...]:
    """The figures' m axis: ``points`` log-spaced values in [0.01, 5].

    The k-th is 10^(lo + k step), lo = log10 0.01 and step = (log10 5 - lo)
    / (points - 1), with both ends exact: NumPy's ``geomspace`` algorithm,
    rounded by libm's ``pow`` whatever NumPy's CPU dispatch is.
    """
    n = positive_int("points", points)
    if n == 1:
        return (0.01,)
    lo = math.log10(0.01)
    step = (math.log10(5.0) - lo) / (n - 1)
    return (0.01, *(10.0 ** (lo + k * step) for k in range(1, n - 1)), 5.0)


def _check_panel(panel) -> tuple[float, float]:
    """The (a, lam) of a figure panel; ValueError naming the panel unless it
    is two finite positive numbers, or numeric strings, with a limit cycle
    (2 lam + a < 1)."""
    try:
        a, lam = (float(v) if isinstance(v, str) else v for v in panel)
    except (TypeError, ValueError):
        raise ValueError(f"panel {panel!r} must be two numbers (a, lambda)") from None
    a, lam = _positive_values(f"panel {panel!r}", (a, lam))
    require_cycle(Params(a=a, lam=lam, m=1.0), f"panel {panel!r}")
    return a, lam


def emit_figures(
    which: str,
    out_dir: Union[str, Path],
    *,
    panels: Optional[Sequence[tuple[float, float]]] = None,
    m_values: Optional[Sequence[float]] = None,
    cfg: Optional[SimConfig] = None,
    jobs: int = 1,
) -> tuple[list[Path], SweepReport]:
    """Write bound-versus-simulation curves over m as CSV files.

    ``which`` selects one of fig2 (x_max with all three upper variants),
    fig3 (ln s_min), fig4 (ln x_min), fig5 (s_max), or "all" to share the
    per-panel simulations across all four.  One file per (figure, panel),
    ``{fig}_a{a:g}_lambda{lam:g}.csv``, the 50 m of :func:`figure_m_values`
    by default, one line per m in increasing m.  Panels outside the proven
    parameter box are evaluated in forced mode.  A panel is a pair (a, lam)
    of numbers or of numeric strings (the CLI's ``A,LAMBDA`` split at the
    comma).  The panels (at least one), the m axis (a sweep axis:
    non-empty, each m a finite int or float > 0, none repeated) and
    ``jobs`` (as a :class:`SweepSpec`'s) are checked once, and
    ``out_dir`` is made, before any point is simulated; two panels whose
    file names agree (``:g`` keeps 6 significant digits) are an error, as
    a repeated m is.

    All panels' points go through the sweep's row runner in one list, in
    ``jobs`` processes as a sweep's rows (:func:`_run_rows`), so every
    column is the float the sweep CSV prints, in its format, for any job
    count, and a point that fails keeps its m and has NaN in every other
    column.  Returns the written paths and the :class:`SweepReport` of all
    the rows, panel by panel, with each failed point's reason.
    """
    if which != "all" and which not in _FIGURES:
        raise ValueError(f"unknown figure {which!r}; expected one of {_FIGURES} or 'all'")
    figures = _FIGURES if which == "all" else (which,)
    panels = [_check_panel(p) for p in (panels if panels is not None else DEFAULT_PANELS)]
    if not panels:
        raise ValueError("panels must be non-empty")
    files: dict[str, tuple[float, float]] = {}  # {name: panel}; a file is f"{fig}_{name}"
    for panel in panels:
        name = "a{:g}_lambda{:g}.csv".format(*panel)
        if name in files:  # the later panel's rows would replace the earlier's
            raise ValueError(
                f"panels {files[name]!r} and {panel!r} both write {figures[0]}_{name}"
            )
        files[name] = panel
    ms = sorted(_axis("m_values", figure_m_values() if m_values is None else m_values))
    jobs = positive_int("jobs", jobs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    points = [(a, lam, m) for a, lam in panels for m in ms]
    rows = _run_rows(points, cfg or SimConfig(), jobs)
    written: list[Path] = []
    for i, name in enumerate(files):
        panel_rows = rows[i * len(ms):(i + 1) * len(ms)]
        for fig in figures:
            names, getters = zip(*_FIGURE_COLUMNS[fig])
            lines = [",".join(("m",) + names)]
            for row in panel_rows:
                failed = row.error is not None
                values = [row.m] + [math.nan if failed else get(row) for get in getters]
                lines.append(",".join(_fmt(v) for v in values))
            path = out_dir / f"{fig}_{name}"
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
    return written, SweepReport(rows=rows)
