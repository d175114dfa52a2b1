"""Output checks of the benchmark workloads.

Every check returns its failures (none when the output is correct) as
reasons, or as (grid point, reason) pairs for a whole sweep CSV, so the
caller can charge each to the operation that produced it and count it
against the operations attempted.
"""

from __future__ import annotations

import csv
import io
import math
import sys

# ROADMAP drift gate: simulated extremes may move by less than this in
# log units before a change counts as changing the numbers
LOG_TOL = 1e-6

# z_exact goes through a log-space root whose absolute error is about
# y * eps, so it is only known to a relative 16 * eps * y; the closed
# forms z1 <= z_exact <= z2 are allowed that much roundoff and no more
_Z_ROUNDOFF = 16.0 * sys.float_info.epsilon

KEY_COLUMNS = ("a", "lambda", "m")
FLAG_COLUMNS = ("proven", "converged", "pass")
# compared in log units; the linear-space columns are logged first
LOG_COLUMNS = (
    "x_max_lo", "x_max", "x_max_hi", "ln_x_min_lo", "ln_x_min", "ln_x_min_hi",
    "ln_s_min_lo", "ln_s_min", "ln_s_min_hi", "s_max",
)
_LINEAR = {"x_max_lo", "x_max", "x_max_hi", "s_max"}

PROOF_CHECK_NAMES = (
    "barrier_c0_negative",
    "barrier_c0_plus_c1_nonpositive",
    "gain_quadratic_negative_at_lam",
    "gain_quadratic_positive_at_one",
    "alpha_below_0.2",
    "handoff_envelope_cap",
    "cap_bound_monotone_in_a_and_lam",
    "alpha2_peak_location",
)
# proof_spotchecks verdicts at the seed: case B's alpha2 peak sits at
# m = 3.0314, not the documented 3.06 +/- 0.02 (a known, expected FAIL)
EXPECTED_VERDICTS = {
    "A": {name: True for name in PROOF_CHECK_NAMES},
    "B": {name: name != "alpha2_peak_location" for name in PROOF_CHECK_NAMES},
}


def _log_value(column: str, text: str) -> float:
    value = float(text)
    return math.log(value) if column in _LINEAR else value


def _rows_by_key(text: str) -> dict[tuple[float, ...], dict[str, str]]:
    return {
        tuple(float(row[c]) for c in KEY_COLUMNS): row
        for row in csv.DictReader(io.StringIO(text))
    }


def sweep_csv_failures(
    text: str, reference: str, tol: float = LOG_TOL
) -> list[tuple[tuple[float, ...], str]]:
    """Compare a sweep CSV with the reference, row by row, keyed on (a, lambda, m).

    Returns (key, reason) pairs.  Catches dropped and extra rows,
    flipped flags, and any bound or extreme that moved by more than
    ``tol`` in log units.
    """
    got = _rows_by_key(text)
    want = _rows_by_key(reference)
    failures = [(key, "row missing") for key in want if key not in got]
    failures += [(key, "row not in the reference") for key in got if key not in want]
    for key in sorted(want.keys() & got.keys()):
        row, ref = got[key], want[key]
        for column in FLAG_COLUMNS:
            if row[column] != ref[column]:
                failures.append((key, f"{column} = {row[column]}, reference {ref[column]}"))
        for column in LOG_COLUMNS:
            try:
                diff = abs(_log_value(column, row[column]) - _log_value(column, ref[column]))
            except ValueError as exc:
                failures.append((key, f"{column} = {row[column]!r} ({exc})"))
                continue
            if not diff <= tol:
                failures.append((key, f"{column} off the reference by {diff:.3g} in log units"))
    return failures


def sweep_row_failures(row) -> list[str]:
    """Failures a single :class:`SweepRow` reports about itself."""
    reasons = []
    if row.error is not None:
        reasons.append(f"row error: {row.error}")
    if not row.converged:
        reasons.append("return map did not converge")
    if row.proven and not row.passed:
        reasons.append(f"proven row fails the bound sandwich (min margin {row.min_margin:.3g})")
    return reasons


def extremes_failures(row, ref, tol: float = LOG_TOL) -> list[str]:
    """Compare a sweep row's extremes with a tighter-tolerance CycleExtremes."""
    pairs = (
        ("ln x_max", math.log(row.x_max), math.log(ref.x_max)),
        ("ln x_min", row.ln_x_min, ref.ln_x_min),
        ("ln s_min", row.ln_s_min, ref.ln_s_min),
        ("ln s_max", math.log(row.s_max), ref.ln_s_max),
    )
    return [
        f"{name} off the tight-tolerance reference by {abs(got - want):.3g}"
        for name, got, want in pairs
        if not abs(got - want) <= tol
    ]


def bound_set_failures(bounds, canard) -> list[str]:
    """The closed forms must be finite and each interval ordered."""
    reasons = []
    values = {**bounds.as_dict(), **canard.as_dict()}
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            reasons.append(f"{name} = {value!r} is not finite")
    for lo, hi in (
        ("x_max_lo", "x_max_hi"),
        ("ln_x_min_lo", "ln_x_min_hi"),
        ("ln_s_min_lo", "ln_s_min_hi"),
        ("s_max_lo", "s_max_hi"),
    ):
        if not values[lo] <= values[hi]:
            reasons.append(f"{lo} = {values[lo]!r} exceeds {hi} = {values[hi]!r}")
    return reasons


def z_sandwich_failures(y: float, z1: float, z_exact: float, z2: float, z0: float) -> list[str]:
    """z1 <= z_exact <= z2 <= z0 at y, with z_exact's roundoff allowed."""
    slack = _Z_ROUNDOFF * max(1.0, y) * z_exact
    reasons = []
    if not z1 <= z_exact + slack:
        reasons.append(f"z1 = {z1!r} above z_exact = {z_exact!r} at y = {y!r}")
    if not z_exact <= z2 + slack:
        reasons.append(f"z_exact = {z_exact!r} above z2 = {z2!r} at y = {y!r}")
    if not z2 <= z0:
        reasons.append(f"z2 = {z2!r} above z0 = {z0!r} at y = {y!r}")
    return reasons


def verdict_failures(case: str, verdicts: dict[str, bool]) -> list[str]:
    """proof_spotchecks verdicts must match the seed's, expected FAILs included."""
    expected = EXPECTED_VERDICTS[case]
    reasons = [
        f"case {case}: check {name} missing" for name in expected if name not in verdicts
    ]
    reasons += [
        f"case {case}: unexpected check {name}" for name in verdicts if name not in expected
    ]
    for name, want in expected.items():
        if name in verdicts and verdicts[name] != want:
            got = "PASS" if verdicts[name] else "FAIL"
            reasons.append(f"case {case}: {name} is {got}, seed verdict {'PASS' if want else 'FAIL'}")
    return reasons
