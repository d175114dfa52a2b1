"""The benchmark's output checks catch wrong outputs, its tracer nests spans
right, and it leaves no process running."""

import gc
import multiprocessing
from multiprocessing import resource_tracker
from pathlib import Path
from types import SimpleNamespace

import checks
import speed
import tracer as tracing

REFERENCE = (Path(__file__).resolve().parent / "reference_sweep.csv").read_text()


def _edit_row(text: str, index: int, column: str, edit) -> tuple[tuple, str]:
    lines = text.splitlines(keepends=True)
    header = lines[0].strip().split(",")
    fields = lines[index].strip().split(",")
    col = header.index(column)
    fields[col] = edit(fields[col])
    lines[index] = ",".join(fields) + "\n"
    key = tuple(float(fields[header.index(c)]) for c in checks.KEY_COLUMNS)
    return key, "".join(lines)


def test_reference_matches_itself():
    assert checks.sweep_csv_failures(REFERENCE, REFERENCE) == []


def test_perturbed_extreme_is_caught():
    key, text = _edit_row(REFERENCE, 5, "ln_x_min", lambda v: repr(float(v) + 2e-6))
    failures = checks.sweep_csv_failures(text, REFERENCE)
    assert [k for k, _ in failures] == [key]
    assert "ln_x_min" in failures[0][1]


def test_perturbation_within_the_drift_gate_passes():
    _, text = _edit_row(REFERENCE, 5, "x_max", lambda v: repr(float(v) * (1 + 1e-8)))
    assert checks.sweep_csv_failures(text, REFERENCE) == []


def test_dropped_row_is_caught():
    lines = REFERENCE.splitlines(keepends=True)
    dropped = lines.pop(17)
    header = lines[0].strip().split(",")
    key = tuple(float(dropped.split(",")[header.index(c)]) for c in checks.KEY_COLUMNS)
    assert checks.sweep_csv_failures("".join(lines), REFERENCE) == [(key, "row missing")]


def test_flipped_flag_is_caught():
    key, text = _edit_row(REFERENCE, 30, "pass", lambda v: "false")
    assert checks.sweep_csv_failures(text, REFERENCE) == [(key, "pass = false, reference true")]


def test_flipped_verdicts_are_caught():
    for case in ("A", "B"):
        assert checks.verdict_failures(case, dict(checks.EXPECTED_VERDICTS[case])) == []
    hidden_fail = dict(checks.EXPECTED_VERDICTS["B"], alpha2_peak_location=True)
    assert len(checks.verdict_failures("B", hidden_fail)) == 1
    new_fail = dict(checks.EXPECTED_VERDICTS["A"], **{"alpha_below_0.2": False})
    assert checks.verdict_failures("A", new_fail) == [
        "case A: alpha_below_0.2 is FAIL, seed verdict PASS"
    ]


def test_row_failures():
    good = SimpleNamespace(error=None, converged=True, proven=True, passed=True, min_margin=0.1)
    assert checks.sweep_row_failures(good) == []
    bad = SimpleNamespace(error="EventOrderError", converged=False, proven=True, passed=False,
                          min_margin=float("nan"))
    assert len(checks.sweep_row_failures(bad)) == 3
    forced = SimpleNamespace(error=None, converged=True, proven=False, passed=False, min_margin=-1.0)
    assert checks.sweep_row_failures(forced) == []


def test_z_sandwich_allows_roundoff_only():
    assert checks.z_sandwich_failures(20.0, 1.0 + 1e-15, 1.0, 1.0 + 1e-9, 1.0 + 2e-9) == []
    assert len(checks.z_sandwich_failures(20.0, 1.0 + 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 2e-9)) == 1


def test_tracer_recovers_nesting_and_self_time():
    t = tracing.Tracer()

    def leaf():
        return 1

    traced_leaf = t.span(leaf, "leaf", "leaf")

    def parent():
        return traced_leaf() + traced_leaf()

    traced_parent = t.span(parent, "parent", "parent")
    assert traced_parent() + traced_parent() == 4
    assert t._parents() == [2, 2, -1, 5, 5, -1]
    table = t.layer_times()
    assert table["leaf"]["calls"] == 4 and table["parent"]["calls"] == 2
    assert t.counts() == {"leaf": 4, "parent": 2}
    assert table["parent"]["self_s"] <= table["parent"]["total_s"]


def test_speed_scale_ignores_one_disturbed_sample():
    steady = [speed.REFERENCE_S * 2] * 5
    assert speed.scale(steady) == 0.5
    assert speed.scale(steady + [speed.REFERENCE_S * 40]) == 0.5


def test_no_process_outlives_the_benchmark():
    speed.parallel_samples(2)
    assert multiprocessing.active_children() == []
    barrier = multiprocessing.get_context("spawn").Barrier(2)  # starts the resource tracker
    del barrier
    gc.collect()
    speed.stop_child_processes()
    assert resource_tracker._resource_tracker._pid is None
