import dataclasses
import io
import json
import math
import multiprocessing
import os
import re
import sys
import threading
import time
from multiprocessing import resource_tracker
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import iv

from cyclebound import _arith, harness
from cyclebound.harness import (
    CSV_HEADER,
    SweepSpec,
    emit_figures,
    figure_m_values,
    proof_spotchecks,
    run_sweep,
    x_max_barrier_coefficients,
)
from cyclebound.model import Params
from cyclebound import region4
from cyclebound.region4 import Case, growth_ratio_quadratic, handoff_cap_envelope
from cyclebound.simulator import SimConfig, cycle_extreme_report

FAST_SIM = SimConfig(rtol=1e-8, cycle_tol=1e-7)


def test_barrier_coefficients_examples():
    c0, cc = x_max_barrier_coefficients(Params(a=0.0, lam=0.0, m=1.0, limit=True))
    assert c0 == pytest.approx(-2.0)
    assert cc == 0.0
    c0, cc = x_max_barrier_coefficients(Params(a=0.05, lam=0.05, m=1.0))
    assert c0 < 0 and cc < 0
    # independent arithmetic at one point
    a, lam, m = 0.05, 0.05, 1.0
    c = -m * lam * (3 + 5 * a + a * a) - 1 - m - a
    expect = (
        -(m**3) * lam * (lam**2 - 5 * lam + 4)
        + m**2 * lam * ((2 * a + 6) * lam - 8 - 4 * a)
        + c
    )
    assert c0 == pytest.approx(expect, rel=1e-14)


def test_barrier_coefficients_sign_on_small_grid():
    for a in np.linspace(0.02, 0.5, 8):
        for lam in np.linspace(0.0, 0.95, 8):
            for m in np.linspace(0.1, 10.0, 8):
                c0, cc = x_max_barrier_coefficients(
                    Params(a=float(a), lam=float(lam), m=float(m), limit=True)
                )
                assert c0 < 0
                assert cc <= 0


def barrier_c0_terms(a, lam, m):
    """C0's four terms in factored form, each <= 0 for a >= 0, 0 <= lam <= 1,
    m >= 0; on floats or on mpmath intervals."""
    return (
        -(m**3) * lam * (1 - lam) * (4 - lam),
        -(m**2) * lam * ((2 * a + 6) * (1 - lam) + 2 + 2 * a),
        -m * lam * (3 + 5 * a + a * a),
        -1 - m - a,
    )


def test_barrier_terms_certified_nonpositive_on_the_box():
    # every term's enclosure over the whole box (lam up to 1 inclusive) has
    # upper end <= 0, so C0 <= -1 - m - a: the certificate behind evaluating
    # the barrier rows at the box corner (a_lo, 0, m_lo)
    a, lam, m = (iv.mpf(list(bounds)) for bounds in harness._BARRIER_BOX)
    terms = barrier_c0_terms(a, lam, m)
    assert all(term.b <= 0 for term in terms)
    assert terms[-1].b < 0
    for a in np.linspace(0.02, 0.5, 8):
        for lam in np.linspace(0.0, 0.95, 8):
            for m in np.linspace(0.1, 10.0, 8):
                p = Params(a=float(a), lam=float(lam), m=float(m), limit=True)
                c0, _ = x_max_barrier_coefficients(p)
                assert math.fsum(barrier_c0_terms(p.a, p.lam, p.m)) == pytest.approx(
                    c0, rel=1e-14
                )


def test_barrier_factor_certified_on_the_box():
    # F = a + 2 + m (2 - lam) has positive partials in a and m and a
    # negative one in lam over the box's closure, so -F^2 is largest at
    # (a_lo, 1, m_lo); the coefficients give -F^2 = (C0 + C1) / (m lam)
    _, lam_box, m_box = (iv.mpf(list(bounds)) for bounds in harness._BARRIER_BOX)
    # dF/da = 1, dF/dm = 2 - lam, dF/dlam = -m
    assert (2 - lam_box).a > 0 and m_box.a > 0
    for a in np.linspace(0.02, 0.5, 8):
        for lam in np.linspace(0.1, 1.0, 8):
            for m in np.linspace(0.1, 10.0, 8):
                p = Params(a=float(a), lam=float(lam), m=float(m), limit=True)
                _, cc = x_max_barrier_coefficients(p)
                assert cc / (p.m * p.lam) == pytest.approx(
                    -((p.a + 2 + p.m * (2 - p.lam)) ** 2), rel=1e-14
                )


def test_barrier_scan_matches_proofcheck_corner():
    # a strict-max scan over a coarse grid that shares the barrier box's
    # lower corner finds the point and the value of each barrier row: C0 on
    # lam in [0, 1), and -F^2 = (C0 + C1) / (m lam) on lam in (0, 1]
    worst = [(-math.inf, ()), (-math.inf, ())]
    for a in np.linspace(0.0025, 0.5, 9):
        for k, lams in enumerate((np.linspace(0.0, 1.0, 8, endpoint=False),
                                  np.linspace(0.125, 1.0, 8))):
            for lam in lams:
                for m in np.linspace(0.05, 10.0, 9):
                    p = Params(a=float(a), lam=float(lam), m=float(m), limit=True)
                    c0, cc = x_max_barrier_coefficients(p)
                    value = cc / (p.m * p.lam) if k else c0
                    if value > worst[k][0]:
                        worst[k] = (value, (p.a, p.lam, p.m))
    for case in Case:
        report = {c.name: c for c in proof_spotchecks(case).checks}
        checks = [report["barrier_c0_negative"], report["barrier_c0_plus_c1_nonpositive"]]
        assert [(c.worst_value, c.worst_arg) for c in checks] == worst
        for check in checks:
            assert type(check.worst_value) is float
            assert all(type(v) is float for v in check.worst_arg)


def gain_partials(a, lam, m, k):
    """Partial derivatives in (a, lam, m) of G*(lam) = (k/m) lam (2 lam + a - 1)
    and of G*(1) = (k/m)(1 + a) + 1 - lam; on floats or on mpmath intervals."""
    return {
        "lam": (k / m * lam, k / m * (4 * lam + a - 1), -k / m**2 * lam * (2 * lam + a - 1)),
        "one": (k / m, 0 * lam - 1, -k / m**2 * (1 + a)),
    }


# the signs the gain rows' corners rely on: G*(lam) increases in a and m and
# decreases in lam, G*(1) increases in a and decreases in lam and m
GAIN_SIGNS = {"lam": (1, -1, 1), "one": (1, -1, -1)}


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_gain_quadratic_corners_certified_on_the_case_box(case):
    box = harness._GAIN_BOX[case]
    (a_lo, a_hi), (lam_lo, lam_hi), (m_lo, m_hi) = box
    for a in np.linspace(a_lo, a_hi, 5):
        for lam in np.linspace(lam_lo, lam_hi, 5):
            for m in np.geomspace(m_lo, m_hi, 5):
                p = Params(a=float(a), lam=float(lam), m=float(m))
                factored = case.k / p.m * p.lam * (2 * p.lam + p.a - 1)
                assert growth_ratio_quadratic(p.lam, p, case) == pytest.approx(
                    factored, rel=1e-12
                )
    # the hand-written partials match central differences of the code at
    # the box centre, and their enclosures over the box have fixed signs
    centre = [0.5 * (lo + hi) for lo, hi in box]
    partials = gain_partials(*centre, case.k)
    for s in ("lam", "one"):
        for i in range(3):
            step = 1e-6 * centre[i]
            point = [list(centre), list(centre)]
            point[0][i] += step
            point[1][i] -= step
            g = [growth_ratio_quadratic(x[1] if s == "lam" else 1.0, Params(*x), case)
                 for x in point]
            assert (g[0] - g[1]) / (2 * step) == pytest.approx(partials[s][i], rel=1e-6)
    enclosures = gain_partials(*(iv.mpf(list(bounds)) for bounds in box), case.k)
    for s, signs in GAIN_SIGNS.items():
        for d, sign in zip(enclosures[s], signs):
            assert (d.a > 0) if sign > 0 else (d.b < 0), (s, d)


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_gain_quadratic_grid_matches_scalar_scan(case):
    # the full grid the certified corners stand for, one array call per
    # side; argmax and argmin keep the first worst point in (a, lam, m)
    # loop order, as a scan of the scalar definition by strict comparison
    # does, and that definition gives the array's value there bit for bit
    a_max, lam_max = case.a_max, case.lam_max
    a, lam, m = (
        axis.ravel()
        for axis in np.meshgrid(
            np.linspace(a_max / 40, a_max, 40),
            np.linspace(lam_max / 40, lam_max, 40),
            np.geomspace(1e-3, 50, 60),
            indexing="ij",
        )
    )
    grid = SimpleNamespace(a=a, lam=lam, m=m)
    g_lam = growth_ratio_quadratic(lam, grid, case)
    g_one = growth_ratio_quadratic(1.0, grid, case)
    worst = []
    for values, i in ((g_lam, g_lam.argmax()), (g_one, g_one.argmin())):
        p = SimpleNamespace(a=float(a[i]), lam=float(lam[i]), m=float(m[i]))
        scalar = growth_ratio_quadratic(p.lam if values is g_lam else 1.0, p, case)
        assert repr(scalar) == repr(float(values[i]))
        worst.append((scalar, (p.a, p.lam, p.m)))
    report = {c.name: c for c in proof_spotchecks(case).checks}
    checks = [report["gain_quadratic_negative_at_lam"], report["gain_quadratic_positive_at_one"]]
    assert [(c.worst_value, c.worst_arg) for c in checks] == worst
    for check in checks:
        assert type(check.worst_value) is float
        assert all(type(v) is float for v in check.worst_arg)


def test_v2_rate_vanishes_on_predator_isocline():
    # d/dt of m (s - lam ln s) + x equals m (s - lam) h(s), zero at s = lam
    p = Params(a=0.05, lam=0.05, m=2.0)
    s = p.lam
    assert p.m * (s - p.lam) * (1 - s) * (s + p.a) == 0.0


def tiny_spec(jobs: int = 1) -> SweepSpec:
    return SweepSpec(
        a_values=(0.05, 0.02),
        lambda_values=(0.05,),
        m_values=(1.0, 0.3),
        sim=FAST_SIM,
        jobs=jobs,
    )


def test_sweep_rows_and_csv_layout(tmp_path):
    report = run_sweep(tiny_spec())
    assert len(report.rows) == 4
    # sorted by (a, lambda, m)
    keys = [(r.a, r.lam, r.m) for r in report.rows]
    assert keys == sorted(keys)
    assert all(r.passed and r.converged and r.error is None for r in report.rows)
    out = tmp_path / "report.csv"
    report.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert len(first) == 17
    # floats are written with 17 significant digits and round-trip
    assert float(first[4]) == report.rows[0].x_max_lo
    assert first[3] == "true" and first[-1] == "true"


def test_csv_header_is_the_documented_one():
    assert CSV_HEADER == (
        "a,lambda,m,proven,x_max_lo,x_max,x_max_hi,ln_x_min_lo,ln_x_min,ln_x_min_hi,"
        "ln_s_min_lo,ln_s_min,ln_s_min_hi,s_max,converged,min_margin,pass"
    )


def test_sweep_is_deterministic_across_jobs():
    # rows of very different cost (m = 0.01 next to m = 5) finish out of order
    spec = SweepSpec(
        a_values=(0.05, 0.01), lambda_values=(0.01,), m_values=(0.01, 5.0), sim=FAST_SIM
    )
    texts = []
    for jobs in (1, 2, 3):
        buf = io.StringIO()
        run_sweep(dataclasses.replace(spec, jobs=jobs)).to_csv(buf)
        texts.append(buf.getvalue())
    assert texts[1] == texts[0] and texts[2] == texts[0]
    assert multiprocessing.active_children() == []


def test_sweep_starts_at_most_one_worker_per_row(monkeypatch, tmp_path):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    row_task, threads = harness._row_task, threading.active_count()

    def recording_row_task(task):
        (tmp_path / str(os.getpid())).touch()  # one file per process that computes a row
        assert threading.active_count() == threads  # and none of them starts a thread
        return row_task(task)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(harness, "_row_task", recording_row_task)
    spec = SweepSpec(
        a_values=(0.05,), lambda_values=(0.05,), m_values=(1.0, 0.3), sim=FAST_SIM, jobs=3
    )
    report = run_sweep(spec)
    # two rows: the caller and one forked worker at most
    assert len(forks) == 1 and len(list(tmp_path.iterdir())) <= 2
    assert report == run_sweep(dataclasses.replace(spec, jobs=1))
    for pid_file in tmp_path.iterdir():
        pid_file.unlink()
    run_sweep(dataclasses.replace(spec, m_values=(1.0,)))  # one row: forks nothing
    assert len(forks) == 1
    assert [f.name for f in tmp_path.iterdir()] == [str(os.getpid())]
    # by default the figures run every panel's points at one job: no fork, one row each
    points = []
    monkeypatch.setattr(harness, "_row_task", lambda task: points.append(task) or row_task(task))
    panels = [(0.05, 0.05), (0.1, 0.01)]
    paths, report = emit_figures("fig5", tmp_path / "figs", panels=panels, m_values=[1.0, 0.3],
                                 cfg=FAST_SIM)
    assert len(forks) == 1
    assert points == [(a, lam, m, FAST_SIM) for a, lam in panels for m in (0.3, 1.0)]
    # and each panel's file holds that panel's rows
    for path, (a, lam) in zip(paths, panels):
        want = [(row.m, row.s_max) for row in report.rows if (row.a, row.lam) == (a, lam)]
        lines = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [(float(line[0]), float(line[-1])) for line in lines] == want


def _wait_for(path):
    deadline = time.monotonic() + 30
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.01)


def _split_rows(monkeypatch, tmp_path, in_worker, in_caller):
    """Run ``in_worker`` for a row a forked worker takes and ``in_caller``
    for the caller's rows, which start only once a worker has taken a row.

    Returns the two runs that fork, each at jobs=2: a sweep and a
    two-panel figure emit.
    """
    caller, marker = os.getpid(), tmp_path / "worker-took-a-row"
    report = harness.cycle_extreme_report

    def row(p, cfg):
        if os.getpid() != caller:
            marker.touch()
            return in_worker(p)
        _wait_for(marker)
        return in_caller(p) if in_caller else report(p, cfg)

    monkeypatch.setattr(harness, "cycle_extreme_report", row)
    spec = SweepSpec(
        a_values=(0.05,), lambda_values=(0.05,), m_values=(1.0, 0.3), sim=FAST_SIM, jobs=2
    )

    def sweep():
        marker.unlink(missing_ok=True)
        run_sweep(spec)

    def figures():
        marker.unlink(missing_ok=True)
        emit_figures("fig5", tmp_path / "figs", panels=[(0.05, 0.05), (0.1, 0.01)],
                     m_values=[1.0], cfg=FAST_SIM, jobs=2)

    return sweep, figures


def _no_helper_outlives(check):
    tracker = resource_tracker._resource_tracker._pid
    t0 = time.monotonic()
    check()
    assert time.monotonic() - t0 < 10
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid == tracker  # fork starts no tracker


def test_a_worker_error_reaches_the_caller(monkeypatch, tmp_path):
    def fail(p):
        raise ValueError(f"no bounds at m = {p.m}")

    for run in _split_rows(monkeypatch, tmp_path, fail, None):

        def check():
            with pytest.raises(ValueError, match=r"^no bounds at m = (1\.0|0\.3)$"):
                run()

        _no_helper_outlives(check)


def test_a_worker_that_dies_is_named_with_its_exit_code(monkeypatch, tmp_path):
    for run in _split_rows(monkeypatch, tmp_path, lambda p: os._exit(3), None):

        def check():
            with pytest.raises(ChildProcessError, match=r"^sweep worker \d+ exited with code 3 "):
                run()

        _no_helper_outlives(check)


def test_an_error_in_the_callers_row_stops_the_workers(monkeypatch, tmp_path):
    def fail(p):
        raise ValueError("the caller's row failed")

    # the worker would compute for a minute: the caller stops it
    for run in _split_rows(monkeypatch, tmp_path, lambda p: time.sleep(60), fail):

        def check():
            with pytest.raises(ValueError, match="^the caller's row failed$"):
                run()

        _no_helper_outlives(check)


def test_sweep_flags_unproven_rows():
    spec = SweepSpec(
        a_values=(0.1,), lambda_values=(0.1,), m_values=(1.0,), sim=FAST_SIM
    )
    report = run_sweep(spec)
    (row,) = report.rows
    assert not row.proven
    assert row.converged


def test_sweep_row_matches_cycle_report():
    p = Params(a=0.05, lam=0.05, m=1.0)
    spec = SweepSpec(a_values=(p.a,), lambda_values=(p.lam,), m_values=(p.m,), sim=FAST_SIM)
    (row,) = run_sweep(spec).rows
    report = cycle_extreme_report(p, FAST_SIM)
    b, ce = report.bounds, report.extremes
    assert (row.x_max_lo, row.x_max, row.x_max_hi) == (b.x_max_lo, ce.x_max, b.x_max_hi)
    assert (row.ln_x_min_lo, row.ln_x_min, row.ln_x_min_hi) == (
        b.ln_x_min_lo, ce.ln_x_min, b.ln_x_min_hi
    )
    assert (row.ln_s_min_lo, row.ln_s_min, row.ln_s_min_hi) == (
        b.ln_s_min_lo, ce.ln_s_min, b.ln_s_min_hi
    )
    assert (row.s_max, row.min_margin) == (ce.s_max, report.min_margin)
    assert (row.a, row.lam, row.m, row.error) == (p.a, p.lam, p.m, None)
    assert row.passed and row.proven and row.converged
    assert row.x_max_lo < row.x_max < row.x_max_hi
    assert row.ln_x_min_lo < row.ln_x_min < row.ln_x_min_hi
    assert row.ln_s_min_lo < row.ln_s_min < row.ln_s_min_hi
    assert 0.8 < row.s_max < 1.0
    assert row.min_margin > 0
    assert len(row.csv_line().split(",")) == 17


def test_sweep_spec_validation_and_json():
    with pytest.raises(ValueError):
        SweepSpec(a_values=(), lambda_values=(0.05,), m_values=(1.0,))
    with pytest.raises(ValueError):
        SweepSpec(a_values=(0.05,), lambda_values=(0.05,), m_values=(1.0,), jobs=0)
    # 2.5 used to fail inside the worker pool, and True to run serially
    for jobs in (2.5, True):
        with pytest.raises(ValueError, match=f"^jobs must be an integer, got {jobs!r}$"):
            SweepSpec(a_values=(0.05,), lambda_values=(0.05,), m_values=(1.0, 2.0), jobs=jobs)
    spec = SweepSpec.from_json(
        json.loads(
            '{"a_values": [0.05], "lambda_values": [0.02, 0.01], '
            '"m_values": [1.0], "jobs": 3, "sim": {"rtol": 1e-9}}'
        )
    )
    assert spec.jobs == 3 and spec.sim.rtol == 1e-9
    assert spec.grid()[0] == (0.05, 0.01, 1.0)
    # the x_max anchor is a constant of the proof, not a spec key
    record = {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0], "s0": 0.75}
    with pytest.raises(ValueError, match=re.escape("unknown keys ['s0']")):
        SweepSpec.from_json(record)


def test_sweep_spec_json_takes_integers_as_numbers():
    # a JSON number may be written without a fraction; the type rules
    # reject only what is not a number (a bool included)
    record = {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0], "jobs": 2,
              "sim": {"rtol": 1e-9, "cycle_tol": 1}}
    spec = SweepSpec.from_json(record)
    assert spec.jobs == 2 and spec.sim == SimConfig(rtol=1e-9, cycle_tol=1.0)
    spec = SweepSpec.from_json({"a_values": [0.05], "lambda_values": [0.05], "m_values": [1, 2]})
    assert spec.m_values == (1.0, 2.0) and all(type(m) is float for m in spec.m_values)


def test_sweep_spec_axes_take_only_json_numbers():
    # float() would read the string "1e0" and the bool true as 1.0, so
    # this record used to pass as m = (1.0, 1.0), a grid of repeated rows
    record = {"a_values": ["0.05"], "lambda_values": [0.05], "m_values": ["1e0", True]}
    with pytest.raises(ValueError, match="a_values must be a finite int or float, got '0.05'"):
        SweepSpec.from_json(record)
    for m_values, bad in ((["1e0"], "'1e0'"), ([1.0, True], "True"), ([False], "False")):
        record = {"a_values": [0.05], "lambda_values": [0.05], "m_values": m_values}
        message = f"m_values must be a finite int or float, got {bad}$"
        with pytest.raises(ValueError, match=message):
            SweepSpec.from_json(record)
    # a spec built directly takes numbers only too, NumPy floats included
    axes = {"a_values": (0.05,), "lambda_values": (0.05,), "m_values": (1.0,)}
    for axis in axes:
        for bad in (True, "2"):
            message = re.escape(f"{axis} must be a finite int or float, got {bad!r}")
            with pytest.raises(ValueError, match=message):
                SweepSpec(**{**axes, axis: (1e-3, bad)})
    spec = SweepSpec(**{**axes, "m_values": figure_m_values(2)})
    assert spec.m_values == (0.01, 5.0) and all(type(m) is float for m in spec.m_values)


@pytest.mark.parametrize("axis", ["a_values", "lambda_values", "m_values"])
def test_sweep_spec_axes_reject_repeated_values(axis):
    axes = {"a_values": [0.05, 0.02], "lambda_values": [0.05, 0.01], "m_values": [1.0, 0.3]}
    repeated = {**axes, axis: axes[axis] + axes[axis][:1]}
    message = re.escape(f"{axis} must not repeat a value, got ({axes[axis][0]!r}, ")
    with pytest.raises(ValueError, match=message):
        SweepSpec.from_json(repeated)
    with pytest.raises(ValueError, match=message):
        SweepSpec(**{name: tuple(values) for name, values in repeated.items()})


def envelope_branch(coefficients, m):
    """One branch (c0 + c1 m) e^{c2 m + c3} of the hand-off envelope, on
    mpmath intervals."""
    c0, c1, c2, c3 = coefficients
    return (c0 + c1 * m) * iv.exp(c2 * m + c3)


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_handoff_envelope_row_certified_at_its_branch_ends(case):
    # the derivative of a branch has the sign of c1 + c2 (c0 + c1 m): the
    # low branch increases (c0, c1, c2 > 0); on the high branch c2 < 0 < c1,
    # so that sign falls with m and is negative at the switch already
    low, high = ([iv.mpf(c) for c in branch] for branch in region4._ENVELOPE[case])
    assert all(c.a > 0 for c in low[:3])
    c0, c1, c2, _ = high
    assert c2.b < 0 < c1.a
    m = iv.mpf(0.3)
    assert (c1 + c2 * (c0 + c1 * m)).b < 0
    assert envelope_branch(high, m).b < envelope_branch(low, m).a
    # so the maximum is the low branch's end, m = 0.3, where a 4001-point
    # scan over [0, 20] plus both branch ends finds it too
    check = {c.name: c for c in proof_spotchecks(case).checks}["handoff_envelope_cap"]
    grid = np.linspace(0.0, 20.0, 4001).tolist() + [0.3, math.nextafter(0.3, 1.0)]
    scan = max(((handoff_cap_envelope(m, case), (m,)) for m in grid), key=lambda t: t[0])
    assert (check.worst_value, check.worst_arg) == scan == (
        handoff_cap_envelope(0.3, case), (0.3,)
    )


def test_proof_spotchecks_case_a():
    report = proof_spotchecks(Case.A)
    names = [c.name for c in report.checks]
    assert names == [
        "barrier_c0_negative",
        "barrier_c0_plus_c1_nonpositive",
        "gain_quadratic_negative_at_lam",
        "gain_quadratic_positive_at_one",
        "alpha_below_0.2",
        "handoff_envelope_cap",
        "cap_bound_monotone_in_a_and_lam",
        "alpha2_peak_location",
    ]
    assert report.all_passed
    checks = {c.name: c for c in report.checks}
    assert checks["alpha2_peak_location"].worst_value == pytest.approx(4.109, abs=5e-3)
    assert checks["alpha_below_0.2"].margin > 0
    for check in report.checks:
        assert math.isfinite(check.margin)
        assert check.worst_arg, check.name
        assert isinstance(check.line(), str)


def test_proof_spotchecks_case_b():
    report = proof_spotchecks(Case.B)
    # alpha2's peak is extremely flat (ln alpha2 moves ~3e-6 across
    # m in [3.0, 3.1]); the computed stationary point sits at 3.0314,
    # outside the 3.06 +/- 0.02 window this check pins, so it is the
    # one check reported off the mark for case B
    for check in report.checks:
        if check.name == "alpha2_peak_location":
            assert not check.passed
            assert check.worst_value == pytest.approx(3.0314, abs=5e-3)
        else:
            assert check.passed, check.name


# the sampled proofcheck lines, worst values and args included; a refactor
# of the checks must reproduce them byte for byte
PROOFCHECK_LINES = {
    Case.A: [
        '[ok ] barrier_c0_negative: margin=1.0525 worst=-1.0525 at (0.0025, 0.0, 0.05)',
        '[ok ] barrier_c0_plus_c1_nonpositive: margin=4.21276 worst=-4.21276 at (0.0025, 1.0, 0.05)',
        '[ok ] gain_quadratic_negative_at_lam: margin=1.77656e-05 worst=-1.77656e-05 at (0.05, 0.00125, 50.0)',
        '[ok ] gain_quadratic_positive_at_one: margin=0.965019 worst=0.965019 at (0.00125, 0.05, 50.0)',
        '[ok ] alpha_below_0.2: margin=0.0515704 worst=0.14843 at (0.9455847155027068,)',
        '[ok ] handoff_envelope_cap: margin=0.00542275 worst=0.0445772 at (0.3,)',
        "[ok ] cap_bound_monotone_in_a_and_lam: margin=28.678 worst=28.678 at (0.05, 0.05, 0.01, 'lam')",
        '[ok ] alpha2_peak_location: margin=0.018949 worst=4.10895 at (4.11,)',
    ],
    Case.B: [
        '[ok ] barrier_c0_negative: margin=1.0525 worst=-1.0525 at (0.0025, 0.0, 0.05)',
        '[ok ] barrier_c0_plus_c1_nonpositive: margin=4.21276 worst=-4.21276 at (0.0025, 1.0, 0.05)',
        '[ok ] gain_quadratic_negative_at_lam: margin=2.99833e-06 worst=-2.99833e-06 at (0.1, 0.00025, 50.0)',
        '[ok ] gain_quadratic_positive_at_one: margin=1.00337 worst=1.00337 at (0.0025, 0.01, 50.0)',
        '[ok ] alpha_below_0.2: margin=0.0109971 worst=0.189003 at (0.3,)',
        '[ok ] handoff_envelope_cap: margin=0.00698892 worst=0.0730111 at (0.3,)',
        "[ok ] cap_bound_monotone_in_a_and_lam: margin=23.9578 worst=23.9578 at (0.1, 0.01, 0.01, 'lam')",
        '[FAIL] alpha2_peak_location: margin=-0.00858652 worst=3.03141 at (3.06,)',
    ],
}


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_proof_spotcheck_lines_are_pinned(case):
    assert proof_spotchecks(case).lines() == PROOFCHECK_LINES[case]


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_proof_spotchecks_call_counts(monkeypatch, case):
    # the benchmark's tracer hooks these names in harness and reports
    # calls per proofcheck; each must still be resolved there, as often
    expected = {
        "growth_ratio_quadratic": 2,
        "alpha_factors": 1,
        "handoff_cap_envelope": 2,
        "handoff_cap_bound": 0,
        "handoff_cap_bound_ln": 2,
        "alpha2_peak": 1,
    }
    calls = dict.fromkeys(expected, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in expected:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    proof_spotchecks(case)
    assert calls == expected


# one mutation of what each proof row guards, as (row, mutation, harness
# name, the mutated function built from the real one); each must fail its row
PROOF_ROW_MUTATIONS = [
    ("barrier_c0_negative", "C0 with +1 + m + a for its constant -1 - m - a",
     "x_max_barrier_coefficients",
     lambda real: lambda p: (real(p)[0] + 2 * (1 + p.m + p.a), real(p)[1])),
    ("barrier_c0_plus_c1_nonpositive", "C0 + C1 with its sign flipped",
     "x_max_barrier_coefficients", lambda real: lambda p: (real(p)[0], -real(p)[1])),
    ("gain_quadratic_negative_at_lam", "G* without its -lam term",
     "growth_ratio_quadratic", lambda real: lambda s, p, case: real(s, p, case) + p.lam),
    ("gain_quadratic_positive_at_one", "G* with its sign flipped",
     "growth_ratio_quadratic", lambda real: lambda s, p, case: -real(s, p, case)),
    ("alpha_below_0.2", "alpha doubled", "alpha_factors",
     lambda real: lambda m, case: real(m, case)._replace(alpha=2 * real(m, case).alpha)),
    ("handoff_envelope_cap", "the envelope doubled", "handoff_cap_envelope",
     lambda real: lambda m, case: 2 * real(m, case)),
    ("cap_bound_monotone_in_a_and_lam", "ln of the cap negated: the cap falls in a and lam",
     "handoff_cap_bound_ln", lambda real: lambda p, case: -real(p, case)),
    ("alpha2_peak_location", "alpha2 peaking 0.03 further out", "alpha2_peak",
     lambda real: lambda case: real(case) + 0.03),
]


@pytest.mark.parametrize(
    "case, row, name, mutate",
    [
        pytest.param(case, row, name, mutate, id=f"{case.value}-{mutation}")
        for case in Case
        for row, mutation, name, mutate in PROOF_ROW_MUTATIONS
        # case B's peak location fails unmutated (test_proof_spotchecks_case_b)
        if (case, row) != (Case.B, "alpha2_peak_location")
    ],
)
def test_each_proof_row_fails_under_a_mutation_of_what_it_guards(
    monkeypatch, case, row, name, mutate
):
    def verdict():
        return {c.name: c.passed for c in proof_spotchecks(case).checks}[row]

    assert verdict()
    monkeypatch.setattr(harness, name, mutate(getattr(harness, name)))
    assert not verdict()


def _swapped(real):
    return lambda p, case: real(SimpleNamespace(a=p.lam, lam=p.a, m=p.m), case)


def _a_mirrored(real):
    # a -> 2e-3 + a_max - a maps the slope grid's a axis onto itself
    # reversed, so every a slope changes sign
    return lambda p, case: real(SimpleNamespace(a=2e-3 + case.a_max - p.a, lam=p.lam, m=p.m), case)


def _lam_mirrored(real):
    return lambda p, case: real(
        SimpleNamespace(a=p.a, lam=2e-3 + case.lam_max - p.lam, m=p.m), case
    )


@pytest.mark.parametrize("case", [Case.A, Case.B])
@pytest.mark.parametrize("mutate", [_swapped, _a_mirrored, _lam_mirrored],
                         ids=["a-and-lam-swapped", "a-slopes-flipped", "lam-slopes-flipped"])
def test_the_slope_line_names_its_slope_and_its_sign(monkeypatch, case, mutate):
    # the worst slope is a lam slope; swapping a and lam in the cap makes it
    # an a slope, and flipping either slope's sign makes the row fail
    line = PROOFCHECK_LINES[case][6]
    assert line.endswith("'lam')")
    monkeypatch.setattr(harness, "handoff_cap_bound_ln", mutate(harness.handoff_cap_bound_ln))
    mutated = proof_spotchecks(case).lines()[6]
    assert mutated != line
    if mutate is _swapped:
        assert mutated.startswith("[ok ]") and mutated.endswith("'a')")
    else:
        assert mutated.startswith("[FAIL]")


@pytest.mark.parametrize("case", [Case.A, Case.B])
def test_proof_spotchecks_read_each_input_once(case):
    # every region4 call decides its arithmetic once: 3 reads per
    # handoff_cap_bound_ln (a, lam, m; z2 runs in its kernel on the y the
    # chain has proved, with no read), 4 per growth_ratio_quadratic (a, lam,
    # m, s), 2 for alpha_factors (m, then the envelope's m) and 1 per
    # envelope call; 2*3 + 2*4 + 2 + 2*1 = 18
    code, reads = _arith.read.__code__, 0

    def profile(frame, event, arg):
        nonlocal reads
        if event == "call" and frame.f_code is code:
            reads += 1

    sys.setprofile(profile)
    try:
        proof_spotchecks(case)
    finally:
        sys.setprofile(None)
    assert reads == 18


def test_the_alpha_row_reports_its_first_maximal_element(monkeypatch):
    # a row of ties: a scan of float calls with max() reports the first m
    def tied_row(ms, case):
        return SimpleNamespace(alpha=np.full(ms.shape, 0.125))

    monkeypatch.setattr(harness, "alpha_factors", tied_row)
    checks = {c.name: c for c in proof_spotchecks(Case.A).checks}
    assert checks["alpha_below_0.2"].worst_value == 0.125
    assert checks["alpha_below_0.2"].worst_arg == (1e-3,)


def test_emit_figures_tiny(tmp_path):
    ms = [0.05, 0.3, 1.0]
    # an unsorted axis: the lines come out in increasing m all the same
    paths, report = emit_figures(
        "all", tmp_path, panels=[(0.05, 0.05)], m_values=[0.3, 1.0, 0.05], cfg=FAST_SIM
    )
    assert len(paths) == 4
    assert [row.m for row in report.rows] == ms
    assert all(row.passed and row.converged for row in report.rows)
    for path in paths:
        rows = path.read_text().splitlines()
        assert [float(line.split(",")[0]) for line in rows[1:]] == ms
    fig2 = (tmp_path / "fig2_a0.05_lambda0.05.csv").read_text().splitlines()
    assert fig2[0] == "m,x_max_lo,x_max_hi,x_max_hi_refined,x_max_hi_linear,x_max_sim"
    for line in fig2[1:]:
        m, lo, hi, hi_r, hi_l, sim = map(float, line.split(","))
        assert lo < sim < hi <= hi_l
        assert hi_r <= hi
    fig5 = (tmp_path / "fig5_a0.05_lambda0.05.csv").read_text().splitlines()
    for line in fig5[1:]:
        m, lo, hi, sim = map(float, line.split(","))
        assert lo < sim < hi


def test_a_failed_figure_point_is_a_nan_line(tmp_path):
    # at rtol = 1e-3 a step of the second panel lands at s <= 0: its files are
    # still written, with the point's m and NaN, and the first panel's
    # files are those of a run of that panel alone
    panels, loose = [(0.05, 0.05), (0.01, 0.01)], SimConfig(rtol=1e-3)
    paths, report = emit_figures("all", tmp_path / "both", panels=panels, m_values=[5.0],
                                 cfg=loose)
    assert [path.name for path in paths] == [
        f"{fig}_a{a:g}_lambda{lam:g}.csv" for a, lam in panels for fig in harness._FIGURES
    ]
    alone, _ = emit_figures("all", tmp_path / "alone", panels=panels[:1], m_values=[5.0],
                            cfg=loose)
    assert [path.read_bytes() for path in paths[:4]] == [path.read_bytes() for path in alone]
    for path in paths[4:]:
        header, line = path.read_text().splitlines()
        assert line == "5" + ",nan" * header.count(",")
    ok, failed = report.rows
    assert ok.error is None and ok.passed
    assert failed.error == (
        "the step to tau = 10631.7 left the phase space (s <= 0); "
        "the requested tolerance is too loose"
    )
    assert not failed.converged


def test_a_row_past_the_x_max_barrier_fails_with_that_reason():
    # at m = 1e150 the field is clipped on the cycle and the lead-in runs
    # past the barrier's cap within a few steps; its row fails at once
    spec = SweepSpec(a_values=(0.05,), lambda_values=(0.05,), m_values=(1e150,))
    (row,) = run_sweep(spec).rows
    assert not row.passed and math.isnan(row.x_max)
    assert re.fullmatch(
        r"the step to tau = \S+ took u = ln x to \S+, past the x_max barrier's cap "
        r"ln x_max_upper = 345\.31",
        row.error,
    )


def test_emit_figures_rejects_unknown():
    with pytest.raises(ValueError):
        emit_figures("fig9", "/tmp/nowhere")


GOOD_PANEL = (0.05, 0.05)


@pytest.mark.parametrize(
    "panels, message",
    [
        # as an empty sweep axis is
        ([], "panels must be non-empty"),
        ([GOOD_PANEL, (0.05,)], "panel (0.05,) must be two numbers"),
        ([GOOD_PANEL, 0.05], "panel 0.05 must be two numbers"),
        ([GOOD_PANEL, (0.05, math.inf)], "panel (0.05, inf) must be a finite int or float, got inf"),
        ([GOOD_PANEL, (-0.05, 0.05)], "panel (-0.05, 0.05) must be > 0, got -0.05"),
        ([GOOD_PANEL, (0.5, 0.3)], "panel (0.5, 0.3) has no limit cycle"),
        # only a string is read with float(), which would take True as 1.0
        pytest.param(
            [GOOD_PANEL, (0.05, True)], "panel (0.05, True) must be a finite int or float, got True",
            id="bool",
        ),
        pytest.param(
            [GOOD_PANEL, (10**400, 0.05)], "must be a finite int or float, got 1000", id="huge-int"
        ),
    ],
)
def test_emit_figures_checks_every_panel_before_simulating(monkeypatch, tmp_path, panels, message):
    out = tmp_path / "figs"
    monkeypatch.setattr(harness, "_run_rows", None)  # no point is simulated
    with pytest.raises(ValueError, match=re.escape(message)):
        emit_figures("fig5", out, panels=panels, m_values=[1.0], cfg=FAST_SIM)
    assert not out.exists()


@pytest.mark.parametrize(
    "m_values, message",
    [
        ([], "m_values must be non-empty"),
        ([1.0, 0.0], "m_values must be > 0, got 0.0"),
        ([1.0, -0.5], "m_values must be > 0, got -0.5"),
        ([1.0, math.nan], "m_values must be a finite int or float, got nan"),
        ([1.0, 2.0, 1.0], "m_values must not repeat a value, got (1.0, 2.0, 1.0)"),
    ],
)
def test_emit_figures_checks_the_m_axis_before_simulating(tmp_path, m_values, message):
    # the rule of a SweepSpec axis; the good point comes first, so a late
    # check would have simulated it and written a file
    out = tmp_path / "figs"
    with pytest.raises(ValueError, match=re.escape(message)):
        emit_figures("fig5", out, panels=[(0.05, 0.05)], m_values=m_values, cfg=FAST_SIM)
    assert not out.exists()


def _no_simulation(monkeypatch):
    def simulate(task):
        raise AssertionError(f"simulated {task}")

    monkeypatch.setattr(harness, "_row_task", simulate)


@pytest.mark.parametrize("second", [(0.05, 0.05), (0.05000001, 0.05)], ids=["exact", "near"])
def test_emit_figures_rejects_panels_that_share_a_file(monkeypatch, tmp_path, second):
    # file names keep 6 significant digits: both panels would write
    # fig5_a0.05_lambda0.05.csv, the second's rows over the first's
    _no_simulation(monkeypatch)
    out = tmp_path / "figs"
    message = f"panels (0.05, 0.05) and {second!r} both write fig5_a0.05_lambda0.05.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        emit_figures("fig5", out, panels=[(0.05, 0.05), second], m_values=[1.0], cfg=FAST_SIM)
    assert not out.exists()


@pytest.mark.parametrize(
    "jobs, message",
    [
        (0, "jobs must be >= 1, got 0"),
        (2.5, "jobs must be an integer, got 2.5"),
        (True, "jobs must be an integer, got True"),
    ],
)
def test_emit_figures_checks_jobs_as_a_sweep_spec_does(monkeypatch, tmp_path, jobs, message):
    _no_simulation(monkeypatch)
    out = tmp_path / "figs"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SweepSpec(a_values=(0.05,), lambda_values=(0.05,), m_values=(1.0,), jobs=jobs)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        emit_figures("fig5", out, panels=[(0.05, 0.05)], m_values=[1.0], cfg=FAST_SIM, jobs=jobs)
    assert not out.exists()


def test_emit_figures_at_two_jobs_writes_what_one_job_writes(monkeypatch, tmp_path):
    # the second panel's point fails at rtol = 1e-3 in whichever process
    # takes it: a NaN line and its reason, as at one job
    panels, loose = [(0.05, 0.05), (0.01, 0.01)], SimConfig(rtol=1e-3)
    serial, serial_report = emit_figures("all", tmp_path / "one", panels=panels,
                                         m_values=[5.0], cfg=loose)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    paths, report = emit_figures("all", tmp_path / "two", panels=panels, m_values=[5.0],
                                 cfg=loose, jobs=2)
    assert len(forks) == 1 and multiprocessing.active_children() == []
    assert [path.name for path in paths] == [path.name for path in serial]
    assert [path.read_bytes() for path in paths] == [path.read_bytes() for path in serial]
    assert [(row.csv_line(), row.error) for row in report.rows] == [
        (row.csv_line(), row.error) for row in serial_report.rows
    ]
    assert report.rows[1].error is not None and not report.rows[1].converged


@pytest.mark.parametrize("points", [0, -2])
def test_figure_m_values_needs_a_point(points):
    with pytest.raises(ValueError, match=f"^points must be >= 1, got {points}$"):
        figure_m_values(points)
    assert figure_m_values(1) == (0.01,)


def test_figure_m_values_round_by_libm():
    ms = figure_m_values()
    assert len(ms) == 50 and (ms[0], ms[-1]) == (0.01, 5.0)
    assert all(type(m) is float for m in ms) and all(b > a for a, b in zip(ms, ms[1:]))
    # NumPy's AVX-512 power gives 0.5788854792796424 here
    assert ms[32] == 0.57888547927964251
