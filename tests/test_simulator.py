import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853

import cyclebound
from cyclebound import simulator
from cyclebound.bounds import cycle_bounds, x_max_lower, x_max_upper
from cyclebound.model import (
    LogState,
    Params,
    Region,
    State,
    h,
    log1m_exp,
    log_gap_vector_field,
    log_vector_field,
)
from cyclebound.simulator import (
    EventKind,
    IntegrationError,
    SimConfig,
    SolveStats,
    StepLimitError,
    cycle_extreme_report,
    integrate,
    limit_cycle,
    transit_points,
)

from hypothesis import assume, given
from hypothesis import strategies as st

from cyclebound.simulator import Event, net_events

P_REF = Params(a=0.05, lam=0.05, m=1.0)
CANARD = Params(a=0.01, lam=0.01, m=0.01)
DEEP = Params(a=0.02, lam=0.02, m=5.0)

CANONICAL = (
    EventKind.S_EQ_LAMBDA_DOWN,
    EventKind.X_EQ_H_MIN,
    EventKind.S_EQ_LAMBDA_UP,
    EventKind.X_EQ_H_MAX,
)


_KIND_BY_INDEX = list(EventKind)


@given(st.lists(st.integers(0, 3), max_size=40))
def test_net_events_leaves_no_cancellable_pair(kind_indices):
    events = [
        Event(float(i), LogState(0.0, 0.0), _KIND_BY_INDEX[k])
        for i, k in enumerate(kind_indices)
    ]
    reduced = net_events(events)
    same_isocline = {
        EventKind.S_EQ_LAMBDA_DOWN: EventKind.S_EQ_LAMBDA_UP,
        EventKind.S_EQ_LAMBDA_UP: EventKind.S_EQ_LAMBDA_DOWN,
        EventKind.X_EQ_H_MIN: EventKind.X_EQ_H_MAX,
        EventKind.X_EQ_H_MAX: EventKind.X_EQ_H_MIN,
    }
    for prev, nxt in zip(reduced, reduced[1:]):
        assert nxt.kind is not same_isocline[prev.kind]
    # reduction never invents events and preserves order
    taus = [ev.tau for ev in reduced]
    assert taus == sorted(taus)
    assert len(reduced) <= len(events)


def test_sim_config_is_the_two_tolerances():
    assert [f.name for f in dataclasses.fields(SimConfig)] == ["rtol", "cycle_tol"]
    assert SimConfig() == SimConfig(rtol=1e-10, cycle_tol=1e-9)
    for bad in ({"rtol": 0.0}, {"cycle_tol": 0.0}, {"rtol": -1e-8}):
        with pytest.raises(ValueError, match="rtol and cycle_tol must be positive"):
            SimConfig(**bad)
    # cycle_tol = inf would call every tour converged, and True would read as 1
    with pytest.raises(ValueError, match="^cycle_tol must be a finite int or float, got inf$"):
        SimConfig(cycle_tol=math.inf)
    for name in ("rtol", "cycle_tol"):
        for bad in (True, "1e-9"):
            message = f"^{name} must be a finite int or float, got {bad!r}$"
            with pytest.raises(ValueError, match=message):
                SimConfig(**{name: bad})
    # an int is stored as a float
    assert type(SimConfig(cycle_tol=1).cycle_tol) is float


def test_integrate_rejects_bad_params():
    with pytest.raises(ValueError):
        integrate(State(0.5, 0.5), Params(a=0.05, lam=0.05, m=0.0, limit=True))
    with pytest.raises(ValueError):
        integrate(State(0.5, 0.5), Params(a=0.3, lam=0.4, m=1.0))
    with pytest.raises(ValueError, match="n_downs"):
        integrate(State(0.5, 0.5), P_REF, n_downs=0)
    # a w-chart start is (u, w) with w = ln(1 - s) <= ln(1/2)
    for start in ((0.0, -0.5), (0.0, 0.0)):
        with pytest.raises(ValueError, match=re.escape("w-chart start needs w <= ln(1/2)")):
            integrate(start, P_REF, w_chart=True)
    for start, name in (((math.nan, -3.0), "u"), ((0.0, -math.inf), "w")):
        with pytest.raises(ValueError, match=f"^start {name} must be a finite int or float"):
            integrate(start, P_REF, w_chart=True)
    # without w_chart a pair is no start: (u, v) goes in as a LogState
    with pytest.raises(ValueError, match="a pair start is a w-chart start .* LogState"):
        integrate((0.0, -3.0), P_REF)


@pytest.mark.parametrize("n_downs", [1, 2])
def test_integration_ends_at_its_n_downs_th_predator_maximum(n_downs):
    # with or without the samples, the last one is the n_downs-th
    # descending s = lam crossing, and nothing is committed after it
    start = State(h(0.8, P_REF), 0.8)
    full = integrate(start, P_REF, n_downs=n_downs)
    last = integrate(start, P_REF, n_downs=n_downs, keep_samples=False)
    downs = [ev for ev in full.events if ev.kind is EventKind.S_EQ_LAMBDA_DOWN]
    assert len(downs) == n_downs and full.events[-1] is downs[-1]
    end = (downs[-1].tau, (downs[-1].state.u, downs[-1].state.v))
    assert (full.taus[-1], tuple(full.points[-1])) == end
    assert len(last.taus) == 1 and (last.taus[0], tuple(last.points[0])) == end
    assert last.events == full.events


def _cycle_start(p):
    return (math.log(x_max_upper(p)), math.log(p.lam))


def _saddle_start(p):
    """A w-chart start at s = 0.6 with the cycle's predator minimum: the
    trajectory rises into the saddle passage, to 1 - s ~ e^-30 at the
    canard point."""
    return (limit_cycle(p).ln_x_min, math.log(0.4))


def _field(p, w_chart):
    """The model field of a chart, as a function of its two coordinates."""
    if w_chart:
        return lambda u, w: log_gap_vector_field((u, w), p)
    return lambda u, v: log_vector_field(LogState(u, v), p)


def _error_estimate_resolved(ref):
    """Whether both error sums (5th- and 3rd-order) of scipy's last step
    stand clear of the worst-case roundoff n eps sum|terms| of summing
    their n terms in any order, in both components."""
    eps = np.finfo(float).eps
    for weights in (ScipyDOP853.E5, ScipyDOP853.E3):
        terms = ref.K.T * weights
        if np.any(np.abs(terms.sum(axis=1)) <= len(weights) * eps * np.abs(terms).sum(axis=1)):
            return False
    return True


def _restart(solver, t, h_abs, y, f):
    solver.t, solver.h_abs, solver.y, solver.f = t, h_abs, y, f


def _proposal(solver, rejected):
    """The next step size after a step; scipy does not grow it right
    after a rejection (a restart with the accepted size has none)."""
    return min(solver.h_abs, solver.t - solver.t_old) if rejected else solver.h_abs


def _proposal_is_stable(ours, ref, y, f):
    """Whether the stepper's next step size moves by less than 1e-4 when it
    retakes its last step from y with u and w moved apart by the roundoff
    of a stage state, eps h max_i sum_j |a_ij k_j| (w-chart stages depend
    on u - w through e^(u - w)).  Leaves the stepper after that step."""
    t, h = ours.t_old, ours.t - ours.t_old
    proposed = ours.h_abs
    shift = np.finfo(float).eps * h * float((np.abs(ScipyDOP853.A) @ np.abs(ref.K[:-1])).max())
    _restart(ours, t, h, (y[0] + shift, y[1] - shift), f)
    ours.step()
    return abs(ours.h_abs / proposed - 1.0) < 1e-4


def _shifted_retakes(ours, ref, t, h, y, f, rejected=0):
    """Retake the step tried at (t, h) from y, which rejected its first
    ``rejected`` trials, with u and w each moved either way by the
    roundoff of a stage state, eps (|y| + h max_i sum_j |a_ij k_j|): the
    shift of :func:`_proposal_is_stable` plus the rounding of the state
    itself, which in the canard (|u| ~ 30) is the larger.  Yields the
    stepper after each of the four retakes."""
    eps = np.finfo(float).eps
    shift = eps * (np.abs(y) + h * (np.abs(ScipyDOP853.A) @ np.abs(ref.K[:-1])).max(axis=0))
    for sign_u, sign_w in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        rejections = ours.n_rejected
        _restart(ours, t, h, (y[0] + sign_u * shift[0], y[1] + sign_w * shift[1]), f)
        ours.step()
        assert ours.n_rejected - rejections == rejected  # the same step, retaken
        yield ours


def _dense_roundoff(ours, ref, t, h, y, f, taus, got):
    """The largest move of the stepper's dense output at ``taus`` (where
    its step (t, h) from y gave ``got``) over :func:`_shifted_retakes`.
    Leaves the stepper after the last retake."""
    moved = 0.0
    for retaken in _shifted_retakes(ours, ref, t, h, y, f):
        dense = retaken.dense_output()
        moves = (abs(a - b) for tau, g in zip(taus, got) for a, b in zip(dense(tau), g))
        moved = max(moved, *moves)
    return moved


def _retry_roundoff(ours, ref, t, h_try, y, f, rejected):
    """The largest relative move of the step size the stepper retried
    after ``rejected`` rejections of the trial (t, h_try) from y, over
    :func:`_shifted_retakes` of that trial.  Leaves the stepper after the
    last retake."""
    size = ours.t - t
    retakes = _shifted_retakes(ours, ref, t, h_try, y, f, rejected)
    return max(abs((retaken.t - t) / size - 1.0) for retaken in retakes)


def _step_side_by_side(p, y0, rtol, n_steps, t0=0.0, w_chart=False):
    """Step simulator.RK45 and scipy's DOP853 on one chart's field side by side.

    scipy integrates (u, y)' = the model field of the chart, the field
    the in-house stepper has written out in its stages.  A w-chart run
    ends where s falls below 1/2, where integrate leaves the chart.

    Before every step the in-house stepper is restarted from scipy's
    state (t, y, f and the proposed step size): the error estimate is a
    small difference of stage sums, so a different summation order
    moves the next step size in its last digits, and along a canard
    that difference is amplified until the two runs no longer share
    steps.  A step accepted at its first trial must then agree to
    roundoff, dense output included.  A rejected trial must be rejected
    by both, as many times (scipy evaluates 12 stages a trial); the
    retried size is scaled by the error norm, whose roundoff it
    inherits, so the accepted sizes agree to 1e-7 in the v chart.  In
    the w chart, whose stages amplify roundoff (below), they agree to
    1e-7 plus four times the largest relative move of the retried size
    when the trial is retaken from starts moved by a stage state's
    roundoff (:func:`_retry_roundoff`): twice because each integrator
    makes its own, and twice again because a moved start reaches the
    roundoff of the later stages only through the start (at the canard
    point the sizes have differed by 2.3 times that move).  The in-house
    stepper then takes scipy's accepted size once more, from the same
    state, and that step must agree to roundoff.  The step size each
    proposes next must agree wherever the error estimate stands clear of
    its own roundoff (deep in a canard it need not), and in the w chart
    where also the proposal is stable under a stage state's roundoff
    (:func:`_proposal_is_stable`): in the saddle passage at m = 5 steps
    are limited by stability, h |df/dw| ~ 5, and a stage's roundoff grows
    tenfold a stage.  For the same reason the w-chart dense output agrees
    to 1e-12 relative plus twice the roundoff it inherits from its stages
    (:func:`_dense_roundoff`; each integrator makes its own), not to
    1e-12 relative alone: in the saddle passage at m = 5 a one-ulp move
    of a step's start moves that step's dense output by 0.8e-12 to
    1.6e-12 relative.  Returns the number of steps
    taken after a rejection and scipy's solver.
    """
    fun = _field(p, w_chart)
    ours = simulator.RK45(p, t0, y0, rtol=rtol, atol=1e-12, w_chart=w_chart)
    ref = ScipyDOP853(
        lambda t, y: np.array(fun(y[0], y[1])), t0, np.array(y0), np.inf, rtol=rtol, atol=1e-12,
    )
    assert ours.rtol == ref.rtol
    assert ours.h_abs == pytest.approx(ref.h_abs, rel=1e-12)
    retried = 0
    for _ in range(n_steps):
        if ref.status != "running" or (w_chart and ref.y[1] > -math.log(2.0)):
            break
        t, h_try = float(ref.t), float(ref.h_abs)
        y, f = (float(ref.y[0]), float(ref.y[1])), (float(ref.f[0]), float(ref.f[1]))
        _restart(ours, t, h_try, y, f)
        rejections, nfev = ours.n_rejected, ref.nfev
        ours.step()
        ref.step()
        assert ours.status == ref.status
        if ref.status == "failed":
            break
        # a rejection shrinks the trial step by a factor of at most 0.9
        rejected = ref.t - t <= 0.9 * h_try
        assert (ours.t - t <= 0.9 * h_try) == rejected
        assert 12 * (ours.n_rejected - rejections + 1) == ref.nfev - nfev
        retried += rejected
        size = ours.t - t
        step_rtol = 1e-7 if rejected else 1e-10
        if rejected and w_chart:
            retries = ours.n_rejected - rejections
            step_rtol += 4.0 * _retry_roundoff(ours, ref, t, h_try, y, f, retries)
        assert size == pytest.approx(ref.t - t, rel=step_rtol)
        if rejected:
            rejections = ours.n_rejected
            _restart(ours, t, ref.t - t, y, f)
            ours.step()
            assert ours.t == pytest.approx(ref.t, rel=1e-15) and ours.n_rejected == rejections
        # a step longer by dt ends about |f| dt further on
        tol = 1e-12 + 2.0 * abs(ours.t - ref.t) * float(np.abs(ref.f).max())
        assert ours.y == pytest.approx(tuple(ref.y), rel=1e-12, abs=tol)
        h = ours.t - ours.t_old
        ours_dense, ref_dense = ours.dense_output(), ref.dense_output()
        taus = [t + x * h for x in (0.1, 0.5, 0.9)]
        got = [ours_dense(tau) for tau in taus]
        want = [ref_dense(ref.t_old + x * (ref.t - ref.t_old)) for x in (0.1, 0.5, 0.9)]
        proposed = _proposal(ours, rejected)
        if _error_estimate_resolved(ref) and (not w_chart or _proposal_is_stable(ours, ref, y, f)):
            assert proposed == pytest.approx(ref.h_abs, rel=1e-3)
        spread = 2.0 * _dense_roundoff(ours, ref, t, h, y, f, taus, got) if w_chart else 0.0
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                if w_chart:
                    assert a == pytest.approx(b, abs=1e-12 * abs(b) + tol + spread)
                else:
                    assert a == pytest.approx(b, rel=1e-12, abs=tol)
    return retried, ref


@pytest.mark.parametrize("p", [P_REF, CANARD], ids=["ref", "canard"])
def test_stepper_matches_scipy_dop853_step_for_step(p):
    retried, _ = _step_side_by_side(p, _cycle_start(p), 1e-10, 600)
    assert retried > 0  # the rejection branch was exercised


@pytest.mark.parametrize("p", [P_REF, CANARD, DEEP], ids=["ref", "canard", "deep"])
def test_w_chart_stepper_matches_scipy_dop853_step_for_step(p):
    # the w = ln(1 - s) field through the saddle passage, from s = 0.6 to
    # 1 - s = e^-13 (ref), e^-30 (canard) and e^-43 (deep) and back to
    # s = 1/2: 49, 774 and 64 steps
    retried, ref = _step_side_by_side(p, _saddle_start(p), 1e-10, 1000, w_chart=True)
    assert retried > 0
    assert ref.y[1] > -math.log(2.0)  # the passage is over


def test_stepper_edge_cases_match_scipy():
    # rtol below 100 eps is floored, with a warning
    with pytest.warns(UserWarning):
        _step_side_by_side(P_REF, _cycle_start(P_REF), 1e-17, 50)
    with pytest.warns(UserWarning):
        floored = simulator.RK45(P_REF, 0.0, (0.0, -3.0), rtol=0.0)
    assert floored.rtol == 100 * np.finfo(float).eps
    # from the origin the first step is capped at 100 times the trial step
    _, ref = _step_side_by_side(P_REF, (0.0, 0.0), 1e-8, 50)
    assert ref.status == "running" and ref.t > 0.0
    # from (u, v) = (-50, 0.5) the field is small but turns fast (d2 > d1),
    # so the probe evaluation at y + h0 f sets the first step size
    _step_side_by_side(P_REF, (-50.0, 0.5), 1e-10, 50)
    # at t0 = 1e16 the minimal step (10 float spacings of t) is far too
    # long for the tolerance: both give up on the first step
    _, ref = _step_side_by_side(P_REF, _cycle_start(P_REF), 1e-10, 10_000, t0=1e16)
    assert ref.status == "failed" and ref.t == 1e16
    # at m = 1e300 the trial step 0.01 d0 / d1 underflows to 0: both
    # start with step 0 and give up on the first step
    with np.errstate(all="ignore"):
        _, ref = _step_side_by_side(Params(0.05, 0.05, 1e300), (0.0, -3.0), 1e-10, 10)
    assert ref.status == "failed" and ref.t == 0.0


def _weighted(weights, ks):
    """sum of w_j k_j over the nonzero weights, left to right: the sums the
    stepper writes out, with scipy's DOP853 tableau."""
    return sum(float(w) * k for w, k in zip(weights, ks) if w != 0.0)


def _reference_step(p, t, y, f, h_abs, rtol, atol, w_chart):
    """One step of simulator.RK45 with every stage a call of the chart's
    model field, the tableau taken from scipy's DOP853, and the builtins
    abs, min and max: the stepper with its fields and constants not
    written out, the same sums in the same order.  Returns (t, y, f,
    h_abs) after the step and the interpolant over it."""
    fun = _field(p, w_chart)
    (u, v), k1 = y, f
    h_abs = max(h_abs, 10.0 * (math.nextafter(t, math.inf) - t))
    rejected = False
    while True:
        t_new = t + h_abs
        h = t_new - t
        ks = [k1]
        for row in ScipyDOP853.A[1:]:
            ku, kv = zip(*ks)
            ks.append(fun(u + _weighted(row, ku) * h, v + _weighted(row, kv) * h))
        ku, kv = zip(*ks)
        u_new = u + h * _weighted(ScipyDOP853.B, ku)
        v_new = v + h * _weighted(ScipyDOP853.B, kv)
        su = atol + max(abs(u), abs(u_new)) * rtol
        sv = atol + max(abs(v), abs(v_new)) * rtol
        e5u, e5v = _weighted(ScipyDOP853.E5, ku) / su, _weighted(ScipyDOP853.E5, kv) / sv
        e3u, e3v = _weighted(ScipyDOP853.E3, ku) / su, _weighted(ScipyDOP853.E3, kv) / sv
        err5 = e5u * e5u + e5v * e5v
        err3 = e3u * e3u + e3v * e3v
        error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0) if err5 or err3 else 0.0
        if error_norm < 1.0:
            factor = 10.0 if error_norm == 0.0 else min(10.0, 0.9 * error_norm ** -0.125)
            if rejected:
                factor = min(factor, 1.0)
            break
        h_abs = h * max(0.2, 0.9 * error_norm ** -0.125)
        rejected = True
    ks.append(fun(u_new, v_new))
    for row in ScipyDOP853.A_EXTRA:
        ku, kv = zip(*ks)
        ks.append(fun(u + _weighted(row, ku) * h, v + _weighted(row, kv) * h))
    ku, kv = zip(*ks)

    def interpolant(y0, dy, k):
        f = [dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0])]
        f += [h * _weighted(row, k) for row in ScipyDOP853.D]

        def at(tau):
            x = (tau - t) / h
            value = f[6]
            for j in range(5, -1, -1):
                value = f[j] + (1.0 - x if j % 2 == 0 else x) * value
            return x * value + y0

        return at

    dense_u, dense_v = interpolant(u, u_new - u, ku), interpolant(v, v_new - v, kv)
    step = (t_new, (u_new, v_new), ks[12], h * factor)
    return step, lambda tau: (dense_u(tau), dense_v(tau))


@pytest.mark.parametrize("p", [P_REF, CANARD], ids=["ref", "canard"])
def test_stepper_stages_are_log_vector_field(p, monkeypatch):
    # the fields written out in the 12 stages of a step and the 3 extra
    # stages of its interpolant must be the model's bit for bit (repr
    # tells every double apart): log_vector_field in the v chart and
    # log_gap_vector_field in the w chart, and the tableau scipy's.  Every
    # accepted step over one loop, and its interpolant at three points,
    # equal those of the step that calls the field, and the last stage
    # (FSAL) is the field at the new state.  A chart switch maps y[1] by
    # ln(1 - e^y), keeps the step size and evaluates the new chart's field
    rejected, charts, switches = [], [], []

    class Checked(simulator.RK45):
        def step(self):
            before = (
                self.p, self.t, self.y, self.f, self.h_abs, self.rtol, self.atol, self.w_chart,
            )
            super().step()
            expected, expected_dense = _reference_step(*before)
            assert repr((self.t, self.y, self.f, self.h_abs)) == repr(expected)
            assert repr(self.f) == repr(_field(p, self.w_chart)(*self.y))
            dense = self.dense_output()
            for x in (0.1, 0.5, 0.9):
                tau = before[1] + x * (self.t - before[1])
                assert repr(dense(tau)) == repr(expected_dense(tau))
            # a rejection shrinks the trial step by a factor of at most 0.9
            rejected.append(self.t - before[1] <= 0.9 * before[4])
            charts.append(self.w_chart)

        def switch_chart(self):
            y, h_abs, w_chart = self.y, self.h_abs, self.w_chart
            super().switch_chart()
            assert self.w_chart is not w_chart and self.h_abs == h_abs
            assert self.y == (y[0], log1m_exp(y[1]))
            assert repr(self.f) == repr(_field(p, self.w_chart)(*self.y))
            switches.append(self.w_chart)

    monkeypatch.setattr(simulator, "RK45", Checked)
    start = LogState(*_cycle_start(p))
    integrate(start, p, keep_samples=False)
    # one loop takes 109 steps at the reference point and about 860 at
    # the canard point; it enters the w chart on the way up to the saddle
    # and leaves it on the way down
    assert len(rejected) > 100 and any(rejected)
    assert switches == [True, False]
    assert charts.index(True) > 0 and any(rejected[i] for i, w in enumerate(charts) if w)


@pytest.mark.parametrize("p", [P_REF, CANARD], ids=["ref", "canard"])
def test_dense_output_is_a_snapshot_of_its_step(p):
    # an interpolant first evaluated five steps after its own step gives,
    # bit for bit, the values of one evaluated right after that step, in
    # the chart of that step even after a chart switch
    for y0, w_chart in ((_cycle_start(p), False), (_saddle_start(p), True)):
        solver = simulator.RK45(p, 0.0, y0, rtol=1e-10, atol=1e-12, w_chart=w_chart)
        for _ in range(3):
            solver.step()
        t_old, t = solver.t_old, solver.t
        taus = [t_old + x * (t - t_old) for x in (0.1, 0.5, 0.9)]
        late = solver.dense_output()
        now = solver.dense_output()
        expected = [now(tau) for tau in taus]
        solver.switch_chart()
        for _ in range(5):
            solver.step()
        assert solver.t_old > t and solver.w_chart is not w_chart
        assert repr([late(tau) for tau in taus]) == repr(expected)


def test_import_leaves_scipy_out():
    # the runtime needs numpy only; scipy is a test-time oracle.  The star
    # import loads every library layer, which a bare import no longer does
    src = str(Path(cyclebound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    script = (
        "import sys; from cyclebound import *; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"


def _events_step_by_step(start, p, n_downs):
    """Reference for integrate's events: every accepted step goes through
    the full sign bookkeeping, with each event function of the step's
    chart evaluated by its own closure and every crossing located at
    once, and the chart switched once s has crossed 1/2, until the
    n_downs-th descending s = lam crossing.  Crossings are located by
    integrate's own routine on integrate's own event functions, so the
    events must agree exactly."""
    atol = simulator.ATOL_LOG
    w_chart = -math.log(2.0) < start.v < 0.0
    y0 = (start.u, log1m_exp(start.v) if w_chart else start.v)
    solver = simulator.RK45(p, 0.0, y0, rtol=SimConfig().rtol, atol=atol, w_chart=w_chart)
    charts = simulator._event_functions(p)
    sides = [simulator._sign(g(y0)) if abs(g(y0)) > atol else 0 for g in charts[w_chart]]
    events = []
    while sum(ev.kind is EventKind.S_EQ_LAMBDA_DOWN for ev in events) < n_downs:
        t_old = solver.t
        solver.step()
        dense = solver.dense_output()
        crossed = []
        for idx, g in enumerate(charts[solver.w_chart]):
            side = simulator._sign(g(solver.y))
            if side and side != sides[idx]:
                if sides[idx]:
                    te = simulator._locate(g, dense, t_old, solver.t)
                    u, y1 = dense(te)
                    state = LogState(u, log1m_exp(y1) if solver.w_chart else y1)
                    crossed.append(Event(te, state, simulator._KINDS[idx][side]))
                sides[idx] = side
        events.extend(sorted(crossed, key=lambda ev: ev.tau))
        if -math.log(2.0) < solver.y[1] < 0.0:
            solver.switch_chart()
    return events


@pytest.mark.parametrize(
    "p, s0",
    [(P_REF, 0.8), (CANARD, 0.8), (P_REF, 1.5)],
    ids=["ref", "canard", "above-capacity"],
)
def test_quiet_step_path_keeps_every_event(p, s0):
    # integrate skips the bookkeeping on a step that stays on its side of
    # both isoclines, and must drop no crossing.  The start on x = h(0.8)
    # commits nothing there; the start above s = 1, where h(s) <= 0,
    # begins in the v chart with g_h = +inf.  Nothing re-crosses an
    # isocline, at the canard point's saddle passage either
    start = State(h(0.8, p), s0).log()
    expected = _events_step_by_step(start, p, n_downs=2)
    traj = integrate(start, p, n_downs=2, keep_samples=False)
    assert traj.events == expected
    assert [ev.kind for ev in expected] == list(CANONICAL) + [EventKind.S_EQ_LAMBDA_DOWN]


def _scipy_stepper(field):
    """A stand-in for simulator.RK45 (same constructor and interface, one
    chart) that steps scipy's DOP853 on (u, v)' = field(u, v) instead of
    the model field; the paths it is used on stay below s = 1/2."""

    class Stepper:
        w_chart = False
        n_rejected = 0

        def __init__(self, p, t0, y0, rtol, atol, w_chart=False):
            assert not w_chart
            self._ref = ScipyDOP853(
                lambda t, y: np.array(field(y[0], y[1])), t0, np.array(y0), np.inf,
                rtol=rtol, atol=atol,
            )

        t = property(lambda self: float(self._ref.t))
        y = property(lambda self: (float(self._ref.y[0]), float(self._ref.y[1])))
        status = property(lambda self: self._ref.status)
        nfev = property(lambda self: self._ref.nfev)

        def step(self):
            self._ref.step()

        def dense_output(self):
            dense = self._ref.dense_output()
            return lambda tau: tuple(float(c) for c in dense(tau))

    return Stepper


def test_every_sign_change_is_a_crossing(monkeypatch):
    # s dips below lam by 1e-7 or less and comes back, once a period, then
    # stays below for good: each sign change at a step end is a crossing,
    # a dip and its return a pair that net_events cancels, and there is no
    # threshold a crossing must clear.  The steps (about 3.7 long) step
    # over the first dip and end inside the second
    monkeypatch.setattr(
        simulator, "RK45", _scipy_stepper(lambda u, v: (1.0, 2e-7 * math.cos(u) - 1e-8))
    )
    start = LogState(0.0, math.log(P_REF.lam) + 2e-7)
    expected = _events_step_by_step(start, P_REF, n_downs=2)
    traj = integrate(start, P_REF, n_downs=2, keep_samples=False)
    assert traj.events == expected
    down, up = EventKind.S_EQ_LAMBDA_DOWN, EventKind.S_EQ_LAMBDA_UP
    assert [ev.kind for ev in traj.events] == [down, up, down]
    assert 2.0 * math.pi < traj.events[0].tau < traj.events[1].tau < 4.0 * math.pi
    assert net_events(traj.events) == traj.events[2:]


def test_two_crossings_in_one_step_come_out_in_tau_order(monkeypatch):
    # a straight path through x = h(s) at tau = 0.999 and s = lam at
    # tau = 1: the stepper's steps grow tenfold on this field, so one step
    # commits both crossings, in the reverse of the order integrate checks
    # the isoclines in
    ln_lam = math.log(P_REF.lam)
    u0 = math.log(h(math.exp(ln_lam + 0.001), P_REF)) + 0.999
    monkeypatch.setattr(simulator, "RK45", _scipy_stepper(lambda u, v: (-1.0, -1.0)))
    start = LogState(u0, ln_lam + 1.0)
    expected = _events_step_by_step(start, P_REF, n_downs=1)
    traj = integrate(start, P_REF)
    assert [ev.kind for ev in traj.events] == [
        EventKind.X_EQ_H_MIN, EventKind.S_EQ_LAMBDA_DOWN,
    ]
    assert traj.events == expected
    first, second = traj.events
    assert 0.998 < first.tau < second.tau < 1.001
    # the last step ending before the crossings ends before both
    assert traj.taus[-2] < first.tau


def _count_calls(fn, counter):
    def counted(y):
        counter.append(y)
        return fn(y)

    return counted


def _loop_brackets(p):
    """Every accepted step of one loop from the section start across which
    an event function changes sign, as (index into a chart's event
    functions, that function, step interpolant, t_old, t, new side, w
    chart), with the charts switched as integrate switches them."""
    charts = simulator._event_functions(p)
    solver = simulator.RK45(p, 0.0, _cycle_start(p), rtol=1e-10, atol=1e-12)
    brackets, lam_changes = [], 0
    while lam_changes < 2:
        t_old, y_old = solver.t, solver.y
        solver.step()
        for idx, g in enumerate(charts[solver.w_chart]):
            before, after = simulator._sign(g(y_old)), simulator._sign(g(solver.y))
            if before and after and before != after:
                brackets.append(
                    (idx, g, solver.dense_output(), t_old, solver.t, after, solver.w_chart)
                )
                lam_changes += idx == 0
        if -math.log(2.0) < solver.y[1] < 0.0:
            solver.switch_chart()
    return brackets


def _bisect(g, dense, t_lo, t_hi, tol):
    """The bracketed sign change of g on dense by plain bisection, to tol."""
    lo_pos = g(dense(t_lo)) > 0.0
    while t_hi - t_lo > tol:
        t = 0.5 * (t_lo + t_hi)
        if (g(dense(t)) > 0.0) == lo_pos:
            t_lo = t
        else:
            t_hi = t
    return t_hi


@pytest.mark.parametrize("p", [P_REF, CANARD, DEEP], ids=["ref", "canard", "deep"])
def test_illinois_and_bisection_locate_the_same_crossing(p):
    # Illinois on the event function against bisection on its sign: the
    # same crossing to within the time tolerance, and the returned end on
    # the new side, or on the zero.  A loop changes the sign of each event
    # function at two step ends, the prey maximum in the w chart
    brackets = _loop_brackets(p)
    assert [(idx, side, w_chart) for idx, _, _, _, _, side, w_chart in brackets] == [
        (1, -1, False), (0, 1, False), (1, 1, True), (0, -1, False),
    ]
    calls = []
    for _, g, dense, t_lo, t_hi, side, _ in brackets:
        tol = max(simulator._EVENT_TAU_TOL, 8.0 * sys.float_info.epsilon * abs(t_hi))
        te = simulator._locate(_count_calls(g, calls), dense, t_lo, t_hi)
        tb = _bisect(g, dense, t_lo, t_hi, tol)
        assert t_lo <= te <= t_hi
        assert abs(te - tb) <= tol
        assert simulator._sign(g(dense(te))) in (side, 0)
    # about 13 evaluations a crossing, where bisection takes 35 to 40
    assert len(calls) <= 16 * len(brackets)


def test_smooth_event_function_has_the_sign_of_the_log_form():
    # each chart's g_h against the sign of x - h(s) in 50-digit
    # arithmetic, from s = e^-60 to 1 - e^-700 and above s = 1 (v >= 0,
    # where h(s) <= 0 and g_h = +inf), at points within 1e-9 of x = h(s)
    # too; g_lam has the sign of s - lam in both charts, and the two g_h
    # agree where the charts meet, at s = 1/2
    mp.mp.dps = 50
    for a in (0.01, 0.1):
        p = Params(a=a, lam=0.01, m=1.0)
        (g_lam_v, g_h_v), (g_lam_w, g_h_w) = simulator._event_functions(p)
        points = [(False, v) for v in (-60.0, -5.0, -0.5, -1e-3, -1e-9, 0.0, 1e-9, 0.3, 2.0)]
        points += [(True, w) for w in (-700.0, -85.0, -30.0, -5.0, -1.0, math.log(0.5))]
        for w_chart, y1 in points:
            gap = mp.exp(y1) if w_chart else 1 - mp.exp(y1)
            s = 1 - gap
            hs = gap * (s + a)
            us = [-800.0, -100.0, -20.0, -1.0, 0.0, 1.0]
            if hs > 0:
                ln_h = float(mp.log(hs))
                us += [ln_h - 1e-9, ln_h + 1e-9]
            g_h, g_lam = (g_h_w, g_lam_w) if w_chart else (g_h_v, g_lam_v)
            for u in us:
                got = g_h((u, y1))
                if hs <= 0:
                    assert got == math.inf, (u, y1)
                else:
                    assert simulator._sign(got) == mp.sign(mp.exp(u) - hs), (u, y1, got)
            assert simulator._sign(g_lam((0.0, y1))) == mp.sign(s - p.lam)
        for u in (-3.0, 0.0, 1.0):
            y = (u, math.log(0.5))
            assert g_h_v(y) == pytest.approx(g_h_w(y), rel=1e-15, abs=1e-15)


def test_locate_runs_illinois_below_the_normal_range_of_x():
    # a straight path through x = h(s) at s = 1/2 (v = w there): from
    # ln x = -800, where e^u is no double at all, Illinois on g_h finds
    # the crossing in a few evaluations, in both charts
    ln_h = math.log(h(0.5, P_REF))
    for _, g_h in simulator._event_functions(P_REF):
        for u0 in (-800.0, -600.0):
            root = (ln_h - u0) / (1.0 - u0)  # where u = ln h(1/2)

            def dense(tau, u0=u0):
                return (u0 + (1.0 - u0) * tau, math.log(0.5))

            calls = []
            te = simulator._locate(_count_calls(g_h, calls), dense, 0.0, 1.0)
            assert abs(te - root) <= simulator._EVENT_TAU_TOL
            assert g_h(dense(te)) >= 0.0
            assert len(calls) <= 6
    (_, g_h), _ = simulator._event_functions(P_REF)
    # a path whose ends are both inside the normal range but which dips
    # below it where the first iterate lands
    a, b = math.log(2.0 * h(0.5, P_REF)), -750.0

    def dipping(tau):
        u = -650.0 + (b + 650.0) * 2.0 * tau if tau <= 0.5 else b + (a - b) * (2.0 * tau - 1.0)
        return (u, math.log(0.5))

    calls = []
    te = simulator._locate(_count_calls(g_h, calls), dipping, 0.0, 1.0)
    root = 0.5 * (1.0 + (ln_h - b) / (a - b))
    assert abs(te - root) <= simulator._EVENT_TAU_TOL and len(calls) <= 40
    # from above capacity (s = 3/2, g_h = +inf in the v chart) down
    # through x = h(s) at s = 0.8: bisected while an end is infinite
    ln_h8, v0, v1 = math.log(h(0.8, P_REF)), math.log(1.5), math.log(0.5)

    def falling(tau):
        return (ln_h8, v0 + (v1 - v0) * tau)

    assert g_h(falling(0.0)) == math.inf
    te = simulator._locate(g_h, falling, 0.0, 1.0)
    assert abs(te - (math.log(0.8) - v0) / (v1 - v0)) <= simulator._EVENT_TAU_TOL
    # a crossing the interpolant does not resolve (both ends on the old
    # side) is put at the end of the step
    assert simulator._locate(g_h, lambda tau: (0.0, math.log(0.5)), 0.0, 1.0) == 1.0


def test_equilibrium_stays_put():
    # the equilibrium is unstable, but its roundoff-scale defect stays
    # below 1e-12 over tau <= 100: at every step up to there, and at 100
    y0 = State((1.0 - P_REF.lam) * (P_REF.lam + P_REF.a), P_REF.lam).log()
    solver = simulator.RK45(P_REF, 0.0, (y0.u, y0.v), rtol=1e-10, atol=1e-12)
    samples = []
    while solver.t < 100.0:
        solver.step()
        samples.append(solver.y)
    samples.append(solver.dense_output()(100.0))
    assert np.abs(np.array(samples) - (y0.u, y0.v)).max() <= 1e-12


def test_event_order_over_three_loops():
    start = State(h(0.8, P_REF), 0.8)
    traj = integrate(start, P_REF, n_downs=4)
    kinds = [ev.kind for ev in traj.events]
    assert len(kinds) == 13
    assert kinds == list(CANONICAL) * 3 + [EventKind.S_EQ_LAMBDA_DOWN]
    taus = [ev.tau for ev in traj.events]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_trajectory_samples_are_ordered_and_positive():
    traj = integrate(State(h(0.8, P_REF), 0.8), P_REF, n_downs=2)
    assert np.all(np.diff(traj.taus) > 0)
    assert np.all(np.isfinite(traj.points))
    # exp-image positivity, checked at moderate depth where exp is exact
    x = np.exp(traj.points[:, 0])
    s = np.exp(traj.points[:, 1])
    assert np.all(x > 0) and np.all(s > 0)
    # every sample, those of w-chart steps too, lies below capacity
    assert np.all(traj.points[:, 1] < 0.0)


def test_region_sequence_is_cyclically_adjacent():
    traj = integrate(State(h(0.8, P_REF), 0.8), P_REF, n_downs=3)
    order = ["R1", "R2", "R3", "R4"]
    labels = [lab for lab in traj.region_labels(P_REF) if lab in order]
    for prev, nxt in zip(labels, labels[1:]):
        i, j = order.index(prev), order.index(nxt)
        assert j in (i, (i + 1) % 4), (prev, nxt)


def region_label(x: float, s: float, p: Params) -> str:
    """The region label of the one-sample trajectory at (x, s)."""
    traj = simulator.Trajectory(np.zeros(1), np.array([[math.log(x), math.log(s)]]))
    return traj.region_labels(p)[0]


def test_region_examples():
    # all nine sign combinations of (s - lam, x - h(s))
    want = {
        (1, 1): Region.R1,
        (-1, 1): Region.R2,
        (-1, -1): Region.R3,
        (1, -1): Region.R4,
        (0, 0): Region.EQUILIBRIUM,
        (0, 1): Region.ON_ISOCLINE_LAMBDA,
        (0, -1): Region.ON_ISOCLINE_LAMBDA,
        (1, 0): Region.ON_ISOCLINE_H,
        (-1, 0): Region.ON_ISOCLINE_H,
    }
    for (s_side, x_side), region in want.items():
        assert simulator._region(0.5 * s_side, 2.0 * x_side) is region
    p = Params(a=0.1, lam=0.1, m=1.0)
    assert region_label(1.0, 0.5, p) == "R1"
    assert region_label(0.5, 0.05, p) == "R2"
    # h(0.05) = 0.95 * 0.15 = 0.1425, so x = 0.01 sits below the isocline
    assert region_label(0.01, 0.05, p) == "R3"
    assert region_label(0.05, 0.05, p) == "R3"
    assert region_label(0.05, 0.5, p) == "R4"
    # ln s = ln lam exactly, so s - lam reads 0 in its log form
    assert region_label(0.5, p.lam, p) == "isocline_lambda"


@given(
    x=st.floats(1e-8, 10.0),
    s=st.floats(1e-8, 2.0),
    a=st.floats(0.01, 0.4),
    lam=st.floats(0.01, 0.4),
)
def test_region_labels_exhaustive_and_consistent(x, s, a, lam):
    # away from the isoclines the label is the open region the two
    # comparisons x > h(s) and s > lam name (h(s) <= 0 above capacity)
    p = Params(a=a, lam=lam, m=1.0)
    assume(abs(s - lam) > 1e-9 * lam and abs(x - h(s, p)) > 1e-9 * x)
    above_h, above_lam = x > h(s, p), s > lam
    want = {
        (True, True): Region.R1,
        (True, False): Region.R2,
        (False, False): Region.R3,
        (False, True): Region.R4,
    }[above_h, above_lam]
    assert region_label(x, s, p) == want.value


def test_extremes_sit_on_isoclines():
    traj = integrate(State(h(0.8, P_REF), 0.8), P_REF, n_downs=2)
    for ev in traj.events:
        x = math.exp(ev.state.u)
        s = math.exp(ev.state.v)
        if ev.kind in (EventKind.S_EQ_LAMBDA_DOWN, EventKind.S_EQ_LAMBDA_UP):
            assert abs(s - P_REF.lam) <= 1e-8 * P_REF.lam
        else:
            assert abs(x - h(s, P_REF)) <= 1e-8 * max(x, P_REF.a)


def test_event_self_convergence_under_rtol_halving():
    rtol = 1e-9
    tp1 = transit_points(P_REF, 0.8, SimConfig(rtol=rtol))
    tp2 = transit_points(P_REF, 0.8, SimConfig(rtol=rtol / 2))
    assert abs(tp1.x1 - tp2.x1) / tp1.x1 < 10 * rtol
    assert abs(tp1.s4 - tp2.s4) / tp1.s4 < 10 * rtol
    assert abs(tp1.ln_s2 - tp2.ln_s2) / abs(tp1.ln_s2) < 10 * rtol
    assert abs(tp1.ln_x3 - tp2.ln_x3) / abs(tp1.ln_x3) < 10 * rtol


def test_step_budget_raises(monkeypatch):
    monkeypatch.setattr(simulator, "MAX_STEPS", 5)
    with pytest.raises(StepLimitError, match="within 5 steps"):
        integrate(State(h(0.8, P_REF), 0.8), P_REF, n_downs=2)


NON_FINITE_CASES = """
import contextlib, io, json, math
from cyclebound import LogState, Params, SimConfig, cli, integrate, limit_cycle
from cyclebound.dopri import DOP853

p = Params(0.05, 0.05, 1.0)
cases = {
    "x0=nan": lambda: limit_cycle(p, x0=math.nan),
    "x0=inf": lambda: limit_cycle(p, x0=math.inf),
    "x0=0": lambda: limit_cycle(p, x0=0.0),
    "x0=-1": lambda: limit_cycle(p, x0=-1.0),
    "start u=nan": lambda: integrate(LogState(math.nan, math.log(0.05)), p),
    "start v=-inf": lambda: integrate(LogState(0.0, -math.inf), p),
    "rtol=inf": lambda: SimConfig(rtol=math.inf),
    "rtol=1e300": lambda: limit_cycle(p, SimConfig(rtol=1e300)),
    "rtol=0.5": lambda: limit_cycle(p, SimConfig(rtol=0.5)),
}
record = {}
for name, call in cases.items():
    try:
        call()
        record[name] = "returned"
    except Exception as exc:
        record[name] = f"{type(exc).__name__}: {exc}"
solver = DOP853(p, 0.0, (math.nan, -3.0))  # a NaN state gives a NaN step size
solver.step()
record["stepper"] = solver.status
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    record["cli"] = [
        cli.main(["cycle", "--a", "0.05", "--lambda", "0.05", "--m", "1", "--rtol", rtol])
        for rtol in ("0.5", "inf")
    ]
print(json.dumps(record))
"""


def test_non_finite_inputs_and_step_sizes_fail_fast():
    # each of these retried one trial step forever before: run them in a
    # child with a timeout, so that a regression fails instead of hanging
    src = str(Path(cyclebound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", NON_FINITE_CASES], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60, check=True,
    )
    record = json.loads(done.stdout)
    for value in ("nan", "inf"):
        got = record.pop(f"x0={value}")
        assert got == f"ValueError: x0 must be a finite int or float, got {value}"
    assert record.pop("x0=0") == "ValueError: x0 must be > 0, got 0.0"
    assert record.pop("x0=-1") == "ValueError: x0 must be > 0, got -1.0"
    assert record.pop("start u=nan") == "ValueError: start u must be a finite int or float, got nan"
    assert (
        record.pop("start v=-inf") == "ValueError: start v must be a finite int or float, got -inf"
    )
    assert record.pop("rtol=inf") == "ValueError: rtol must be a finite int or float, got inf"
    # finite tolerances so loose that the state diverges and the step
    # size becomes infinite
    for rtol in ("1e300", "0.5"):
        assert record.pop(f"rtol={rtol}").startswith("StepSizeError: "), rtol
    assert record == {"stepper": "failed", "cli": [3, 1]}


@pytest.mark.parametrize("keep_samples", [False, True])
def test_a_step_to_s_below_zero_is_an_integration_error(keep_samples):
    # the 1795th return-map tour of limit_cycle from x_max_upper at
    # (0.01, 0.01, 5) with rtol = 1e-4: an accepted w-chart step lands at w > 0, i.e. s < 0,
    # outside the invariant s > 0, where ln(1 - e^w) and the event
    # functions have no value; at rtol = 1e-6 the same tour closes
    p = Params(a=0.01, lam=0.01, m=5.0)
    start = LogState(1.6506704345117373, math.log(p.lam))
    with pytest.raises(IntegrationError, match=r"tau = 10627\.4 left the phase space"):
        integrate(start, p, SimConfig(rtol=1e-4), keep_samples=keep_samples)
    tour = integrate(start, p, SimConfig(rtol=1e-6), keep_samples=keep_samples)
    assert tour.events[-1].kind is EventKind.S_EQ_LAMBDA_DOWN


@pytest.mark.parametrize("keep_samples", [False, True])
@pytest.mark.parametrize(
    "params, ln_x, rtol, tau",
    [
        # the 846th tour from x_max_upper at rtol = 1e-4: the interpolant
        # reaches w > 709, where expm1(w) overflows
        ((0.01, 0.01, 1.0914347029616938), 0.39503553606616515, 1e-4, "13780.1"),
        # the 1151st tour at rtol = 1e-3: it reaches s + a <= 0, where
        # the log in the event function has no value
        ((0.01, 0.05, 0.9229299054979881), 0.15996614181475943, 1e-3, "2547.9"),
    ],
    ids=["overflow", "domain"],
)
def test_an_interpolant_beyond_s_zero_is_an_integration_error(
    keep_samples, params, ln_x, rtol, tau
):
    # the step itself ends at w < 0, inside the phase space, but the
    # x = h(s) crossing is located on an interpolant that leaves it; a
    # ten times tighter rtol closes the same tour
    p = Params(*params)
    start = LogState(ln_x, math.log(p.lam))
    message = rf"tau = {re.escape(tau)} left the phase space \(s <= 0\) inside the step"
    with pytest.raises(IntegrationError, match=message):
        integrate(start, p, SimConfig(rtol=rtol), keep_samples=keep_samples)
    tour = integrate(start, p, SimConfig(rtol=0.1 * rtol), keep_samples=keep_samples)
    assert tour.events[-1].kind is EventKind.S_EQ_LAMBDA_DOWN


def test_transit_points_sandwich():
    tp = transit_points(P_REF, 0.8)
    assert x_max_lower(P_REF) < tp.x1 < x_max_upper(P_REF)
    assert tp.s4 > 0.8
    b = cycle_bounds(P_REF)
    assert b.ln_x_min_lo < tp.ln_x3 < b.ln_x_min_hi
    with pytest.raises(ValueError):
        transit_points(P_REF, 0.01)  # start below lam


def test_limit_cycle_converges_and_matches_bounds():
    ce = limit_cycle(P_REF)
    assert ce.converged
    assert ce.residual <= 1e-9
    assert ce.period > 0
    b = cycle_bounds(P_REF)
    assert b.x_max_lo < ce.x_max < b.x_max_hi
    assert b.ln_x_min_lo < ce.ln_x_min < b.ln_x_min_hi
    assert b.ln_s_min_lo < ce.ln_s_min < b.ln_s_min_hi
    assert 0.8 < ce.s_max < 1.0


@pytest.mark.parametrize(
    "p", [Params(a=0.01, lam=0.01, m=0.01), Params(a=0.05, lam=0.01, m=0.01)],
    ids=["canard", "canard-a"],
)
def test_extremes_match_a_tight_reference(p):
    # all four extremes, in log units, against rtol = 1e-13 and
    # cycle_tol = 1e-12; the 5th-order stepper was 9.2e-7 off in ln s_min
    # at the canard point
    def logs(ce):
        return (math.log(ce.x_max), ce.ln_x_min, ce.ln_s_min, ce.ln_s_max)

    tight = limit_cycle(p, SimConfig(rtol=1e-13, cycle_tol=1e-12))
    for got, want in zip(logs(limit_cycle(p)), logs(tight)):
        assert abs(got - want) <= 2e-7


def test_limit_cycle_reports_the_converging_tour(monkeypatch):
    calls = []
    real_integrate = simulator.integrate

    def counting(*args, **kwargs):
        calls.append(kwargs.get("keep_samples", True))
        return real_integrate(*args, **kwargs)

    monkeypatch.setattr(simulator, "integrate", counting)
    cfg = SimConfig()
    ce = limit_cycle(P_REF, cfg)
    assert ce.converged
    assert len(calls) == ce.tours >= 2
    assert not any(calls)
    assert ce.residual <= cfg.cycle_tol
    assert ce.as_dict()["tours"] == ce.tours


def test_limit_cycle_locates_each_committed_crossing_once(monkeypatch):
    # every crossing is located in the step that commits it, and only
    # there: 5 at the canard point, 1 for the lead-in, which starts past
    # the prey maximum and commits only its descending s = lam crossing,
    # and 4 for the one return-map tour
    start = LogState(*_cycle_start(CANARD))
    expected = _events_step_by_step(start, CANARD, n_downs=1)
    calls = []
    real_locate = simulator._locate
    monkeypatch.setattr(
        simulator, "_locate", lambda *args: calls.append(args) or real_locate(*args)
    )
    ce = limit_cycle(CANARD)
    assert ce.tours == 2 and ce.raw_events == 4 and len(calls) == 5
    # one tour locates its four crossings; reading them locates nothing
    # more, and they reproduce the step by step reference
    del calls[:]
    tour = integrate(start, CANARD, keep_samples=False)
    assert len(calls) == len(tour.events) == 4
    assert tour.events == expected
    assert len(calls) == 4


@pytest.mark.parametrize(
    "p",
    [P_REF, CANARD, Params(a=0.01, lam=0.01, m=1e-3), DEEP],
    ids=["ref", "canard", "canard-m1e-3", "deep"],
)
def test_raw_events_counts_the_reported_tour(p):
    # the reported tour commits its four crossings and nothing else:
    # x - h(s) keeps its sign through the saddle passage, where 1 - s is
    # below the step error a v = ln s chart would make, and which the w
    # chart resolves; m = 1e-3 has the longest passage
    ce = limit_cycle(p)
    assert ce.raw_events == 4
    assert ce.as_dict()["raw_events"] == ce.raw_events


def test_solve_stats_count_the_stepper_work(monkeypatch):
    # steps are the step() calls of the reported tour and of all
    # integrations, the lead-in included; rejected_steps is the stepper's
    # count (checked against scipy in _step_side_by_side), and rhs_evals
    # 2 at the start, 12 a step, 11 a rejected trial and 1 a chart switch.
    # The lead-in starts in the w chart and switches once, into v; a tour
    # switches twice
    solvers = []

    class Counted(simulator.RK45):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = self.switches = 0
            self.started_in_w = self.w_chart
            solvers.append(self)

        def step(self):
            self.calls += 1
            super().step()

        def switch_chart(self):
            self.switches += 1
            super().switch_chart()

    def expected(solver):
        rhs = 2 + 12 * solver.calls + 11 * solver.n_rejected + solver.switches
        return SolveStats(solver.calls, solver.n_rejected, rhs)

    monkeypatch.setattr(simulator, "RK45", Counted)
    ce = limit_cycle(CANARD)
    assert len(solvers) == ce.tours == 2
    assert [solver.started_in_w for solver in solvers] == [True, False]
    assert [solver.switches for solver in solvers] == [1, 2]
    assert ce.stats == expected(solvers[-1]) and ce.stats.rejected_steps > 0
    assert ce.total_stats == expected(solvers[0]) + expected(solvers[1])
    assert ce.as_dict()["stats"] == {
        "steps": ce.stats.steps,
        "rejected_steps": ce.stats.rejected_steps,
        "rhs_evals": ce.stats.rhs_evals,
    }


@pytest.mark.parametrize(
    "p, tight",
    [(Params(a=0.01, lam=0.02, m=5.0), -81.625081225), (CANARD, -30.345943665)],
    ids=["deep", "canard"],
)
def test_prey_maximum_gap_converges_under_rtol_halving(p, tight):
    # ln(1 - s_max), read from the w chart, moves by less than 1e-6
    # relative when rtol halves, and sits next to a tight run's (rtol =
    # 1e-13), where 1 - s_max (e^-82 and e^-30) is far below the step
    # error of v = ln s
    def ln_gap(rtol):
        return math.log(-math.expm1(limit_cycle(p, SimConfig(rtol=rtol)).ln_s_max))

    coarse, fine = ln_gap(1e-10), ln_gap(5e-11)
    assert abs(coarse - fine) < 1e-6 * abs(fine)
    assert fine == pytest.approx(tight, abs=1e-7)


def test_limit_cycle_out_of_budget_reports_last_tour(monkeypatch):
    # MAX_RETURN_ITERS bounds the return-map tours after the lead-in, and
    # one always runs; (0.3, 0.3, 1) needs 32 of them
    p = Params(a=0.3, lam=0.3, m=1.0)
    for budget in (1, 0):
        monkeypatch.setattr(simulator, "MAX_RETURN_ITERS", budget)
        ce = limit_cycle(p)
        assert not ce.converged
        assert ce.tours == 2
        assert ce.residual > SimConfig().cycle_tol
        assert all(
            math.isfinite(v) for v in (ce.x_max, ce.s_max, ce.ln_x_min, ce.ln_s_min, ce.period)
        )
    monkeypatch.setattr(simulator, "MAX_RETURN_ITERS", 1)
    assert limit_cycle(p, x0=x_max_upper(p)).tours == 1


def _recorded_integrations(monkeypatch):
    """(start, w_chart, trajectory) of every integrate call limit_cycle makes."""
    runs = []
    real_integrate = simulator.integrate

    def recording(start, *args, **kwargs):
        traj = real_integrate(start, *args, **kwargs)
        runs.append((start, kwargs.get("w_chart", False), traj))
        return traj

    monkeypatch.setattr(simulator, "integrate", recording)
    return runs


@pytest.mark.parametrize("p", [P_REF, Params(a=0.1, lam=0.01, m=3.0)], ids=["ref", "3-tours"])
def test_the_lead_in_leaves_the_saddle_along_its_unstable_manifold(monkeypatch, p):
    # the lead-in starts in the w chart on 1 - s = x / (1 + a + m(1 - lam))
    # at ln x = LEAD_IN_LN_X, past the prey maximum, and commits one
    # crossing, the descending s = lam one the first tour starts from;
    # it counts in tours and total_stats
    runs = _recorded_integrations(monkeypatch)
    ce = limit_cycle(p)
    (start, w_chart, lead_in), (tour_start, _, _) = runs[:2]
    ln_x = simulator.LEAD_IN_LN_X
    assert start == (ln_x, ln_x - math.log(1.0 + p.a + p.m * (1.0 - p.lam)))
    assert [ev.kind for ev in lead_in.events] == [EventKind.S_EQ_LAMBDA_DOWN]
    assert tour_start == LogState(lead_in.events[0].state.u, math.log(p.lam))
    assert [w for _, w, _ in runs] == [True] + [False] * (len(runs) - 1)
    assert ce.converged and ce.tours == len(runs) >= 2
    assert ce.total_stats == sum((traj.stats for _, _, traj in runs), SolveStats())
    assert ce.stats == runs[-1][2].stats


@pytest.mark.parametrize(
    "p", [P_REF, CANARD, DEEP, Params(a=0.3, lam=0.3, m=1.0)],
    ids=["ref", "canard", "deep", "slow-contraction"],
)
def test_the_lead_in_finds_the_cycle_found_from_x_max_upper(p):
    cfg = SimConfig()
    lead = limit_cycle(p, cfg)
    outside = limit_cycle(p, cfg, x0=x_max_upper(p))
    assert lead.converged and outside.converged
    assert abs(math.log(lead.x_max) - math.log(outside.x_max)) <= 10 * cfg.cycle_tol


@pytest.mark.parametrize("m", [1e12, 1e300])
def test_an_extreme_m_is_a_typed_failure(m):
    # at m = 1e12 the lead-in's 1 - s = e^-37.6 is below the double
    # spacing at 1, so it is handed to the stepper as w; at m = 1e300 the
    # field is so large that the first trial step underflows to 0
    with pytest.raises(IntegrationError):
        limit_cycle(Params(0.05, 0.05, m))


def test_numpy_scalar_params_give_python_float_extremes():
    p = Params(a=np.float64(0.05), lam=np.float64(0.05), m=np.float64(1.0))
    assert all(type(v) is float for v in (p.a, p.lam, p.m))
    ce = limit_cycle(p, SimConfig(rtol=1e-8))
    for name in ("x_max", "s_max", "ln_x_min", "ln_s_min", "ln_s_max", "period", "residual"):
        assert type(getattr(ce, name)) is float, name


def test_limit_cycle_attracts_from_other_starts():
    cfg = SimConfig()
    ce_a = limit_cycle(P_REF, cfg)
    ce_b = limit_cycle(P_REF, cfg, x0=1.5 * x_max_upper(P_REF))
    assert abs(math.log(ce_a.x_max) - math.log(ce_b.x_max)) <= 10 * cfg.cycle_tol


def test_deep_cycle_stays_finite():
    p = Params(a=0.05, lam=0.05, m=5.0)
    ce = limit_cycle(p)
    assert ce.converged
    # frozen from two independent integration routes agreeing to 1e-7
    assert ce.ln_x_min == pytest.approx(-86.828689, abs=1e-4)
    loop = integrate(LogState(math.log(ce.x_max), math.log(p.lam)), p)
    assert np.all(np.isfinite(loop.points))
    assert loop.points[:, 0].min() < -86.0


def test_s_max_identity_matches_interpolated_coordinate():
    # at the prey-maximal crossing x = (1 - s)(s + a) exactly, so the
    # small root g of g^2 - (1 + a) g + x = 0 recovers 1 - s from the
    # located ln x alone.  It must agree with the 1 - s_max that the w
    # coordinate carries, on a cycle where 1 - s_max is 0.07 and on ones
    # where it is e^-30 and e^-82 (and the s_max float is 1.0)
    for p in (Params(a=0.1, lam=0.1, m=0.01), CANARD, Params(a=0.01, lam=0.02, m=5.0)):
        ce = limit_cycle(p)
        loop = integrate(LogState(math.log(ce.x_max), math.log(p.lam)), p)
        ev_max = [ev for ev in loop.events if ev.kind is EventKind.X_EQ_H_MAX][0]
        x = math.exp(ev_max.state.u)
        gap = 2.0 * x / ((1.0 + p.a) + math.sqrt((1.0 + p.a) ** 2 - 4.0 * x))
        assert -math.expm1(ev_max.state.v) == pytest.approx(gap, rel=1e-9)
        assert -math.expm1(ce.ln_s_max) == pytest.approx(gap, rel=1e-6)
        assert math.exp(ce.ln_s_max) == pytest.approx(ce.s_max, rel=1e-12)


def test_cycle_extreme_report_margins():
    rep = cycle_extreme_report(P_REF)
    assert rep.passed
    assert rep.bounds.proven
    assert set(rep.margins) == {
        "x_max_lo", "x_max_hi", "x_min_lo", "x_min_hi",
        "s_min_lo", "s_min_hi", "s_max_lo", "s_max_hi",
    }
    assert all(v > 0 for v in rep.margins.values())
    assert rep.min_margin == min(rep.margins.values())
    # the verdict is return-map convergence with every margin > 0
    assert rep.passed == (rep.extremes.converged and all(v > 0 for v in rep.margins.values()))


def test_cycle_extreme_report_forced_point():
    # outside the proven box the bounds are still compared, flagged unproven
    rep = cycle_extreme_report(Params(a=0.1, lam=0.1, m=1.0))
    assert not rep.bounds.proven
    assert rep.extremes.converged
    assert math.isfinite(rep.min_margin)
