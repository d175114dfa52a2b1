import math
import os
import pickle
import subprocess
import sys
from dataclasses import make_dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853 as ScipyDOP853

import cyclebound
from cyclebound import simulator
from cyclebound.bounds import cycle_bounds, x_max_lower, x_max_upper
from cyclebound.model import LogState, Params, State, equilibrium, h, log_vector_field
from cyclebound.simulator import (
    EventKind,
    SimConfig,
    StepLimitError,
    cycle_extreme_report,
    integrate,
    limit_cycle,
    transit_points,
)

from hypothesis import given
from hypothesis import strategies as st

from cyclebound.simulator import Event, net_events

P_REF = Params(a=0.05, lam=0.05, m=1.0)

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


def test_sim_config_env_override(monkeypatch):
    monkeypatch.setenv("CYCLEBOUND_RTOL", "1e-8")
    assert SimConfig.from_env().rtol == 1e-8
    assert SimConfig.from_env(rtol=1e-11).rtol == 1e-11
    monkeypatch.delenv("CYCLEBOUND_RTOL")
    assert SimConfig.from_env().rtol == 1e-10
    with pytest.raises(ValueError):
        SimConfig(rtol=0.0)
    with pytest.raises(ValueError):
        SimConfig(max_return_iters=0)


def test_integrate_rejects_bad_params():
    with pytest.raises(ValueError):
        integrate(State(0.5, 0.5), Params(a=0.05, lam=0.05, m=0.0, limit=True))
    with pytest.raises(ValueError):
        integrate(State(0.5, 0.5), Params(a=0.3, lam=0.4, m=1.0))
    with pytest.raises(ValueError, match="n_downs"):
        integrate(State(0.5, 0.5), P_REF, n_downs=0)


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


def _step_side_by_side(p, y0, rtol, n_steps, t0=0.0):
    """Step simulator.RK45 and scipy's DOP853 on the log-space field side by side.

    scipy integrates (u, v)' = log_vector_field((u, v), p), the field the
    in-house stepper has written out in its stages.

    Before every step the in-house stepper is restarted from scipy's
    state (t, y, f and the proposed step size): the error estimate is a
    small difference of stage sums, so a different summation order
    moves the next step size in its last digits, and along a canard
    that difference is amplified until the two runs no longer share
    steps.  A step accepted at its first trial must then agree to
    roundoff, dense output included.  After a rejection the retried
    size is scaled by the error norm, whose roundoff it inherits; such
    steps must still be rejected by both, and their states agree to
    roundoff plus the field times the step-size difference.  The
    step size each proposes next must agree wherever the error estimate
    stands clear of its own roundoff (deep in a canard it need not).
    Returns the number of steps taken after a rejection and scipy's
    solver.
    """
    ours = simulator.RK45(p, t0, y0, rtol=rtol, atol=1e-12)
    ref = ScipyDOP853(
        lambda t, y: np.array(log_vector_field(LogState(y[0], y[1]), p)),
        t0, np.array(y0), np.inf, rtol=rtol, atol=1e-12,
    )
    assert ours.rtol == ref.rtol
    assert ours.h_abs == pytest.approx(ref.h_abs, rel=1e-12)
    retried = 0
    for _ in range(n_steps):
        if ref.status != "running":
            break
        t, h_try = float(ref.t), float(ref.h_abs)
        ours.t, ours.h_abs = t, h_try
        ours.y = (float(ref.y[0]), float(ref.y[1]))
        ours.f = (float(ref.f[0]), float(ref.f[1]))
        ours.step()
        ref.step()
        assert ours.status == ref.status
        if ref.status == "failed":
            break
        # a rejection shrinks the trial step by a factor of at most 0.9
        rejected = ref.t - t <= 0.9 * h_try
        assert (ours.t - t <= 0.9 * h_try) == rejected
        retried += rejected
        assert ours.t - t == pytest.approx(ref.t - t, rel=1e-7 if rejected else 1e-10)
        # a step longer by dt ends about |f| dt further on
        tol = 1e-12 + 2.0 * abs(ours.t - ref.t) * float(np.abs(ref.f).max())
        assert ours.y == pytest.approx(tuple(ref.y), rel=1e-12, abs=tol)
        if _error_estimate_resolved(ref):
            assert ours.h_abs == pytest.approx(ref.h_abs, rel=1e-3)
        ours_dense, ref_dense = ours.dense_output(), ref.dense_output()
        for x in (0.1, 0.5, 0.9):
            got = ours_dense(ours.t_old + x * (ours.t - ours.t_old))
            want = ref_dense(ref.t_old + x * (ref.t - ref.t_old))
            assert got == pytest.approx(tuple(want), rel=1e-12, abs=tol)
    return retried, ref


@pytest.mark.parametrize("p", [P_REF, Params(a=0.01, lam=0.01, m=0.01)], ids=["ref", "canard"])
def test_stepper_matches_scipy_dop853_step_for_step(p):
    retried, _ = _step_side_by_side(p, _cycle_start(p), 1e-10, 600)
    assert retried > 0  # the rejection branch was exercised


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


def _weighted(weights, ks):
    """sum of w_j k_j over the nonzero weights, left to right: the sums the
    stepper writes out, with scipy's DOP853 tableau."""
    return sum(float(w) * k for w, k in zip(weights, ks) if w != 0.0)


def _reference_step(p, t, y, f, h_abs, rtol, atol):
    """One step of simulator.RK45 with every stage a call
    of log_vector_field, the tableau taken from scipy's DOP853, and the
    builtins abs, min and max: the stepper with its field and constants
    not written out, the same sums in the same order.  Returns (t, y, f,
    h_abs) after the step and the interpolant over it."""

    def fun(u, v):
        return log_vector_field(LogState(u, v), p)

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


@pytest.mark.parametrize("p", [P_REF, Params(a=0.01, lam=0.01, m=0.01)], ids=["ref", "canard"])
def test_stepper_stages_are_log_vector_field(p, monkeypatch):
    # the field written out in the 12 stages of a step and the 3 extra
    # stages of its interpolant must be log_vector_field bit for bit
    # (repr tells every double apart), and the tableau scipy's: every
    # accepted step over one loop, and its interpolant at three points,
    # equal those of the step that calls the field, and the last stage
    # (FSAL) is the field at the new state
    rejected = []

    class Checked(simulator.RK45):
        def step(self):
            before = (self.p, self.t, self.y, self.f, self.h_abs, self.rtol, self.atol)
            super().step()
            expected, expected_dense = _reference_step(*before)
            assert repr((self.t, self.y, self.f, self.h_abs)) == repr(expected)
            assert repr(self.f) == repr(log_vector_field(LogState(*self.y), p))
            dense = self.dense_output()
            for x in (0.1, 0.5, 0.9):
                tau = before[1] + x * (self.t - before[1])
                assert repr(dense(tau)) == repr(expected_dense(tau))
            # a rejection shrinks the trial step by a factor of at most 0.9
            rejected.append(self.t - before[1] <= 0.9 * before[4])

    monkeypatch.setattr(simulator, "RK45", Checked)
    start = LogState(*_cycle_start(p))
    integrate(start, p, keep_samples=False)
    # one loop takes 124 steps at the reference point and about 1900 at
    # the canard point
    assert len(rejected) > 100 and any(rejected)


@pytest.mark.parametrize("p", [P_REF, Params(a=0.01, lam=0.01, m=0.01)], ids=["ref", "canard"])
def test_dense_output_is_a_snapshot_of_its_step(p):
    # an interpolant first evaluated five steps after its own step gives,
    # bit for bit, the values of one evaluated right after that step: a
    # crossing located on first read depends on this
    solver = simulator.RK45(p, 0.0, _cycle_start(p), rtol=1e-10, atol=1e-12)
    for _ in range(3):
        solver.step()
    t_old, t = solver.t_old, solver.t
    taus = [t_old + x * (t - t_old) for x in (0.1, 0.5, 0.9)]
    late = solver.dense_output()
    now = solver.dense_output()
    expected = [now(tau) for tau in taus]
    for _ in range(5):
        solver.step()
    assert solver.t_old > t
    assert repr([late(tau) for tau in taus]) == repr(expected)


def test_import_leaves_scipy_out():
    # the runtime needs numpy only; scipy is a test-time oracle
    src = str(Path(cyclebound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cyclebound; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"


def _events_step_by_step(start, p, n_downs):
    """Reference for integrate's events: every accepted step goes through
    the hysteresis bookkeeping, with each event function evaluated by its
    own closure, until the n_downs-th descending s = lam crossing.
    Crossings are located by integrate's own routine on integrate's own
    event functions, so the events must agree exactly.

    Returns the events and the number of located crossings that were
    dropped because the trajectory fell back before committing."""
    cfg = SimConfig()
    solver = simulator.RK45(p, 0.0, (start.u, start.v), rtol=cfg.rtol, atol=cfg.atol_log)
    checks = simulator._event_functions(p)
    arm = simulator._EVENT_ARM
    y0 = (start.u, start.v)
    ref_side = [simulator._sign(g(y0)) if abs(g(y0)) > arm else 0 for g, _, _ in checks]
    pending = [None, None]
    events = []
    fallbacks = 0
    while sum(ev.kind is EventKind.S_EQ_LAMBDA_DOWN for ev in events) < n_downs:
        t_old = solver.t
        solver.step()
        dense = solver.dense_output()
        confirmed = []
        for idx, (g, phi, kinds) in enumerate(checks):
            val = g(solver.y)
            side = simulator._sign(val)
            if side == 0:
                continue
            if ref_side[idx] == 0:
                ref_side[idx] = side if abs(val) > arm else 0
            elif side == ref_side[idx]:
                fallbacks += pending[idx] is not None
                pending[idx] = None
            else:
                if pending[idx] is None:
                    te = simulator._locate(g, phi, dense, t_old, solver.t)
                    pending[idx] = Event(te, LogState(*dense(te)), kinds[side])
                if abs(val) > arm:
                    confirmed.append(pending[idx])
                    ref_side[idx], pending[idx] = side, None
        events.extend(sorted(confirmed, key=lambda ev: ev.tau))
    return events, fallbacks


@pytest.mark.parametrize(
    "p, s0, chatters",
    [
        (P_REF, 0.8, False),
        (Params(a=0.01, lam=0.01, m=0.01), 0.8, True),
        (P_REF, 1.5, False),
    ],
    ids=["ref", "canard", "above-capacity"],
)
def test_quiet_step_path_keeps_every_event(p, s0, chatters):
    # the canard point re-crosses the isocline x = h(s) many times; the
    # start above s = 1, where h(s) <= 0, begins with g_h = +inf
    start = State(h(0.8, p), s0).log()
    expected, _ = _events_step_by_step(start, p, n_downs=2)
    traj = integrate(start, p, n_downs=2, keep_samples=False)
    assert traj.events == expected
    assert (len(net_events(expected)) < len(expected)) == chatters


def _scipy_stepper(field):
    """A stand-in for simulator.RK45 (same constructor and interface)
    that steps scipy's DOP853 on (u, v)' = field(u, v) instead of the
    model field."""

    class Stepper:
        def __init__(self, p, t0, y0, rtol, atol):
            self._ref = ScipyDOP853(
                lambda t, y: np.array(field(y[0], y[1])), t0, np.array(y0), np.inf,
                rtol=rtol, atol=atol,
            )

        t = property(lambda self: float(self._ref.t))
        y = property(lambda self: (float(self._ref.y[0]), float(self._ref.y[1])))
        status = property(lambda self: self._ref.status)

        def step(self):
            self._ref.step()

        def dense_output(self):
            dense = self._ref.dense_output()
            return lambda tau: tuple(float(c) for c in dense(tau))

    return Stepper


def test_quiet_step_path_drops_a_fallen_back_crossing(monkeypatch):
    # s dips below lam by less than the arming threshold and comes back,
    # then a slow drift takes it through for real one period later
    monkeypatch.setattr(
        simulator, "RK45", _scipy_stepper(lambda u, v: (1.0, 2e-7 * math.cos(u) - 1e-8))
    )
    start = LogState(0.0, math.log(P_REF.lam) + 2e-7)
    expected, fallbacks = _events_step_by_step(start, P_REF, n_downs=1)
    traj = integrate(start, P_REF, keep_samples=False)
    assert fallbacks >= 1
    assert [ev.kind for ev in expected] == [EventKind.S_EQ_LAMBDA_DOWN]
    assert traj.events == expected


def test_two_crossings_in_one_step_come_out_in_tau_order(monkeypatch):
    # a straight path through x = h(s) at tau = 0.999 and s = lam at
    # tau = 1: the stepper's steps grow tenfold on this field, so one step
    # commits both crossings, in the reverse of the order integrate checks
    # the isoclines in
    ln_lam = math.log(P_REF.lam)
    u0 = math.log(h(math.exp(ln_lam + 0.001), P_REF)) + 0.999
    monkeypatch.setattr(simulator, "RK45", _scipy_stepper(lambda u, v: (-1.0, -1.0)))
    start = LogState(u0, ln_lam + 1.0)
    expected, _ = _events_step_by_step(start, P_REF, n_downs=1)
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
    an event function changes sign, as (index into _event_functions,
    step interpolant, t_old, t, new side)."""
    checks = simulator._event_functions(p)
    solver = simulator.RK45(p, 0.0, _cycle_start(p), rtol=1e-10, atol=1e-12)
    brackets, lam_changes = [], 0
    while lam_changes < 2:
        t_old, y_old = solver.t, solver.y
        solver.step()
        for idx, (g, _, _) in enumerate(checks):
            before, after = simulator._sign(g(y_old)), simulator._sign(g(solver.y))
            if before and after and before != after:
                brackets.append((idx, solver.dense_output(), t_old, solver.t, after))
                lam_changes += idx == 0
    return checks, brackets


@pytest.mark.parametrize(
    "p",
    [P_REF, Params(a=0.01, lam=0.01, m=0.01), Params(a=0.02, lam=0.02, m=5.0)],
    ids=["ref", "canard", "deep"],
)
def test_illinois_and_bisection_locate_the_same_crossing(p):
    # Illinois on the smooth form against bisection on the log form (phi
    # unavailable): the same crossing to within the time tolerance, and
    # the returned end on the new side of the log form, or on its zero.
    # The canard point's loop re-crosses x = h(s) hundreds of times at
    # the saddle.
    checks, brackets = _loop_brackets(p)
    assert len(brackets) >= 4
    calls = []
    for idx, dense, t_lo, t_hi, side in brackets:
        g, phi, _ = checks[idx]
        tol = max(simulator._EVENT_TAU_TOL, 8.0 * sys.float_info.epsilon * abs(t_hi))
        te = simulator._locate(g, _count_calls(phi, calls), dense, t_lo, t_hi)
        tb = simulator._locate(g, lambda y: None, dense, t_lo, t_hi)
        assert t_lo <= te <= t_hi
        assert abs(te - tb) <= tol
        assert simulator._sign(g(dense(te))) in (side, 0)
    # about 13 evaluations a crossing, where bisection takes 35 to 40
    assert len(calls) <= 16 * len(brackets)


# a frozen dataclass of the three fields: what Event was before crossings
# were located on first read
_DataclassEvent = make_dataclass(
    "Event", [("tau", float), ("state", LogState), ("kind", EventKind)], frozen=True
)


def test_lazily_located_event_behaves_like_a_located_one(monkeypatch):
    # each comparison is the first read of a fresh deferred event, and
    # each locates exactly once
    checks, brackets = _loop_brackets(P_REF)
    idx, dense, t_lo, t_hi, side = brackets[1]
    g, phi, kinds = checks[idx]
    tau = simulator._locate(g, phi, dense, t_lo, t_hi)
    located = Event(tau, LogState(*dense(tau)), kinds[side])
    plain = _DataclassEvent(tau, LogState(*dense(tau)), kinds[side])
    calls = []
    real_locate = simulator._locate
    monkeypatch.setattr(
        simulator, "_locate", lambda *args: calls.append(args) or real_locate(*args)
    )

    def deferred():
        return Event._deferred(kinds[side], g, phi, dense, t_lo, t_hi)

    ev = deferred()
    assert ev.kind is kinds[side] and not calls
    assert ev == located and located == deferred()
    assert len(calls) == 2
    assert hash(deferred()) == hash(located) == hash(plain)
    assert repr(deferred()) == repr(located) == repr(plain)
    assert pickle.loads(pickle.dumps(deferred())) == located
    assert ev != Event(tau, located.state, kinds[-side])
    assert ev != plain  # another class, as between two dataclasses
    assert len(calls) == 5
    ev = deferred()
    assert (ev.state, ev.tau, ev.state) == (located.state, tau, located.state)
    assert len(calls) == 6
    with pytest.raises(AttributeError):
        ev.tau = 0.0


def test_smooth_event_function_has_the_sign_of_the_log_form():
    # phi = x - h(s) against g_h = u - ln h(s), including s >= 1 (v >= 0),
    # where h(s) <= 0 and g_h = +inf, and points within 1e-9 of x = h(s)
    for a in (0.01, 0.1):
        _, (g_h, phi_h, _) = simulator._event_functions(Params(a=a, lam=0.01, m=1.0))
        vs = [-60.0, -5.0, -0.5, -1e-3, -1e-9, -1e-14, -1e-20, -1e-300, 0.0, 1e-300, 1e-20,
              1e-9, 0.3, 2.0]
        for v in vs:
            ln_h = math.log(-math.expm1(v) * (math.exp(v) + a)) if v < 0 else None
            us = [-690.0, -100.0, -20.0, -1.0, 0.0, 1.0]
            if ln_h is not None and ln_h > -690.0:
                us += [ln_h - 1e-9, ln_h + 1e-9]
            for u in us:
                g, f = g_h((u, v)), phi_h((u, v))
                if g == math.inf:
                    assert v >= 0 and f > 0, (u, v)
                else:
                    assert simulator._sign(f) == simulator._sign(g), (u, v, f, g)
        assert phi_h((-700.5, -1.0)) is None


def test_locate_bisects_the_log_form_below_the_normal_range_of_x():
    # a straight path through x = h(s) at s = 1/2: from ln x = -800, where
    # e^u is no double at all, bisection on g_h finds the crossing; from
    # ln x = -600 Illinois on phi does, without g_h
    _, (g_h, phi_h, _) = simulator._event_functions(P_REF)
    ln_h = math.log(h(0.5, P_REF))
    for u0, g_calls_expected in ((-800.0, True), (-600.0, False)):
        root = (ln_h - u0) / (1.0 - u0)  # where u = ln h(1/2)

        def dense(tau, u0=u0):
            return (u0 + (1.0 - u0) * tau, math.log(0.5))

        g_calls = []
        te = simulator._locate(_count_calls(g_h, g_calls), phi_h, dense, 0.0, 1.0)
        assert abs(te - root) <= simulator._EVENT_TAU_TOL
        assert g_h(dense(te)) >= 0.0
        assert len(g_calls) > 30 if g_calls_expected else not g_calls
    # a path whose ends are both inside the normal range but which dips
    # below it where the first iterate lands: the rest is bisected
    a, b = math.log(2.0 * h(0.5, P_REF)), -750.0

    def dipping(tau):
        u = -650.0 + (b + 650.0) * 2.0 * tau if tau <= 0.5 else b + (a - b) * (2.0 * tau - 1.0)
        return (u, math.log(0.5))

    g_calls = []
    te = simulator._locate(_count_calls(g_h, g_calls), phi_h, dipping, 0.0, 1.0)
    root = 0.5 * (1.0 + (ln_h - b) / (a - b))
    assert g_calls and abs(te - root) <= simulator._EVENT_TAU_TOL
    # a crossing the interpolant does not resolve (both ends on the old
    # side) is put at the end of the step
    assert simulator._locate(g_h, phi_h, lambda tau: (0.0, math.log(0.5)), 0.0, 1.0) == 1.0


def test_equilibrium_stays_put():
    # the equilibrium is unstable, but its roundoff-scale defect stays
    # below 1e-12 over tau <= 100: at every step up to there, and at 100
    y0 = equilibrium(P_REF).log()
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


def test_region_sequence_is_cyclically_adjacent():
    traj = integrate(State(h(0.8, P_REF), 0.8), P_REF, n_downs=3)
    order = ["R1", "R2", "R3", "R4"]
    labels = [lab for lab in traj.region_labels(P_REF) if lab in order]
    for prev, nxt in zip(labels, labels[1:]):
        i, j = order.index(prev), order.index(nxt)
        assert j in (i, (i + 1) % 4), (prev, nxt)


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


def test_step_budget_raises():
    with pytest.raises(StepLimitError):
        integrate(
            State(h(0.8, P_REF), 0.8),
            P_REF,
            SimConfig(max_steps=5),
            n_downs=2,
        )


def test_transit_points_sandwich():
    tp = transit_points(P_REF, 0.8)
    assert x_max_lower(P_REF, 0.8) < tp.x1 < x_max_upper(P_REF)
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


def test_limit_cycle_locates_only_the_crossings_it_reads(monkeypatch):
    # the canard cycle commits about 120 crossings per tour, most of them
    # saddle chatter that net_events cancels by kind alone; only the
    # predator maximum that ends each tour and the three other survivors
    # of the reported one are located (5 where locating every committed
    # crossing takes 586)
    p = Params(a=0.01, lam=0.01, m=0.01)
    start = LogState(*_cycle_start(p))
    expected, _ = _events_step_by_step(start, p, n_downs=1)
    calls = []
    real_locate = simulator._locate
    monkeypatch.setattr(
        simulator, "_locate", lambda *args: calls.append(args) or real_locate(*args)
    )
    ce = limit_cycle(p)
    assert ce.tours == 2 and len(calls) == 5
    # forcing every committed crossing of a tour reproduces the step by
    # step reference
    del calls[:]
    tour = integrate(start, p, keep_samples=False)
    assert len(calls) == 1 and len(tour.events) > 100
    assert tour.events == expected
    assert len(calls) == len(tour.events)


@pytest.mark.parametrize(
    "p, chatters",
    [
        (P_REF, False),
        (Params(a=0.01, lam=0.01, m=0.01), True),
        (Params(a=0.02, lam=0.02, m=5.0), False),
    ],
    ids=["ref", "canard", "deep"],
)
def test_raw_events_counts_the_reported_tour(p, chatters):
    # the reported tour's committed crossings: the 4 net ones plus
    # cancelled pairs
    ce = limit_cycle(p)
    assert ce.raw_events >= 4 and (ce.raw_events - 4) % 2 == 0
    assert (ce.raw_events > 40) == chatters
    assert ce.as_dict()["raw_events"] == ce.raw_events


def test_limit_cycle_out_of_budget_reports_last_tour():
    ce = limit_cycle(P_REF, SimConfig(max_return_iters=1))
    assert not ce.converged
    assert ce.tours == 1
    assert ce.residual > SimConfig().cycle_tol
    assert all(
        math.isfinite(v) for v in (ce.x_max, ce.s_max, ce.ln_x_min, ce.ln_s_min, ce.period)
    )


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
    # on a cycle where 1 - s_max is well above roundoff, the prey value
    # recovered from the crossing identity x = h(s) must agree with the
    # interpolated log-prey coordinate of the event itself
    p = Params(a=0.1, lam=0.1, m=0.01)
    ce = limit_cycle(p)
    start = LogState(math.log(ce.x_max), math.log(p.lam))
    loop = integrate(start, p)
    ev_max = [ev for ev in net_events(loop.events) if ev.kind is EventKind.X_EQ_H_MAX][0]
    assert math.exp(ev_max.state.v) == pytest.approx(ce.s_max, rel=1e-8)
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
    assert len(rep.flags) == 6 and all(rep.flags.values())


def test_cycle_extreme_report_forced_point():
    rep = cycle_extreme_report(Params(a=0.1, lam=0.1, m=1.0), force=True)
    assert not rep.bounds.proven
    assert rep.extremes.converged
    assert math.isfinite(rep.min_margin)
