import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45 as ScipyRK45

import cyclebound
from cyclebound import dopri, simulator
from cyclebound.bounds import cycle_bounds, x_max_lower, x_max_upper
from cyclebound.model import _EXP_CLIP, LogState, Params, State, equilibrium, h, log_vector_field
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


def stop_after(n):
    left = [n]

    def stop(_ev):
        left[0] -= 1
        return left[0] <= 0

    return stop


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


def _cycle_start(p):
    return (math.log(x_max_upper(p)), math.log(p.lam))


def _step_side_by_side(p, y0, rtol, n_steps, t_bound=math.inf, t0=0.0):
    """Step simulator.RK45 and scipy's RK45 on the log-space field side by side.

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
    steps must still be rejected by both and agree to that level, as
    must the step size each proposes next.  Returns the number of steps
    taken after a rejection and scipy's solver.
    """
    ours = simulator.RK45(p, t0, y0, t_bound, rtol=rtol, atol=1e-12)
    ref = ScipyRK45(
        lambda t, y: np.array(log_vector_field(LogState(y[0], y[1]), p)),
        t0, np.array(y0), t_bound, rtol=rtol, atol=1e-12,
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
        rejected = ref.t - t <= 0.9 * min(h_try, t_bound - t)
        assert (ours.t - t <= 0.9 * min(h_try, t_bound - t)) == rejected
        tol = 1e-9 if rejected else 1e-12
        retried += rejected
        assert ours.t - t == pytest.approx(ref.t - t, rel=100 * tol)
        assert ours.y == pytest.approx(tuple(ref.y), rel=tol, abs=tol)
        assert ours.h_abs == pytest.approx(ref.h_abs, rel=1e-3)
        ours_dense, ref_dense = ours.dense_output(), ref.dense_output()
        for x in (0.1, 0.5, 0.9):
            tau = ref.t_old + x * (ref.t - ref.t_old)
            assert ours_dense(tau) == pytest.approx(tuple(ref_dense(tau)), rel=tol, abs=tol)
    return retried, ref


@pytest.mark.parametrize("p", [P_REF, Params(a=0.01, lam=0.01, m=0.01)], ids=["ref", "canard"])
def test_stepper_matches_scipy_rk45_step_for_step(p):
    retried, _ = _step_side_by_side(p, _cycle_start(p), 1e-10, 600)
    assert retried > 0  # the rejection branch was exercised


def test_stepper_edge_cases_match_scipy():
    # rtol below 100 eps is floored, with a warning
    with pytest.warns(UserWarning):
        _step_side_by_side(P_REF, _cycle_start(P_REF), 1e-17, 50)
    with pytest.warns(UserWarning):
        floored = simulator.RK45(P_REF, 0.0, (0.0, -3.0), 1.0, rtol=0.0)
    assert floored.rtol == 100 * np.finfo(float).eps
    # from the origin the first step is capped at 100 times the trial
    # step, and the last step is clipped onto a finite t_bound
    _, ref = _step_side_by_side(P_REF, (0.0, 0.0), 1e-8, 10_000, t_bound=7.5)
    assert ref.status == "finished" and ref.t == 7.5
    # from (u, v) = (-50, 0.5) the field is small but turns fast (d2 > d1),
    # so the probe evaluation at y + h0 f sets the first step size
    _step_side_by_side(P_REF, (-50.0, 0.5), 1e-10, 50)
    # at t0 = 1e16 the minimal step (10 float spacings of t) is far too
    # long for the tolerance: both give up on the first step
    _, ref = _step_side_by_side(P_REF, _cycle_start(P_REF), 1e-10, 10_000, t0=1e16)
    assert ref.status == "failed" and ref.t == 1e16
    with pytest.raises(ValueError):
        simulator.RK45(P_REF, 1.0, (0.0, -3.0), 0.0)


def _reference_step(p, t, y, f, h_abs, rtol, atol):
    """One step of simulator.RK45 (t_bound = inf) with every stage a call
    of log_vector_field: the stepper as it was before the field was
    written out, with the same sums in the same order and the builtins
    abs, min and max.  Returns (t, y, f, h_abs) after the step."""
    d = dopri

    def fun(u, v):
        return log_vector_field(LogState(u, v), p)

    (u, v), (k1u, k1v) = y, f
    h_abs = max(h_abs, 10.0 * (math.nextafter(t, math.inf) - t))
    rejected = False
    while True:
        t_new = t + h_abs
        h = t_new - t
        k2u, k2v = fun(u + (d._A21 * k1u) * h, v + (d._A21 * k1v) * h)
        k3u, k3v = fun(
            u + (d._A31 * k1u + d._A32 * k2u) * h, v + (d._A31 * k1v + d._A32 * k2v) * h
        )
        k4u, k4v = fun(
            u + (d._A41 * k1u + d._A42 * k2u + d._A43 * k3u) * h,
            v + (d._A41 * k1v + d._A42 * k2v + d._A43 * k3v) * h,
        )
        k5u, k5v = fun(
            u + (d._A51 * k1u + d._A52 * k2u + d._A53 * k3u + d._A54 * k4u) * h,
            v + (d._A51 * k1v + d._A52 * k2v + d._A53 * k3v + d._A54 * k4v) * h,
        )
        k6u, k6v = fun(
            u + (d._A61 * k1u + d._A62 * k2u + d._A63 * k3u + d._A64 * k4u + d._A65 * k5u) * h,
            v + (d._A61 * k1v + d._A62 * k2v + d._A63 * k3v + d._A64 * k4v + d._A65 * k5v) * h,
        )
        u_new = u + h * (d._B1 * k1u + d._B3 * k3u + d._B4 * k4u + d._B5 * k5u + d._B6 * k6u)
        v_new = v + h * (d._B1 * k1v + d._B3 * k3v + d._B4 * k4v + d._B5 * k5v + d._B6 * k6v)
        k7u, k7v = fun(u_new, v_new)
        eu = (d._E1 * k1u + d._E3 * k3u + d._E4 * k4u + d._E5 * k5u + d._E6 * k6u + d._E7 * k7u) * h
        ev = (d._E1 * k1v + d._E3 * k3v + d._E4 * k4v + d._E5 * k5v + d._E6 * k6v + d._E7 * k7v) * h
        error_norm = d._rms(
            eu / (atol + max(abs(u), abs(u_new)) * rtol),
            ev / (atol + max(abs(v), abs(v_new)) * rtol),
        )
        if error_norm < 1.0:
            factor = 10.0 if error_norm == 0.0 else min(10.0, 0.9 * error_norm ** -0.2)
            if rejected:
                factor = min(factor, 1.0)
            return t_new, (u_new, v_new), (k7u, k7v), h * factor
        h_abs = h * max(0.2, 0.9 * error_norm ** -0.2)
        rejected = True


@pytest.mark.parametrize("p", [P_REF, Params(a=0.01, lam=0.01, m=0.01)], ids=["ref", "canard"])
def test_stepper_stages_are_log_vector_field(p, monkeypatch):
    # the field written out in the stages must be log_vector_field bit
    # for bit (repr tells every double apart): every accepted step over
    # one loop equals the step that calls it, and the last stage (FSAL)
    # is the field at the new state
    rejected = []

    class Checked(simulator.RK45):
        def step(self):
            before = (self.p, self.t, self.y, self.f, self.h_abs, self.rtol, self.atol)
            super().step()
            expected = _reference_step(*before)
            got = (self.t, self.y, self.f, self.h_abs)
            assert repr(got) == repr(expected)
            assert repr(self.f) == repr(log_vector_field(LogState(*self.y), p))
            # a rejection shrinks the trial step by a factor of at most 0.9
            rejected.append(self.t - before[1] <= 0.9 * before[4])

    monkeypatch.setattr(simulator, "RK45", Checked)
    start = LogState(*_cycle_start(p))
    integrate(start, p, stop=simulator.stop_at_down(1), keep_samples=False)
    assert len(rejected) > 500 and any(rejected)


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

    Returns the events and the number of located crossings that were
    dropped because the trajectory fell back before committing."""
    cfg = SimConfig()
    solver = simulator.RK45(
        p, 0.0, (start.u, start.v), t_bound=math.inf, rtol=cfg.rtol, atol=cfg.atol_log,
    )
    ln_lam = math.log(p.lam)

    def g_h(y):
        s = math.exp(min(y[1], _EXP_CLIP))
        hs = (1.0 - s) * (s + p.a)
        return math.inf if hs <= 0.0 else y[0] - math.log(hs)

    checks = (
        (lambda y: y[1] - ln_lam, {-1: EventKind.S_EQ_LAMBDA_DOWN, 1: EventKind.S_EQ_LAMBDA_UP}),
        (g_h, {-1: EventKind.X_EQ_H_MIN, 1: EventKind.X_EQ_H_MAX}),
    )
    arm = simulator._EVENT_ARM
    y0 = (start.u, start.v)
    ref_side = [simulator._sign(g(y0)) if abs(g(y0)) > arm else 0 for g, _ in checks]
    pending = [None, None]
    events = []
    fallbacks = 0
    while sum(ev.kind is EventKind.S_EQ_LAMBDA_DOWN for ev in events) < n_downs:
        t_old = solver.t
        solver.step()
        dense = solver.dense_output()
        confirmed = []
        for idx, (g, kinds) in enumerate(checks):
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
                    te = simulator._locate(g, dense, t_old, solver.t)
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
    traj = integrate(start, p, stop=simulator.stop_at_down(2), keep_samples=False)
    assert traj.events == expected
    assert (len(net_events(expected)) < len(expected)) == chatters


def _scipy_stepper(field):
    """A stand-in for simulator.RK45 (same constructor and interface)
    that steps scipy's RK45 on (u, v)' = field(u, v) instead of the
    model field."""

    class Stepper:
        def __init__(self, p, t0, y0, t_bound, rtol, atol):
            self._ref = ScipyRK45(
                lambda t, y: np.array(field(y[0], y[1])), t0, np.array(y0), t_bound,
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
    traj = integrate(start, P_REF, stop=simulator.stop_at_down(1), keep_samples=False)
    assert fallbacks >= 1
    assert [ev.kind for ev in expected] == [EventKind.S_EQ_LAMBDA_DOWN]
    assert traj.events == expected


def test_equilibrium_stays_put():
    traj = integrate(equilibrium(P_REF), P_REF, t_max=100.0)
    drift = np.abs(traj.points - traj.points[0]).max()
    assert drift <= 1e-12
    assert not traj.events


def test_event_order_over_three_loops():
    start = State(h(0.8, P_REF), 0.8)
    traj = integrate(start, P_REF, stop=stop_after(12))
    kinds = [ev.kind for ev in traj.events]
    assert len(kinds) == 12
    assert kinds == list(CANONICAL) * 3
    taus = [ev.tau for ev in traj.events]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_trajectory_samples_are_ordered_and_positive():
    traj = integrate(State(h(0.8, P_REF), 0.8), P_REF, stop=stop_after(4))
    assert np.all(np.diff(traj.taus) > 0)
    assert np.all(np.isfinite(traj.points))
    # exp-image positivity, checked at moderate depth where exp is exact
    x = np.exp(traj.points[:, 0])
    s = np.exp(traj.points[:, 1])
    assert np.all(x > 0) and np.all(s > 0)


def test_region_sequence_is_cyclically_adjacent():
    traj = integrate(State(h(0.8, P_REF), 0.8), P_REF, stop=stop_after(8))
    order = ["R1", "R2", "R3", "R4"]
    labels = [lab for lab in traj.region_labels(P_REF) if lab in order]
    for prev, nxt in zip(labels, labels[1:]):
        i, j = order.index(prev), order.index(nxt)
        assert j in (i, (i + 1) % 4), (prev, nxt)


def test_extremes_sit_on_isoclines():
    traj = integrate(State(h(0.8, P_REF), 0.8), P_REF, stop=stop_after(4))
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
            stop=stop_after(4),
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
    loop = integrate(
        LogState(math.log(ce.x_max), math.log(p.lam)),
        p,
        stop=lambda ev: ev.kind is EventKind.S_EQ_LAMBDA_DOWN,
    )
    assert np.all(np.isfinite(loop.points))
    assert loop.points[:, 0].min() < -86.0


def test_s_max_identity_matches_interpolated_coordinate():
    # on a cycle where 1 - s_max is well above roundoff, the prey value
    # recovered from the crossing identity x = h(s) must agree with the
    # interpolated log-prey coordinate of the event itself
    p = Params(a=0.1, lam=0.1, m=0.01)
    ce = limit_cycle(p)
    start = LogState(math.log(ce.x_max), math.log(p.lam))
    loop = integrate(start, p, stop=lambda ev: ev.kind is EventKind.S_EQ_LAMBDA_DOWN)
    ev_max = [ev for ev in loop.net_events() if ev.kind is EventKind.X_EQ_H_MAX][0]
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
