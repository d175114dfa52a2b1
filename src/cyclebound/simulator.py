"""High-accuracy cycle simulation in log space with event detection.

Integration happens in log variables: the field there is smooth and
bounded along the cycle even where x or s drop to e^{-1000}, which is
exactly where a solver in linear variables silently reports garbage.
Two charts share u = ln x.  Below s = 1/2 the second coordinate is
v = ln s; above it, it is w = ln(1 - s).  The cycle passes the saddle
(x, s) = (0, 1) with 1 - s as small as e^-85, far below the error a
step may make in v, while w resolves it to the step tolerance.
:func:`integrate` switches charts at the end of a step once s has
crossed 1/2, in either direction.

An adaptive embedded Runge-Kutta pair (DOP853, Dormand-Prince 8(5,3)
with 7th-order dense output, :mod:`cyclebound.dopri`) supplies the
steps.  An isocline crossing is detected as a sign change of its log
event function over an accepted step and located in that step: Illinois
regula falsi on the event function over the step's dense interpolant to
a tight time tolerance, then one interpolant evaluation for the state.

The four crossing kinds tile one loop of the cycle:

    S_EQ_LAMBDA_DOWN  s = lam, prey falling   (predator maximum),
    X_EQ_H_MIN        x = h(s), prey minimal,
    S_EQ_LAMBDA_UP    s = lam, prey rising    (predator minimum),
    X_EQ_H_MAX        x = h(s), prey maximal.

The limit cycle itself is the fixed point of the return map on the
section {s = lam, x > h(lam), s decreasing}.  A cycle of small abundances
passes exponentially close to the saddle (x, s) = (0, 1) and leaves it
along the saddle's unstable manifold, so :func:`limit_cycle` enters the
section by a lead-in from that manifold, then iterates the map plainly
and reports the converging tour: the lead-in and 1 to 3 tours on the
reference grid but 334 at (0.45, 0.27, 1), near the Hopf boundary.  A
tour moving ln x by Delta leaves it |Delta| / (1 - rho) from the fixed
point, rho the return map's slope (ROADMAP.md, open item 2: a Newton
return map).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Callable, Optional, Union

from ._lazy import np
from .bounds import BoundSet, cycle_bounds, x_max_upper_linear
from .dopri import DOP853 as RK45
from .model import LogState, Params, Region, State, finite_float, h, log1m_exp, require_cycle

__all__ = [
    "SimConfig",
    "EventKind",
    "Event",
    "Trajectory",
    "net_events",
    "SolveStats",
    "TransitPoints",
    "CycleExtremes",
    "CycleReport",
    "IntegrationError",
    "StepLimitError",
    "StepSizeError",
    "EventOrderError",
    "integrate",
    "transit_points",
    "limit_cycle",
    "cycle_extreme_report",
]

# absolute floor of the event-time bracket; widened by float spacing
# once tau itself outgrows it
_EVENT_TAU_TOL = 1e-12

# v = w = ln(1/2): the prey level s = 1/2 where the charts meet
_LN_HALF = -math.log(2.0)

# the absolute step tolerance in the log variables, the accepted-step
# budget of one integrate call and the return-map tour budget of
# limit_cycle
ATOL_LOG = 1e-12
MAX_STEPS = 2_000_000
MAX_RETURN_ITERS = 10_000
# ln x of the lead-in's start on the saddle's linearized unstable manifold
LEAD_IN_LN_X = -10.0


class IntegrationError(RuntimeError):
    """Base class for simulation failures."""


class StepLimitError(IntegrationError):
    """The accepted-step budget was exhausted."""


class StepSizeError(IntegrationError):
    """The solver's step size left [min_step, inf) (the tolerance is unreachable)."""


class EventOrderError(IntegrationError):
    """Crossings did not appear in the canonical region order."""


@dataclass(frozen=True)
class SimConfig:
    """Integration and cycle-detection tolerances.

    rtol controls the local error per step, componentwise in the log
    variables, next to the absolute :data:`ATOL_LOG`.  cycle_tol is the
    return-map fixed-point tolerance on ln x, a bound on one tour's move:
    the distance to the fixed point is cycle_tol / (1 - rho) at most.
    """

    rtol: float = 1e-10
    cycle_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rtol", "cycle_tol"):
            # stored as a float: a NumPy scalar would set the stepper's dtype
            value = finite_float(name, getattr(self, name))
            if not value > 0.0:
                raise ValueError("rtol and cycle_tol must be positive")
            object.__setattr__(self, name, value)


class EventKind(Enum):
    S_EQ_LAMBDA_DOWN = "s_eq_lambda_down"
    X_EQ_H_MIN = "x_eq_h_min"
    S_EQ_LAMBDA_UP = "s_eq_lambda_up"
    X_EQ_H_MAX = "x_eq_h_max"


# canonical loop order, entered from region 1
_CYCLE_ORDER = (
    EventKind.S_EQ_LAMBDA_DOWN,
    EventKind.X_EQ_H_MIN,
    EventKind.S_EQ_LAMBDA_UP,
    EventKind.X_EQ_H_MAX,
)


@dataclass(frozen=True)
class Event:
    """An isocline crossing: its time ``tau``, log state (u, v) and kind."""

    tau: float
    state: LogState
    kind: EventKind


@dataclass(frozen=True)
class SolveStats:
    """Stepper work: accepted and rejected steps and field evaluations.

    rhs_evals counts the evaluations of the steps (12 per accepted and
    11 per rejected trial), of the start and of each chart switch; the
    three extra stages of an interpolant evaluated to locate a crossing
    are not counted.
    """

    steps: int = 0
    rejected_steps: int = 0
    rhs_evals: int = 0

    def __add__(self, other: "SolveStats") -> "SolveStats":
        return SolveStats(
            self.steps + other.steps,
            self.rejected_steps + other.rejected_steps,
            self.rhs_evals + other.rhs_evals,
        )


@dataclass
class Trajectory:
    """Log-space samples at accepted steps plus committed crossings.

    taus is strictly increasing; points[i] = (u, v) at taus[i], mapped
    from w for the steps taken in the w chart.  The last sample is the
    state at the last event, the ``n_downs``-th predator maximum
    (descending s = lam crossing) the integration ends at.  With
    samples kept, taus and points are ndarrays of shape (n,) and (n, 2);
    without, they are the tuples (tau,) and ((u, v),) of that last
    sample alone, so a return-map tour builds no array.

    ``events`` records every sign change of the event functions, each
    located in the step that crossed it.  Each isocline is crossed twice
    per loop.  The saddle passage, where 1 - s falls to e^-30 at
    a = lam = m = 0.01 and to e^-85 in deep cycles, is integrated in
    w = ln(1 - s), so x - h(s) keeps its sign there; in v = ln s, whose
    step error is 1e-12 or more, it would change sign at every step that
    errs by more than 1 - s.  :func:`net_events` reduces the sequence to
    the topological one, which then is the sequence itself.  ``stats`` is
    the stepper's work.
    """

    taus: Union[np.ndarray, tuple]
    points: Union[np.ndarray, tuple]
    events: list[Event] = field(default_factory=list)
    stats: SolveStats = field(default_factory=SolveStats)

    def region_labels(self, p: Params) -> list[str]:
        g_lam, g_h = _event_functions(p)[0]
        return [_region(g_lam(y), g_h(y)).value for y in self.points]


_EVENT_FUNCTION = {
    EventKind.S_EQ_LAMBDA_DOWN: "lam",
    EventKind.S_EQ_LAMBDA_UP: "lam",
    EventKind.X_EQ_H_MIN: "h",
    EventKind.X_EQ_H_MAX: "h",
}


def net_events(events: list[Event]) -> list[Event]:
    """Cancel adjacent opposite re-crossings of the same isocline.

    A crossing immediately undone by the reverse crossing of the same
    event function is not a region transition; the surviving sequence
    cycles through the four kinds in the canonical order.
    """
    stack: list[Event] = []
    for ev in events:
        if (
            stack
            and _EVENT_FUNCTION[stack[-1].kind] == _EVENT_FUNCTION[ev.kind]
            and stack[-1].kind is not ev.kind
        ):
            stack.pop()
        else:
            stack.append(ev)
    return stack


@dataclass(frozen=True)
class TransitPoints:
    """One tour's crossing coordinates, minima kept in log space."""

    x1: float
    ln_s2: float
    ln_x3: float
    s4: float


@dataclass(frozen=True)
class CycleExtremes:
    """Extremes and transit points of the (converged) limit cycle.

    By construction x_max sits on a descending s = lam crossing,
    ln_x_min on the ascending one, ln_s_min on the prey-minimal
    isocline graze and s_max on the prey-maximal one.
    residual is the return-map defect |ln x_end - ln x_start| of the
    recorded loop, tours the number of integrations it took to find it:
    the lead-in from the saddle, when there is one, and the return-map
    tours (the recorded loop is the last of them).  raw_events is the
    number of crossings the recorded loop committed (4 when none
    re-crosses its isocline).  stats is the stepper's work on the
    recorded loop, total_stats on all integrations, the lead-in included.

    ln_s_max carries the prey maximum at full precision: 1 - s_max can
    sit far below the double spacing at 1 (deep cycles pass the saddle
    with 1 - s ~ e^{-85}), in which case the s_max float collapses to
    1.0 while ln_s_max = ln(1 - e^w), read from the w chart, stays
    meaningful.
    """

    x_max: float
    s_max: float
    ln_x_min: float
    ln_s_min: float
    ln_s_max: float
    period: float
    converged: bool
    residual: float
    tours: int
    raw_events: int
    stats: SolveStats
    total_stats: SolveStats

    def as_dict(self) -> dict:
        return asdict(self)


def _region(s_side: float, x_side: float) -> Region:
    """The region of a point from the signs of s - lam and x - h(s)."""
    if x_side == 0 and s_side == 0:
        return Region.EQUILIBRIUM
    if s_side == 0:
        return Region.ON_ISOCLINE_LAMBDA
    if x_side == 0:
        return Region.ON_ISOCLINE_H
    if x_side > 0:
        return Region.R1 if s_side > 0 else Region.R2
    return Region.R3 if s_side < 0 else Region.R4


def _sign(x: float) -> int:
    return int(x > 0) - int(x < 0)


# the kind of a crossing of s = lam (index 0) or x = h(s) (index 1) by
# the sign of its event function on the new side
_KINDS = (
    {-1: EventKind.S_EQ_LAMBDA_DOWN, 1: EventKind.S_EQ_LAMBDA_UP},
    {-1: EventKind.X_EQ_H_MIN, 1: EventKind.X_EQ_H_MAX},
)


def _event_functions(p: Params) -> tuple:
    """``(g_lam, g_h)`` of the v chart and of the w chart.

    Each g has the sign of s - lam or of x - h(s) and is smooth and
    finite across its isocline, so :func:`_locate` runs on it directly.
    In the v chart they are v - ln(lam) and
    u - ln(1 - e^v) - ln(e^v + a), the latter +inf where s >= 1 (h(s) <= 0,
    only above capacity, where a start may sit); in the w chart
    ln(1 - lam) - w and u - w - ln(s + a) with s = -expm1(w).
    """
    ln_lam = math.log(p.lam)
    ln_1m_lam = math.log1p(-p.lam)
    a = p.a

    def g_lam_v(y) -> float:
        return y[1] - ln_lam

    def g_h_v(y) -> float:
        v = y[1]
        if v >= 0.0:
            return math.inf
        return y[0] - math.log(-math.expm1(v)) - math.log(math.exp(v) + a)

    def g_lam_w(y) -> float:
        return ln_1m_lam - y[1]

    def g_h_w(y) -> float:
        w = y[1]
        return y[0] - w - math.log(a - math.expm1(w))

    return (g_lam_v, g_h_v), (g_lam_w, g_h_w)


def _locate(g: Callable, dense, t_lo: float, t_hi: float) -> float:
    """Locate a bracketed sign change of g on the dense interpolant.

    Illinois regula falsi on g, bisecting while an end is +inf (s >= 1
    in the v chart).  Refines the bracket to the 1e-12 time tolerance (or
    float spacing at large tau, whichever is coarser) and returns its end
    on the new side, so the post-event sign is consistent.  A zero of g
    is returned as it is, and a crossing within roundoff of t_hi, where g
    has not changed sign yet on the interpolant, returns t_hi.
    """
    tol = max(_EVENT_TAU_TOL, 8.0 * sys.float_info.epsilon * abs(t_hi))
    f_lo, f_hi = g(dense(t_lo)), g(dense(t_hi))
    if f_lo == 0.0:
        return t_lo
    lo_pos = f_lo > 0.0
    if f_hi != 0.0 and (f_hi > 0.0) == lo_pos:
        return t_hi
    kept = 0  # the end the last iterate replaced: -1 lo, 1 hi
    half_tol = 0.5 * tol
    while t_hi - t_lo > tol:
        if f_lo == math.inf or f_hi == math.inf:
            t = 0.5 * (t_lo + t_hi)
        else:
            t = t_hi - f_hi * ((t_hi - t_lo) / (f_hi - f_lo))
        # keep half a tolerance off both ends: a root that close to an
        # end is then bracketed by the next iterate instead of creeping
        # up on it
        if t < t_lo + half_tol:
            t = t_lo + half_tol
        elif t > t_hi - half_tol:
            t = t_hi - half_tol
        if t <= t_lo or t >= t_hi:
            break
        f = g(dense(t))
        if f == 0.0:
            return t
        if (f > 0.0) == lo_pos:
            t_lo, f_lo = t, f
            if kept < 0:
                f_hi *= 0.5
            kept = -1
        else:
            t_hi, f_hi = t, f
            if kept > 0:
                f_lo *= 0.5
            kept = 1
    return t_hi


def integrate(
    start: Union[State, LogState, tuple[float, float]],
    p: Params,
    cfg: Optional[SimConfig] = None,
    *,
    n_downs: int = 1,
    keep_samples: bool = True,
    w_chart: bool = False,
) -> Trajectory:
    """Integrate the log-space field up to the n_downs-th predator maximum.

    start may be a phase point or its log image, or with ``w_chart`` the
    pair (u, w) of the w chart, w = ln(1 - s) <= ln(1/2), which holds a
    start whose 1 - s is below the double spacing at 1.  The stepper works
    in the v chart below s = 1/2 and in the w chart between s = 1/2 and 1,
    and switches at the end of the first step on the other side (a start
    at s >= 1 stays in v until s < 1).  Every accepted step is checked
    for sign changes of the chart's event functions for s = lam and
    x = h(s) (:func:`_event_functions`); each is located on its step's
    dense interpolant (:func:`_locate`) and appended as an
    :class:`Event`.  A start on an isocline commits no crossing there.
    Crossings committed in one step are ordered by time.  The run ends
    at the n_downs-th descending s = lam crossing: the trajectory is cut
    back to it, so its last sample is that crossing's state.  With
    ``keep_samples=False`` that state is the only sample kept.

    Raises ValueError for n_downs < 1, a start coordinate that is not a
    finite int or float, a pair start without ``w_chart`` or a w-chart start
    below s = 1/2, StepLimitError after :data:`MAX_STEPS` accepted
    steps, StepSizeError on a solver stall, and IntegrationError when a
    step of a too loose tolerance lands at s <= 0, or its interpolant
    leaves s > 0 where a crossing is located in it, so a silently
    truncated trajectory is never returned.
    """
    cfg = cfg or SimConfig()
    if n_downs < 1:
        raise ValueError(f"n_downs must be at least 1, got {n_downs!r}")
    if p.limit:
        raise ValueError("simulation requires strictly positive parameters")
    require_cycle(p)
    if w_chart:
        u0, w0 = start
        u0, w0 = y0 = (finite_float("start u", u0), finite_float("start w", w0))
        if not w0 <= _LN_HALF:
            raise ValueError(f"a w-chart start needs w <= ln(1/2), got {y0}")
        ls = LogState(u0, log1m_exp(w0))
    else:
        if not isinstance(start, (State, LogState)):
            raise ValueError(
                f"a pair start is a w-chart start (pass w_chart=True), got {start!r}; "
                "a log-space start (u, v) goes in as a LogState"
            )
        ls = start.log() if isinstance(start, State) else start
        ls = LogState(finite_float("start u", ls.u), finite_float("start v", ls.v))
        w_chart = _LN_HALF < ls.v < 0.0
        y0 = (ls.u, log1m_exp(ls.v) if w_chart else ls.v)
    solver = RK45(p, 0.0, y0, rtol=cfg.rtol, atol=ATOL_LOG, w_chart=w_chart)
    charts = _event_functions(p)
    g_lam, g_h = charts[w_chart]
    # the side of each isocline the trajectory is on: 0 while it sits on
    # it, as a start within ATOL_LOG of it does (a start on x = h(s0) is
    # on it up to roundoff), and then its first side is no crossing
    sides = [_sign(val) if abs(val) > ATOL_LOG else 0 for val in (g_lam(y0), g_h(y0))]

    taus = [0.0]
    pts = [(ls.u, ls.v)]
    events: list[Event] = []
    downs = 0
    steps = 0
    max_steps = MAX_STEPS
    step = solver.step

    while True:
        if steps >= max_steps:
            raise StepLimitError(
                f"fewer than {n_downs} predator maxima within {max_steps} steps "
                f"(tau = {solver.t:.6g})"
            )
        t_old = solver.t
        step()
        steps += 1
        if solver.status == "failed":
            raise StepSizeError(
                f"step size underflow or overflow at tau = {solver.t:.6g}; "
                "the requested tolerance is unreachable"
            )
        y = solver.y
        if w_chart and y[1] >= 0.0:
            # w = ln(1 - s) >= 0 is s <= 0, outside the invariant s > 0
            raise IntegrationError(
                f"the step to tau = {solver.t:.6g} left the phase space (s <= 0); "
                "the requested tolerance is too loose"
            )
        if keep_samples:
            taus.append(solver.t)
            pts.append((y[0], log1m_exp(y[1])) if w_chart else y)
        val_lam = g_lam(y)
        val_h = g_h(y)
        # almost every step stays strictly on its side of both isoclines
        if not (val_lam * sides[0] > 0.0 and val_h * sides[1] > 0.0):
            crossed: list[Event] = []
            dense = None
            for idx, (g, val) in enumerate(((g_lam, val_lam), (g_h, val_h))):
                side = _sign(val)
                if side == 0 or side == sides[idx]:
                    continue
                if sides[idx] != 0:
                    if dense is None:
                        dense = solver.dense_output()
                    try:
                        tau = _locate(g, dense, t_old, solver.t)
                    except (OverflowError, ValueError):
                        # the w-chart g_h has no value where the interpolant
                        # leaves s > 0 far enough: math.log fails once
                        # s + a <= 0 and math.expm1 once w > 709
                        raise IntegrationError(
                            f"the step to tau = {solver.t:.6g} left the phase space "
                            "(s <= 0) inside the step; the requested tolerance is too loose"
                        ) from None
                    u, y1 = dense(tau)
                    state = LogState(u, log1m_exp(y1) if w_chart else y1)
                    crossed.append(Event(tau, state, _KINDS[idx][side]))
                sides[idx] = side
            crossed.sort(key=lambda ev: ev.tau)
            for ev in crossed:
                events.append(ev)
                if ev.kind is EventKind.S_EQ_LAMBDA_DOWN:
                    downs += 1
                    if downs == n_downs:
                        stats = SolveStats(steps, solver.n_rejected, solver.nfev)
                        end = (ev.state.u, ev.state.v)
                        if not keep_samples:
                            return Trajectory((ev.tau,), (end,), events, stats)
                        while taus and taus[-1] >= ev.tau:
                            taus.pop()
                            pts.pop()
                        taus.append(ev.tau)
                        pts.append(end)
                        return Trajectory(np.array(taus), np.array(pts), events, stats)
        if _LN_HALF < y[1] < 0.0:  # s crossed 1/2
            solver.switch_chart()
            w_chart = solver.w_chart
            g_lam, g_h = charts[w_chart]


def transit_points(p: Params, s0: float, cfg: Optional[SimConfig] = None) -> TransitPoints:
    """One tour from the isocline start (h(s0), s0) through all four crossings.

    Returns the predator value at the descending s = lam crossing, the
    log prey minimum, the log predator value back at s = lam and the
    prey value where the trajectory regains the isocline.
    """
    cfg = cfg or SimConfig()
    s0 = finite_float("s0", s0)
    if not (p.lam < s0 < 1.0):
        raise ValueError(f"need lam < s0 < 1, got {s0!r}")
    start = State(h(s0, p), s0)
    # run through to the second descending section crossing, past the
    # prey maximum, then reduce to the net crossing sequence
    traj = integrate(start, p, cfg, n_downs=2, keep_samples=False)
    reduced = net_events(traj.events)
    kinds = tuple(ev.kind for ev in reduced[:4])
    if kinds != _CYCLE_ORDER:
        raise EventOrderError(f"expected crossings {_CYCLE_ORDER}, got {kinds}")
    e1, e2, e3, e4 = reduced[:4]
    return TransitPoints(
        x1=math.exp(e1.state.u),
        ln_s2=e2.state.v,
        ln_x3=e3.state.u,
        s4=math.exp(e4.state.v),
    )


def limit_cycle(
    p: Params, cfg: Optional[SimConfig] = None, x0: Optional[float] = None
) -> CycleExtremes:
    """Locate the limit cycle and report its extremes.

    Iterates the return map on the section from x0 until one tour's
    start and end agree to cycle_tol in ln x, and reports the converging
    tour.  Without x0 the first iterate is where a lead-in reaches the
    section: an integration from the saddle's linearized unstable
    manifold 1 - s = x / (1 + a + m(1 - lam)) at ln x =
    :data:`LEAD_IN_LN_X` to its first descending s = lam crossing, which
    a cycle passing close to the saddle follows.  The lead-in counts in
    ``tours`` and ``total_stats``.  :data:`MAX_RETURN_ITERS` bounds the
    return-map tours after it, and at least one always runs; if none of
    them converges, the last one is still reported with
    ``converged=False``.  At a = lam = 0.05 and the default tolerances,
    ``converged`` holds up to m = 1e8; at m = 1e10 and 1e11 it is claimed
    without meeting cycle_tol, at m = 1e12 the search raises StepSizeError,
    and as m -> 0 the cost grows like 1/m (about 23 s at a = lam = 0.1, m = 1e-6).
    """
    cfg = cfg or SimConfig()
    if x0 is None:
        # 1 - s falls below the double spacing at 1 once m passes about
        # 4e11, so the start goes to the stepper as w = ln(1 - s)
        w0 = LEAD_IN_LN_X - math.log(x_max_upper_linear(p))
        lead_in = integrate((LEAD_IN_LN_X, w0), p, cfg, keep_samples=False, w_chart=True)
        tours, total = 1, lead_in.stats
        ln_x = lead_in.events[-1].state.u
    else:
        x0 = finite_float("x0", x0)
        if not x0 > 0.0:
            raise ValueError(f"x0 must be > 0, got {x0!r}")
        tours, total = 0, SolveStats()
        ln_x = math.log(x0)
    ln_lam = math.log(p.lam)
    budget = tours + MAX_RETURN_ITERS
    while True:
        # one full loop from the section {s = lam, s falling} back to it
        tour = integrate(LogState(ln_x, ln_lam), p, cfg, keep_samples=False)
        tours += 1
        total += tour.stats
        ln_x_start, ln_x = ln_x, tour.events[-1].state.u
        residual = abs(ln_x - ln_x_start)
        converged = residual <= cfg.cycle_tol
        if converged or tours >= budget:
            break
    reduced = net_events(tour.events)
    kinds = tuple(ev.kind for ev in reduced)
    expected = _CYCLE_ORDER[1:] + _CYCLE_ORDER[:1]  # MIN, UP, MAX, DOWN
    if kinds != expected:
        raise EventOrderError(f"expected crossings {expected}, got {kinds}")
    ev_min, ev_up, ev_max, ev_down = reduced
    # the prey maximum lies in the w chart unless the cycle stays below
    # s = 1/2, and its v = ln(1 - e^w) keeps 1 - s_max to full precision
    ln_s_max = ev_max.state.v
    return CycleExtremes(
        x_max=math.exp(ev_down.state.u),
        s_max=math.exp(ln_s_max),
        ln_x_min=ev_up.state.u,
        ln_s_min=ev_min.state.v,
        ln_s_max=ln_s_max,
        period=ev_down.tau,
        converged=converged,
        residual=residual,
        tours=tours,
        raw_events=len(tour.events),
        stats=tour.stats,
        total_stats=total,
    )


@dataclass(frozen=True)
class CycleReport:
    """Simulated extremes next to their bounds, with signed margins.

    Margins are log-space distances from the simulated value to each
    bound, positive when the value is strictly inside.  ``passed`` is
    return-map convergence with every margin > 0.

    min_margin is the smallest margin of all.  On most cycles it is
    s_max_hi = -ln s_max, which is structural (s < 1 on every
    trajectory) and as small as e^-85; binding_bound names the smallest
    of the other seven and binding_margin is its value.
    """

    params: Params
    bounds: BoundSet
    extremes: CycleExtremes
    margins: dict
    min_margin: float
    binding_bound: str
    binding_margin: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "bounds": self.bounds.as_dict(),
            "extremes": self.extremes.as_dict(),
            "margins": dict(self.margins),
            "min_margin": self.min_margin,
            "binding_bound": self.binding_bound,
            "binding_margin": self.binding_margin,
            "passed": self.passed,
        }


def cycle_extreme_report(p: Params, cfg: Optional[SimConfig] = None) -> CycleReport:
    """Merge :func:`limit_cycle` output with :func:`cycle_bounds`.

    The bounds are evaluated in forced mode: outside the proven box they
    are still compared, and ``bounds.proven`` is False.
    """
    b = cycle_bounds(p, force=True)
    ce = limit_cycle(p, cfg)
    ln_x_max = math.log(ce.x_max)
    ln_s_max = ce.ln_s_max
    margins = {
        "x_max_lo": ln_x_max - math.log(b.x_max_lo),
        "x_max_hi": math.log(b.x_max_hi) - ln_x_max,
        "x_min_lo": ce.ln_x_min - b.ln_x_min_lo,
        "x_min_hi": b.ln_x_min_hi - ce.ln_x_min,
        "s_min_lo": ce.ln_s_min - b.ln_s_min_lo,
        "s_min_hi": b.ln_s_min_hi - ce.ln_s_min,
        "s_max_lo": ln_s_max - math.log(b.s_max_lo),
        "s_max_hi": math.log(b.s_max_hi) - ln_s_max,
    }
    binding_bound, binding_margin = min(
        ((name, value) for name, value in margins.items() if name != "s_max_hi"),
        key=itemgetter(1),
    )
    return CycleReport(
        params=p,
        bounds=b,
        extremes=ce,
        margins=margins,
        min_margin=min(margins.values()),
        binding_bound=binding_bound,
        binding_margin=binding_margin,
        passed=ce.converged and all(margin > 0 for margin in margins.values()),
    )
