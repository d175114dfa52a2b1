"""High-accuracy cycle simulation in log space with event detection.

Integration happens entirely in (ln x, ln s): the field there is smooth
and bounded along the cycle even where x or s drop to e^{-1000}, which
is exactly where a solver in linear variables silently reports garbage.
An adaptive embedded Runge-Kutta pair (DOP853, Dormand-Prince 8(5,3)
with 7th-order dense output, :mod:`cyclebound.dopri`) supplies the
steps.  Isocline crossings are detected by sign bracketing over each
accepted step and committed with their kind; a crossing is located
(Illinois regula falsi on a smooth form of the event function over the
step's dense interpolant to a tight time tolerance, then one
interpolant evaluation for the state) when its time or state is first
read.  Re-crossing pairs that :func:`net_events` cancels are counted
but never located.

The four crossing kinds tile one loop of the cycle:

    S_EQ_LAMBDA_DOWN  s = lam, prey falling   (predator maximum),
    X_EQ_H_MIN        x = h(s), prey minimal,
    S_EQ_LAMBDA_UP    s = lam, prey rising    (predator minimum),
    X_EQ_H_MAX        x = h(s), prey maximal.

The limit cycle itself is the fixed point of the return map on the
section {s = lam, x > h(lam), s decreasing}; since the cycle is strongly
attracting, plain fixed-point iteration converges in a few loops, and
:func:`limit_cycle` reports the converging tour.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .bounds import BoundSet, cycle_bounds, x_max_upper
from .dopri import DOP853 as RK45
from .model import _EXP_CLIP, LogState, Params, Region, State, h

__all__ = [
    "SimConfig",
    "EventKind",
    "Event",
    "Trajectory",
    "net_events",
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

# below this ln x, e^u is no longer a normal double (the smallest one is
# e^-708.4), and x - h(s) loses x: crossings of x = h(s) are bisected on
# the log form there
_SMOOTH_U_MIN = -700.0

# a crossing only counts once the trajectory commits to the new side by
# this much (in log units).  Canard segments shadow the repelling branch
# of x = h(s) to within e^{-c/m}, which makes the raw sign of the event
# function chatter at roundoff scale; genuine transitions swing the
# event functions by at least O(m) (slide gap) or O(1) (excursions),
# orders of magnitude above this threshold for any m of interest.
_EVENT_ARM = 1e-7

_ENV_RTOL = "CYCLEBOUND_RTOL"


class IntegrationError(RuntimeError):
    """Base class for simulation failures."""


class StepLimitError(IntegrationError):
    """The accepted-step budget was exhausted."""


class StepSizeError(IntegrationError):
    """The solver hit its minimal step size (the tolerance is unreachable)."""


class EventOrderError(IntegrationError):
    """Crossings did not appear in the canonical region order."""


@dataclass(frozen=True)
class SimConfig:
    """Integration and cycle-detection tolerances.

    rtol/atol_log control the local error per step, componentwise in the
    log variables.  cycle_tol is the return-map fixed-point tolerance on
    ln x; max_return_iters caps the fixed-point iteration (generously,
    convergence typically takes two or three loops).
    """

    rtol: float = 1e-10
    atol_log: float = 1e-12
    max_steps: int = 2_000_000
    cycle_tol: float = 1e-9
    max_return_iters: int = 10_000

    def __post_init__(self) -> None:
        if not (self.rtol > 0 and self.atol_log > 0 and self.cycle_tol > 0):
            raise ValueError("rtol, atol_log and cycle_tol must be positive")
        if self.max_return_iters < 1:
            raise ValueError("max_return_iters must be at least 1")

    @classmethod
    def from_env(cls, **overrides) -> "SimConfig":
        """Default config, with rtol overridable via CYCLEBOUND_RTOL."""
        env = os.environ.get(_ENV_RTOL)
        if env is not None and "rtol" not in overrides:
            overrides["rtol"] = float(env)
        return cls(**overrides)


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


class Event:
    """An isocline crossing: its time ``tau``, log state and kind.

    ``Event(tau, state, kind)`` is a located crossing.  :func:`integrate`
    commits crossings with their kind only and the bracket to locate them
    in; ``tau`` and ``state`` are located (:func:`_locate`, then one
    interpolant evaluation) when either is first read, and kept.
    Equality, hashing, repr and pickling use the located values, as for a
    frozen dataclass of the three fields.
    """

    __slots__ = ("_tau", "_state", "_kind", "_bracket")

    def __init__(self, tau: float, state: LogState, kind: EventKind) -> None:
        self._tau = tau
        self._state = state
        self._kind = kind
        self._bracket = None

    @classmethod
    def _deferred(
        cls, kind: EventKind, g: Callable, phi: Callable, dense: Callable, t_lo: float,
        t_hi: float,
    ) -> "Event":
        """A crossing of kind ``kind`` inside ``[t_lo, t_hi]``, located on
        first read by ``_locate(g, phi, dense, t_lo, t_hi)``."""
        ev = cls.__new__(cls)
        ev._kind = kind
        ev._bracket = (g, phi, dense, t_lo, t_hi)
        return ev

    def _resolve(self) -> None:
        g, phi, dense, t_lo, t_hi = self._bracket
        tau = _locate(g, phi, dense, t_lo, t_hi)
        self._tau = tau
        self._state = LogState(*dense(tau))
        self._bracket = None

    @property
    def tau(self) -> float:
        if self._bracket is not None:
            self._resolve()
        return self._tau

    @property
    def state(self) -> LogState:
        if self._bracket is not None:
            self._resolve()
        return self._state

    @property
    def kind(self) -> EventKind:
        return self._kind

    def _located(self) -> tuple:
        return (self.tau, self.state, self._kind)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._located() == other._located()

    def __hash__(self) -> int:
        return hash(self._located())

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(tau={self.tau!r}, state={self.state!r}, "
            f"kind={self._kind!r})"
        )

    def __reduce__(self) -> tuple:
        return (self.__class__, self._located())


@dataclass
class Trajectory:
    """Log-space samples at accepted steps plus committed crossings.

    taus is strictly increasing; points[i] = (u, v) at taus[i].  The
    last sample is the state at the last event, the ``n_downs``-th
    predator maximum (descending s = lam crossing) the integration ends
    at.

    ``events`` records every committed sign change, each located only
    when its ``tau`` or ``state`` is first read (see :class:`Event`).
    During slow saddle passages the true 1 - s falls below the
    integration error that ``atol_log`` allows in v = ln s (e^-30 against
    v errors of 1e-12 to 1e-10 at a = lam = m = 0.01), so the computed v
    wanders about 0 and crosses x = h(s) back and forth; short
    re-crossing pairs appear there (about 120 per loop at that point, 2
    with atol_log = 1e-16), and :func:`net_events` cancels them by kind,
    without locating them, and returns the topological crossing sequence.
    """

    taus: np.ndarray
    points: np.ndarray
    events: list[Event] = field(default_factory=list)

    def region_labels(self, p: Params) -> list[str]:
        return [_region_from_log(u, v, p).value for u, v in self.points]


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
    cycles through the four kinds in the canonical order.  Only kinds
    are read, so no crossing is located here.
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
    recorded loop, tours the number of return-map tours integrated
    to find it (the recorded loop is the last of them), and raw_events
    the number of crossings the recorded loop committed: the four net
    ones plus the cancelled re-crossing pairs of saddle chatter.

    ln_s_max carries the prey maximum at full precision: 1 - s_max can
    sit far below the double spacing at 1 (deep cycles pass the saddle
    with 1 - s ~ e^{-100}), in which case the s_max float collapses to
    1.0 while ln_s_max = log1p(-(1 - s)) stays meaningful.
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

    def as_dict(self) -> dict:
        return asdict(self)


def _one_minus_s_at_h_crossing(u: float, p: Params) -> float:
    """Recover 1 - s at an x = h(s) crossing from the log predator value.

    At the crossing x = (1 - s)(s + a) exactly, so on the right branch
    w = 1 - s solves w^2 - (1 + a) w + x = 0; the stable small-root form
    keeps w meaningful down to e^{-700} where the interpolated v
    coordinate has long hit the double spacing at 1.
    """
    x = math.exp(u)
    disc = (1.0 + p.a) ** 2 - 4.0 * x
    return 2.0 * x / ((1.0 + p.a) + math.sqrt(max(disc, 0.0)))


def _region_from_log(u: float, v: float, p: Params) -> Region:
    s_side = v - math.log(p.lam)
    hs = h(math.exp(min(v, _EXP_CLIP)), p)
    x_side = math.inf if hs <= 0 else u - math.log(hs)
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


def _event_functions(p: Params) -> tuple:
    """``(g, phi, kinds)`` for the isoclines s = lam and x = h(s).

    g is the log form whose sign integrate tests after each step:
    v - ln(lam), and u - ln h(e^v), which is +inf where h(s) <= 0 (s >= 1
    can only sit on the x > h side).  phi has the sign of g and is smooth
    across the crossing, for :func:`_locate`: g_lam itself, and
    x - h(s) = e^u + expm1(v) (e^v + a), which stays finite and smooth
    through s = 1 where g_h jumps to +inf, and is None where e^u is not a
    normal double.  kinds maps the new side to the crossing's kind.
    """
    ln_lam = math.log(p.lam)
    a = p.a
    clip = _EXP_CLIP

    def g_lam(y) -> float:
        return y[1] - ln_lam

    def g_h(y) -> float:
        v = y[1] if y[1] < clip else clip
        hs = -math.expm1(v) * (math.exp(v) + a)
        if hs <= 0.0:
            return math.inf
        return y[0] - math.log(hs)

    def phi_h(y) -> Optional[float]:
        u, v = y
        if u < _SMOOTH_U_MIN:
            return None
        v = v if v < clip else clip
        return math.exp(u if u < clip else clip) + math.expm1(v) * (math.exp(v) + a)

    return (
        (g_lam, g_lam, {-1: EventKind.S_EQ_LAMBDA_DOWN, 1: EventKind.S_EQ_LAMBDA_UP}),
        (g_h, phi_h, {-1: EventKind.X_EQ_H_MIN, 1: EventKind.X_EQ_H_MAX}),
    )


def _locate(g: Callable, phi: Callable, dense, t_lo: float, t_hi: float) -> float:
    """Locate a bracketed sign change of g on the dense interpolant.

    Illinois regula falsi on phi, which has the sign of g and is smooth
    across the crossing (see :func:`_event_functions`); where phi is
    None, bisection on the sign of g.  Refines the bracket to the 1e-12
    time tolerance (or float spacing at large tau, whichever is coarser)
    and returns its end on the new side, so the post-event sign is
    consistent.  A zero of the function is returned as it is, and a
    crossing within roundoff of t_hi, where the function has not changed
    sign yet on the interpolant, returns t_hi.
    """
    tol = max(_EVENT_TAU_TOL, 8.0 * sys.float_info.epsilon * abs(t_hi))
    y_lo, y_hi = dense(t_lo), dense(t_hi)
    f_lo, f_hi = phi(y_lo), phi(y_hi)
    smooth = f_lo is not None and f_hi is not None
    if not smooth:
        f_lo, f_hi = g(y_lo), g(y_hi)
    if f_lo == 0.0:
        return t_lo
    lo_pos = f_lo > 0.0
    if f_hi != 0.0 and (f_hi > 0.0) == lo_pos:
        return t_hi
    kept = 0  # the end the last iterate replaced: -1 lo, 1 hi
    half_tol = 0.5 * tol
    while t_hi - t_lo > tol:
        if smooth:
            t = t_hi - f_hi * ((t_hi - t_lo) / (f_hi - f_lo))
        else:
            t = 0.5 * (t_lo + t_hi)
        # keep half a tolerance off both ends: a root that close to an
        # end is then bracketed by the next iterate instead of creeping
        # up on it
        if t < t_lo + half_tol:
            t = t_lo + half_tol
        elif t > t_hi - half_tol:
            t = t_hi - half_tol
        if t <= t_lo or t >= t_hi:
            break
        y = dense(t)
        f = phi(y) if smooth else None
        if f is None:
            smooth = False
            f = g(y)
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
    start: Union[State, LogState],
    p: Params,
    cfg: Optional[SimConfig] = None,
    *,
    n_downs: int = 1,
    keep_samples: bool = True,
) -> Trajectory:
    """Integrate the log-space field up to the n_downs-th predator maximum.

    start may be a phase point or its log image.  Every accepted step is
    checked for sign changes of v - ln(lam) and u - ln(h(e^v)); each
    crossing is appended as an :class:`Event` once the trajectory commits
    to the new side (hysteresis suppresses the roundoff-scale sign
    chatter of canard segments grazing the isocline), and is located on
    its step's dense interpolant (:func:`_locate`) when first read.
    Crossings committed in one step are ordered by time.  The run ends
    at the n_downs-th descending s = lam crossing, the once-per-loop
    section that saddle re-crossing pairs never touch: the trajectory is
    cut back to it, so its last sample is that crossing's state.  With
    ``keep_samples=False`` that state is the only sample kept.

    Raises ValueError for n_downs < 1, and StepLimitError/StepSizeError
    on budget exhaustion or a solver stall, so a silently truncated
    trajectory is never returned.
    """
    cfg = cfg or SimConfig()
    if n_downs < 1:
        raise ValueError(f"n_downs must be at least 1, got {n_downs!r}")
    if p.limit:
        raise ValueError("simulation requires strictly positive parameters")
    if not p.cycle_regime:
        raise ValueError("simulation requires the cycle regime 2*lam + a < 1")
    ls = start.log() if isinstance(start, State) else start
    y0 = (ls.u, ls.v)
    solver = RK45(p, 0.0, y0, rtol=cfg.rtol, atol=cfg.atol_log)
    checks = _event_functions(p)
    (g_lam, _, _), (g_h, _, _) = checks
    # hysteresis state per event function: the side the trajectory is
    # committed to (0 until it first clears the arming threshold) and
    # the detected-but-unconfirmed crossing of the current excursion
    ref_side = [0, 0]
    pending: list[Optional[Event]] = [None, None]
    for idx, (g, _, _) in enumerate(checks):
        val = g(y0)
        if abs(val) > _EVENT_ARM:
            ref_side[idx] = _sign(val)

    taus = [0.0]
    pts = [y0]
    events: list[Event] = []
    downs = 0
    steps = 0
    max_steps = cfg.max_steps
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
                f"step size underflow at tau = {solver.t:.6g}; "
                "the requested tolerance is unreachable"
            )
        y = solver.y
        # recorded before the events of this step: ending at one of them
        # cuts the trajectory back to the event anyway
        if keep_samples:
            taus.append(solver.t)
            pts.append(y)
        else:
            taus[-1] = solver.t
            pts[-1] = y
        # almost every step stays strictly on the committed side of both
        # isoclines with nothing pending, and then there is no hysteresis
        # bookkeeping to do.  val * side > 0 tests "same nonzero sign"; a
        # side not yet armed (0) takes the full path.
        val_lam = g_lam(y)
        val_h = g_h(y)
        if (
            val_lam * ref_side[0] > 0.0
            and val_h * ref_side[1] > 0.0
            and pending[0] is None
            and pending[1] is None
        ):
            continue
        confirmed: list[Event] = []
        dense = None
        for idx, val in enumerate((val_lam, val_h)):
            g, phi, kinds = checks[idx]
            side = _sign(val)
            if side == 0:
                continue
            if ref_side[idx] == 0:
                if abs(val) > _EVENT_ARM:
                    ref_side[idx] = side
                continue
            if side == ref_side[idx]:
                pending[idx] = None  # excursion fell back, no transition
                continue
            if pending[idx] is None:
                if dense is None:
                    dense = solver.dense_output()
                pending[idx] = Event._deferred(kinds[side], g, phi, dense, t_old, solver.t)
            if abs(val) > _EVENT_ARM:
                confirmed.append(pending[idx])
                ref_side[idx] = side
                pending[idx] = None
        if len(confirmed) > 1:  # the key locates, so a lone crossing is not sorted
            confirmed.sort(key=lambda ev: ev.tau)
        for ev in confirmed:
            events.append(ev)
            if ev.kind is EventKind.S_EQ_LAMBDA_DOWN:
                downs += 1
                if downs == n_downs:
                    while taus and taus[-1] >= ev.tau:
                        taus.pop()
                        pts.pop()
                    taus.append(ev.tau)
                    pts.append((ev.state.u, ev.state.v))
                    return Trajectory(np.array(taus), np.array(pts), events)


def transit_points(p: Params, s0: float, cfg: Optional[SimConfig] = None) -> TransitPoints:
    """One tour from the isocline start (h(s0), s0) through all four crossings.

    Returns the predator value at the descending s = lam crossing, the
    log prey minimum, the log predator value back at s = lam and the
    prey value where the trajectory regains the isocline.
    """
    cfg = cfg or SimConfig()
    if not (p.lam < s0 < 1.0):
        raise ValueError(f"need lam < s0 < 1, got {s0!r}")
    start = State(h(s0, p), s0)
    # run through to the second descending section crossing so that any
    # saddle-passage re-crossing pairs around the prey maximum have
    # resolved, then reduce to the net crossing sequence
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
        s4=1.0 - _one_minus_s_at_h_crossing(e4.state.u, p),
    )


def limit_cycle(
    p: Params, cfg: Optional[SimConfig] = None, x0: Optional[float] = None
) -> CycleExtremes:
    """Locate the limit cycle and report its extremes.

    Iterates the return map on the section from x0 (default: the
    closed-form x_max upper bound, which starts strictly outside the
    cycle) until one tour's start and end agree to cycle_tol in ln x,
    and reports the converging tour.  If the iteration budget runs out,
    the last tour is still reported with ``converged=False``.
    """
    cfg = cfg or SimConfig()
    ln_x = math.log(x0 if x0 is not None else x_max_upper(p))
    ln_lam = math.log(p.lam)
    tours = 0
    converged = False
    while not converged and tours < cfg.max_return_iters:
        # one full loop from the section {s = lam, s falling} back to it
        tour = integrate(LogState(ln_x, ln_lam), p, cfg, keep_samples=False)
        tours += 1
        ln_x_start, ln_x = ln_x, tour.events[-1].state.u
        converged = abs(ln_x - ln_x_start) <= cfg.cycle_tol
    reduced = net_events(tour.events)
    kinds = tuple(ev.kind for ev in reduced)
    expected = _CYCLE_ORDER[1:] + _CYCLE_ORDER[:1]  # MIN, UP, MAX, DOWN
    if kinds != expected:
        raise EventOrderError(f"expected crossings {expected}, got {kinds}")
    ev_min, ev_up, ev_max, ev_down = reduced
    x_max = math.exp(ev_down.state.u)
    one_minus_s = _one_minus_s_at_h_crossing(ev_max.state.u, p)
    return CycleExtremes(
        x_max=x_max,
        s_max=1.0 - one_minus_s,
        ln_x_min=ev_up.state.u,
        ln_s_min=ev_min.state.v,
        ln_s_max=math.log1p(-one_minus_s),
        period=ev_down.tau,
        converged=converged,
        residual=abs(ev_down.state.u - ln_x_start),
        tours=tours,
        raw_events=len(tour.events),
    )


@dataclass(frozen=True)
class CycleReport:
    """Simulated extremes next to their bounds, with signed margins.

    Margins are log-space distances from the simulated value to each
    bound, positive when the value is strictly inside.  The six flags
    split the four extreme checks the way the sweep counts them: both
    sides of x_max, the two log minima as intervals, both sides of
    s_max.  ``passed`` additionally requires return-map convergence.
    """

    params: Params
    bounds: BoundSet
    extremes: CycleExtremes
    margins: dict
    flags: dict
    min_margin: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "params": self.params.as_dict(),
            "bounds": self.bounds.as_dict(),
            "extremes": self.extremes.as_dict(),
            "margins": dict(self.margins),
            "flags": dict(self.flags),
            "min_margin": self.min_margin,
            "passed": self.passed,
        }


def cycle_extreme_report(
    p: Params,
    cfg: Optional[SimConfig] = None,
    s0: float = 0.8,
    force: bool = False,
) -> CycleReport:
    """Merge :func:`limit_cycle` output with :func:`cycle_bounds`."""
    b = cycle_bounds(p, s0=s0, force=force)
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
    flags = {
        "x_max_above_lo": margins["x_max_lo"] > 0,
        "x_max_below_hi": margins["x_max_hi"] > 0,
        "x_min_inside": margins["x_min_lo"] > 0 and margins["x_min_hi"] > 0,
        "s_min_inside": margins["s_min_lo"] > 0 and margins["s_min_hi"] > 0,
        "s_max_above_lo": margins["s_max_lo"] > 0,
        "s_max_below_hi": margins["s_max_hi"] > 0,
    }
    min_margin = min(margins.values())
    return CycleReport(
        params=p,
        bounds=b,
        extremes=ce,
        margins=margins,
        flags=flags,
        min_margin=min_margin,
        passed=all(flags.values()) and ce.converged,
    )
