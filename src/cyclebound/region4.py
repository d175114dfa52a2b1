"""Recovery-branch estimates: why the prey maximum exceeds 0.8.

After its deep excursion the trajectory re-enters the region below the
prey isocline at (x3, lam) with x3 astronomically small and climbs
toward large s.  The argument that it reaches s = s_gamma = 0.7 with a
still-tiny predator value, and from there overshoots s = 0.8, has two
stages:

1. Below a fraction k of the isocline, x < (1-k) h(s), the predator can
   only grow by the integrated factor B(s)^(m/k),

       B = ((s+a)/s)^{k2} (lam/(lam+a))^{k2}
           ((1-lam)(s+a)/(1-s))^{k3} (1/(lam+a))^{k3},

   k2 = lam/a, k3 = (1-lam)/(1+a), a ratio of antiderivative values at s
   and lam.  The sign of :func:`growth_ratio_quadratic` puts the maximum
   of B^(m/k)/h over [lam, s_gamma] at an endpoint, so the hand-off
   value x_gamma is at most the start value x3 times an amplification
   factor.  Chaining in the closed-form x3 bound gives the
   parameter-monotone :func:`handoff_cap_bound` and finally the m-only
   envelope :func:`handoff_cap_envelope`.
2. From (x_gamma, 0.7) a linear comparison system gives the explicit
   prey-maximum lower bound :func:`smax_lower_bound`; its shortfall from
   1 factorizes as alpha1 * alpha2 * alpha3 (:func:`alpha_factors`) and
   stays below 0.2 for every m.

The argument is made on two fixed parameter boxes, each with its own
barrier fraction: case A (a, lam <= 1/20, k = 3/4) and case B
(a <= 1/10, lam <= 1/100, k = 2/3), both handing off at
s_gamma = :data:`S_GAMMA` = 0.7.  The closed forms switch from a
low-m to a high-m branch at m = :data:`M_BRANCH` = 0.3.  These are
constants of the proof, not tunables: a :class:`Case` member carries
its own, and a function that depends on the case takes the member.

The cap chain, the envelope, the quadratic and the alpha factors read m, s
and ``p``'s a, lam and m by the rule of :mod:`cyclebound._arith` and compute
with the values read; on arrays (within 4 ulp of floats, as NumPy is not
libm) every check runs on every element and names the first failing input.
A public call that takes ``p`` reads it once, with one domain check (a, lam
and m finite and >= 0, what ``Params(limit=True)`` admits) that runs on each
input's own axes, and hands the arithmetic and the values read to the
private steps of the chain.  The cap chain runs z2 in its kernel
``lvroot._z``, on the y its own checks have proved in [1, inf).
"""

from __future__ import annotations

import math
from enum import Enum
from types import SimpleNamespace
from typing import NamedTuple

from ._arith import choose, read
from .bounds import S_MAX_LO
# z is not called here: perfbench's tracer hooks region4.z by name (ROADMAP item 1(a))
from .lvroot import ZIndex, _z, z
from .model import PROVEN_BOXES, Params, finite_float, h, hopf_margin, positive_float

__all__ = [
    "M_BRANCH",
    "S_GAMMA",
    "Case",
    "AlphaFactors",
    "handoff_cap_bound",
    "handoff_cap_bound_ln",
    "handoff_cap_envelope",
    "growth_ratio_quadratic",
    "smax_lower_bound",
    "alpha_factors",
    "alpha2_peak",
]

M_BRANCH = 0.3  # m value separating the two closed-form branches
S_GAMMA = 0.7  # hand-off prey level of both cases


class Case(Enum):
    """One of the two proven parameter boxes, with its barrier fraction.

    A is a, lam <= 1/20 with k = 3/4; B is a <= 1/10, lam <= 1/100 with
    k = 2/3.  Each member carries ``k`` and its box's corner ``a_max``,
    ``lam_max`` (read from :data:`cyclebound.model.PROVEN_BOXES`).
    """

    A = "A"
    B = "B"

    def __init__(self, value: str) -> None:
        # plain attributes, as on ZIndex
        self.k = {"A": 0.75, "B": 2.0 / 3.0}[value]
        self.a_max, self.lam_max = PROVEN_BOXES[value]


# handoff_cap_envelope coefficients (x_gamma <= (c0 + c1 m) exp(c2 m + c3)),
# one (low-m, high-m) pair per case
_ENVELOPE = {
    Case.A: ((0.324, 0.404, 1.099, -2.631), (0.190, 0.681, -2.048, -1.789)),
    Case.B: ((0.350, 0.563, 1.113, -2.295), (0.201, 0.832, -2.048, -1.652)),
}

# closed-form caps on the recovery start value x3: (c, r) meaning c * exp(-r / h(lam)),
# again one (low-m, high-m) pair per case
_START_CAP = {
    Case.A: ((0.324, 0.25), (0.383, 0.343)),
    Case.B: ((0.350, 0.25), (0.428, 0.383)),
}


class AlphaFactors(NamedTuple):
    """Factorization of the prey-maximum shortfall bound.

    alpha = alpha1 * alpha2 * alpha3 is an upper estimate of 1 - s_max
    for the trajectory handed off at (x_gamma, s_gamma); delta is the
    linear-system drop 1 - s_gamma - x_gamma/(m + M).  Every field but
    the constant M is an array of m's shape when m is one.
    """

    alpha1: float | np.ndarray
    alpha2: float | np.ndarray
    alpha3: float | np.ndarray
    alpha: float | np.ndarray
    delta: float | np.ndarray
    M: float
    x_gamma: float | np.ndarray

    def as_dict(self) -> dict:
        return self._asdict()


def _read_point(p, **more) -> tuple[SimpleNamespace, SimpleNamespace]:
    """The arithmetic ``p``'s a, lam and m and ``more`` select, and each of
    them as read; a, lam and m must be finite and nonnegative.  Each is
    checked on its own axes; only a failure broadcasts them together, to
    name the first failing point."""
    arith, values = choose(a=p.a, lam=p.lam, m=p.m, **more)
    q = SimpleNamespace(**values)
    ok_a, ok_lam, ok_m = ((0.0 <= x) & (x < math.inf) for x in (q.a, q.lam, q.m))
    # a bare ok's first failure is None only where every element holds
    if any(arith.first_failure(ok) is not None for ok in (ok_a, ok_lam, ok_m)):
        _check(arith, ok_a & ok_lam & ok_m, q, "a, lam and m must be finite and nonnegative")
    return arith, q


def _check(arith, ok, p, message: str) -> None:
    """Raise ValueError(message) at the first (a, lam, m) of ``p`` where ``ok`` fails."""
    if bad := arith.first_failure(ok, p.a, p.lam, p.m):
        a, lam, m = bad
        raise ValueError(f"{message} at (a, lam, m) = ({a!r}, {lam!r}, {m!r})")


def _ln_gain(arith, q, case: Case) -> float | np.ndarray:
    """Log of the hand-off amplification factor

        (e^{lam/s_gamma} (s_gamma + a) / (1 - s_gamma) / (a + lam))^(m/k),

    which bounds x_gamma / x3; in log space since m/k can make it
    astronomically large.  ``q`` is a point as :func:`_read_point` gives it.
    """
    log = arith.log
    ln_factor = q.lam / S_GAMMA + log(S_GAMMA + q.a) - log(1.0 - S_GAMMA) - log(q.a + q.lam)
    return (q.m / case.k) * ln_factor


def _x_max_lower_coarse(arith, q, case: Case) -> float | np.ndarray:
    """Linear-in-m lower estimate c0 + m c of the x_max lower bound.

    Freezes the barrier anchor at the parabola vertex for the worst
    allowed a when m < 0.3 and at z = :data:`cyclebound.bounds.S_MAX_LO`
    = 0.8 (the anchor of the x_max lower bound) otherwise, so only lam
    and m remain:

        m < 0.3:   1/4 + m ((1-a_max)/2 - lam (1 - ln lam + ln (1-a_max)/2))
        m >= 0.3:  h(0.8) + m (0.8 - lam (1 - ln lam + ln 0.8)).

    ``q`` is a point as :func:`_read_point` gives it, with its arithmetic.
    """
    _check(arith, hopf_margin(q) > 0.0, q, "coarse x_max lower bound requires the cycle regime")
    low_m = q.m < M_BRANCH
    anchor = arith.where(low_m, 0.5 * (1.0 - case.a_max), S_MAX_LO)
    c0 = arith.where(low_m, 0.25, h(S_MAX_LO, q))
    # lam ln lam -> 0 as lam -> 0: the log reads 1 there, so the term is 0
    ln_lam = arith.log(arith.where(q.lam == 0.0, 1.0, q.lam))
    lam_term = q.lam * (1.0 - ln_lam + arith.log(anchor))
    return c0 + q.m * (anchor - lam_term)


def handoff_cap_bound_ln(p, case: Case) -> float | np.ndarray:
    """Log of :func:`handoff_cap_bound` (the value underflows deep in the
    case boxes, where the exponent drops below -1400)."""
    return _handoff_cap_bound_ln(*_read_point(p), case)


def _handoff_cap_bound_ln(arith, q, case: Case) -> float | np.ndarray:
    """The ln cap at a point ``q`` as :func:`_read_point` gives it.

    z2 runs in its kernel ``lvroot._z`` on ``arith``, with no read and no
    check, because the checks here prove y = x1t/h(lam) in [1, inf) at
    every element: x1t > h(lam) > 0 makes the exact quotient exceed 1, so
    its correctly rounded value is at least 1, and y < inf is checked.
    """
    x1t = _x_max_lower_coarse(arith, q, case)
    h_lam = h(q.lam, q)  # 0 at a = lam = 0, in limit mode
    _check(arith, h_lam > 0.0, q, "h(lam) must be positive")
    _check(arith, x1t > h_lam, q, "coarse x_max estimate must exceed h(lam)")
    y = arith.divide(x1t, h_lam)
    _check(arith, y < math.inf, q, "x1t/h(lam) must be finite")
    return _ln_gain(arith, q, case) + arith.log(_z(arith, ZIndex.Z2, y)) + arith.log(x1t) - y


def handoff_cap_bound(p, case: Case) -> float | np.ndarray:
    """Closed-form upper estimate of the hand-off cap.

    The start value x3 times the amplification factor of the hand-off,
    with x3 replaced by its chained closed-form bound
    z2(x1t/h(lam)) x1t e^{-x1t/h(lam)} and x1t the coarse x_max lower
    estimate.  Nondecreasing in both a and lam on each case box, which
    is what lets a single corner evaluation dominate the whole box.
    """
    arith, q = _read_point(p)
    return arith.exp(_handoff_cap_bound_ln(arith, q, case))


def handoff_cap_envelope(m: float | np.ndarray, case: Case) -> float | np.ndarray:
    """Parameter-free envelope of the hand-off cap, a function of m only.

    Piecewise closed form with the deliberate (tiny) discontinuity at
    m = 0.3 left exactly as the two branch constants produce it:

        case A:  (0.324 + 0.404 m) e^{1.099 m - 2.631}    m <= 0.3
                 (0.190 + 0.681 m) e^{-2.048 m - 1.789}   m > 0.3
        case B:  (0.350 + 0.563 m) e^{1.113 m - 2.295}    m <= 0.3
                 (0.201 + 0.832 m) e^{-2.048 m - 1.652}   m > 0.3.
    """
    arith, m = read("m", m)
    if bad := arith.first_failure((0.0 <= m) & (m < math.inf), m):
        raise ValueError(f"m must be finite and nonnegative, got {bad[0]!r}")
    low_m = m <= M_BRANCH
    c0, c1, c2, c3 = (arith.where(low_m, lo, hi) for lo, hi in zip(*_ENVELOPE[case]))
    return (c0 + c1 * m) * arith.exp(c2 * m + c3)


def growth_ratio_quadratic(s, p, case: Case) -> float | np.ndarray:
    """Convex quadratic whose sign drives the barrier-ratio monotonicity.

        G*(s) = 2 (k/m) s^2 + (a k/m - k/m + 1) s - lam,

    with m from ``p`` and the case's barrier fraction k.  G*(lam) < 0 <
    G*(1) in the cycle regime, so B^(m/k)/h has a single interior
    minimum and its maximum over [lam, s_gamma] sits at an endpoint.
    s must be finite, and m nonzero with k/m finite: m above about
    4.2e-309 (case A) or 3.7e-309 (case B).  Where this form overflows
    (2 k/m does below about 8.3e-309 in case A, 7.4e-309 in case B), G*
    is taken in the factored form (k/m) s (2s + a - 1) + s - lam, with no
    warning on arrays; it is inf only where G* is past the double range.
    """
    arith, q = _read_point(p, s=s)
    if bad := arith.first_failure((-math.inf < q.s) & (q.s < math.inf), q.s, q.a, q.lam, q.m):
        s, a, lam, m = bad
        raise ValueError(f"s must be finite, got {s!r} at (a, lam, m) = ({a!r}, {lam!r}, {m!r})")
    _check(arith, q.m != 0, q, "m must be nonzero")
    km = arith.divide(case.k, q.m)
    _check(arith, km < math.inf, q, "k/m must be finite")
    with arith.quiet():
        plain = 2.0 * km * q.s * q.s + (q.a * km - km + 1.0) * q.s - q.lam
        factored = km * q.s * (2.0 * q.s + q.a - 1.0) + q.s - q.lam
    return arith.where((-math.inf < plain) & (plain < math.inf), plain, factored)


def smax_lower_bound(x_gamma: float, m: float) -> float:
    """Prey-maximum lower bound from the linear comparison system.

    The trajectory from (x_gamma, s_gamma) stays above the orbit of
    s' = M(1-s) - x, x' = m x as long as x < M(1-s), and leaves that
    wedge at

        s = 1 - ((-d)^m x_gamma^M (m+M)^m / (M^M m^m))^(1/(M+m)),
        d = s_gamma + x_gamma/(m+M) - 1,

    with M = s_gamma = :data:`S_GAMMA`, evaluated through logarithms
    since the exponents span orders of magnitude.  Where that sum is not
    finite (m ln(m + M) overflows from about m = 2.556e305), each term is
    divided by M + m first and m ln((m + M)/m) is m log1p(M/m), so the
    bound stays finite up to the largest float.  Requires
    x_gamma < M (1 - s_gamma) so that d < 0.  x_gamma is read by
    :func:`cyclebound.model.finite_float`, m by ``positive_float``.
    """
    s_gamma = M = S_GAMMA
    x_gamma, m = finite_float("x_gamma", x_gamma), positive_float("m", m)
    if not 0.0 < x_gamma < M * (1.0 - s_gamma):
        raise ValueError(
            f"need 0 < x_gamma < M (1 - s_gamma) = {M * (1.0 - s_gamma)!r}, "
            f"got {x_gamma!r}"
        )
    d = s_gamma + x_gamma / (m + M) - 1.0
    ln_term = (
        m * math.log(-d)
        + M * math.log(x_gamma)
        + m * math.log(m + M)
        - M * math.log(M)
        - m * math.log(m)
    ) / (M + m)
    if not -math.inf < ln_term < math.inf:
        e1, e2 = m / (M + m), M / (M + m)
        ln_term = e1 * (math.log(-d) + math.log1p(M / m)) + e2 * (math.log(x_gamma) - math.log(M))
    return 1.0 - math.exp(ln_term)


def alpha_factors(m: float | np.ndarray, case: Case) -> AlphaFactors:
    """Shortfall factorization with x_gamma taken from the envelope.

    With M = s_gamma and delta = 1 - s_gamma - x_gamma/(m+M):

        alpha1 = delta^(m/(m+M)),
        alpha2 = (x_gamma/M)^(M/(m+M)),
        alpha3 = ((m+M)/m)^(m/(m+M)),

    and 1 - alpha equals :func:`smax_lower_bound` at the same inputs.
    Where (m+M)/m overflows, below about m = 3.9e-309, alpha3 is taken
    through logarithms.  Raises ValueError where the envelope underflows
    to 0, above about m = 362.96 (case A) or 363.03 (case B).
    """
    arith, m = read("m", m)
    if bad := arith.first_failure(m > 0, m):
        raise ValueError(f"m must be > 0, got {bad[0]!r}")
    x_gamma = handoff_cap_envelope(m, case)
    if bad := arith.first_failure(x_gamma > 0, m, x_gamma):
        raise ValueError(
            f"handoff_cap_envelope underflows at m = {bad[0]!r} (case {case.value}): "
            f"x_gamma = {bad[1]!r} has no logarithm"
        )
    M = S_GAMMA
    delta = 1.0 - S_GAMMA - x_gamma / (m + M)
    if bad := arith.first_failure(delta > 0, delta):
        raise ValueError(f"delta must be positive, got {bad[0]!r}")
    e1 = m / (m + M)
    e2 = M / (m + M)
    alpha1 = delta**e1
    alpha2 = arith.exp(e2 * (arith.log(x_gamma) - arith.log(M)))
    ratio = arith.divide(m + M, m)
    alpha3 = arith.where(ratio < math.inf, ratio**e1,
                         arith.exp(e1 * (arith.log(m + M) - arith.log(m))))
    return AlphaFactors(alpha1=alpha1, alpha2=alpha2, alpha3=alpha3,
                        alpha=alpha1 * alpha2 * alpha3, delta=delta, M=M, x_gamma=x_gamma)


def _alpha2_stationarity(m: float, abar: float, bbar: float, cbar: float) -> float:
    # u(m) = (m+M) x'/x - ln(x/M) with M = s_gamma, for x = (abar m + bbar) e^{-cbar m};
    # strictly decreasing, so its root is the single peak of alpha2
    lin = abar * m + bbar
    return (
        (m + S_GAMMA) * (abar - bbar * cbar - abar * cbar * m) / lin
        + cbar * m
        - math.log(lin)
        + math.log(S_GAMMA)
    )


def alpha2_peak(case: Case) -> float:
    """The m at which the middle shortfall factor alpha2 peaks (m > 0.3).

    Uses the high-m envelope branch written as x_gamma = (abar m + bbar)
    e^{-cbar m} with the additive exponent constant folded into abar and
    bbar.  The stationarity function is strictly decreasing in m, so a
    sign-change bracket plus bisection-safeguarded root finding is
    exact; raises if no sign change exists on (0.3, 60].
    """
    c0, c1, c2, c3 = _ENVELOPE[case][1]
    scale = math.exp(c3)
    abar, bbar, cbar = c1 * scale, c0 * scale, -c2
    lo, hi = M_BRANCH + 1e-9, 60.0
    f_lo = _alpha2_stationarity(lo, abar, bbar, cbar)
    f_hi = _alpha2_stationarity(hi, abar, bbar, cbar)
    if not (f_lo > 0 > f_hi):
        raise ValueError(f"no peak bracket on ({lo}, {hi}): f = ({f_lo!r}, {f_hi!r})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _alpha2_stationarity(mid, abar, bbar, cbar) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


def _recovery_start_cap(p: Params, case: Case) -> float | np.ndarray:
    """Closed-form cap on the recovery start value x3, per case and m branch.

    Dominates the chained x_min upper bound on each case box and is what
    certifies the barrier precondition x3 < (1-k) h(lam):

        case A:  0.324 e^{-1/(4 h(lam))}   (m <= 0.3),
                 0.383 e^{-0.343/h(lam)}   (m > 0.3),
        case B:  0.350 e^{-1/(4 h(lam))},  0.428 e^{-0.383/h(lam)}.

    ``p`` is read as in the cap chain; h(lam) must be positive.
    """
    arith, q = _read_point(p)
    h_lam = h(q.lam, q)
    _check(arith, h_lam > 0.0, q, "h(lam) must be positive")
    low_m = q.m <= M_BRANCH
    c, r = (arith.where(low_m, lo, hi) for lo, hi in zip(*_START_CAP[case]))
    return c * arith.exp(-r / h_lam)
