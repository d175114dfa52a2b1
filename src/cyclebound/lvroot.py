"""Small roots of Lotka-Volterra first integrals and their approximants.

The comparison systems used to trap trajectories in the deep-prey part
of the cycle conserve quantities of the form x - A ln x.  Level-set
arguments there repeatedly need the small root x < A of

    x - A ln x = C,

together with closed-form two-sided approximations.  After rescaling to
A = 1 the root of x - ln x = y - ln y (y > 1) can be written x = z(y) Y
with Y = y e^{-y} and a correction factor z in (1, e].  The rational
approximants z1 <= z <= z2 <= z0 implemented here sandwich the exact
factor and degrade gracefully to 1 as y grows (they are close cousins
of the lower Lambert W branch, which is deliberately not implemented in
general form).

:func:`z` is the entry: it reads y and checks that y is finite and >= 1.
The formula itself lives once, in the private kernel ``_z``, which a
caller that has already proved y in [1, inf) may run directly on the
namespace it holds (``bounds`` does, on :data:`cyclebound._arith.MATH`).
"""

from __future__ import annotations

import math
from enum import Enum

from ._arith import read
from .model import finite_float, positive_float

__all__ = ["ZIndex", "z", "lv_small_root_ln", "z_exact"]

_E = math.e
_INF = math.inf


class ZIndex(Enum):
    """Selects one of the three closed-form correction factors.

    Z1 is a lower bound for the exact factor, Z2 an upper bound, and Z0
    a coarser upper bound for Z2.  Each member carries its coefficients
    ``c`` and ``d``: c0 = 0, c1 = (e-2)/(e-1), c2 = 1/e and
    d_i = e - 1 - c_i e.  Z0 is the c = 0 case of the quadratic that
    defines Z1 and Z2, where it degenerates to 1 / (1 - (e-1) Y).
    """

    Z0 = 0
    Z1 = 1
    Z2 = 2

    def __init__(self, index: int) -> None:
        # plain attributes, so z reads them without hashing the member
        self.c = (0.0, (_E - 2.0) / (_E - 1.0), 1.0 / _E)[index]
        self.d = _E - 1.0 - self.c * _E


def z(i: ZIndex, y: float | np.ndarray) -> float | np.ndarray:
    """Closed-form correction factor z_i(y) for the small root.

    Evaluates with Y = y e^{-y}:

        z_i = (1 - d_i Y - sqrt((1 - d_i Y)^2 - 4 c_i Y)) / (2 c_i Y),

    computed in the conjugate form 2 / (1 - d_i Y + sqrt(...)), which
    avoids cancellation for small Y and is defined at c_i = 0 as well.
    There, for Z0, the square root is 1 - (e-1) Y exactly (the square
    root of a rounded square is exact), so the one formula gives
    z_0 = 1 / (1 - (e-1) Y) bit for bit, with no branch of its own.
    Strictly decreasing in y, with z_i(1) = e (for i = 0, 2)
    and z_i -> 1 as y -> infinity.  Once Y underflows the result is
    exactly 1, which is the correct limit.

    ``y`` is a float or an ndarray, read by :func:`cyclebound._arith.read`
    and checked here; the formula runs in ``_z``.
    """
    given = y
    arith, y = read("y", y)
    ok = (1.0 <= y) & (y < _INF)
    # a float's check is a bare bool; only a failure or an array asks for the first failure
    if ok is not True and (bad := arith.first_failure(ok, given)):
        raise ValueError(f"z is defined for finite y >= 1, got {bad[0]!r}")
    return _z(arith, i, y)


def _z(arith, i: ZIndex, y: float | np.ndarray) -> float | np.ndarray:
    """z_i(y) on ``arith``'s functions, with no read and no check: the
    caller has proved y in [1, inf) (outside it the result is meaningless)."""
    Y = y * arith.exp(-y)
    c = i.c
    one_minus_dY = 1.0 - i.d * Y
    disc = one_minus_dY * one_minus_dY - 4.0 * c * Y
    # disc = 0 exactly at y = 1 for Z2; clamp roundoff
    return 2.0 / (one_minus_dY + arith.sqrt(arith.clamp(disc, 0.0)))


def lv_small_root_ln(A: float, C: float) -> float:
    """Log of the small root: solves e^w - A w = C for w <= ln A.

    Working on w = ln x keeps roots like e^{-2000} meaningful.  The
    residual g(w) = e^w - A w - C is strictly decreasing on the branch,
    positive at w = -C/A and nonpositive at ln A whenever a root
    exists, so a bisection bracket safeguards plain Newton iteration.
    Converges to relative tolerance ~1e-15 in a handful of steps since
    g is nearly linear once e^w << A.  A is read by
    :func:`cyclebound.model.positive_float`, C by ``finite_float``.
    """
    A, C = positive_float("A", A), finite_float("C", C)
    ln_A = math.log(A)
    c_min = A - A * ln_A
    if C < c_min:
        if C < c_min - 1e-13 * max(1.0, abs(c_min)):
            raise ValueError(
                f"no root: need C >= A - A ln A = {c_min!r}, got C = {C!r}"
            )
        return ln_A  # degenerate double root at the minimum, up to roundoff
    lo, hi = -C / A, ln_A
    w = lo
    for _ in range(200):
        e_w = math.exp(w)
        g = e_w - A * w - C
        if g > 0.0:
            lo = w
        else:
            hi = w
        w_new = w - g / (e_w - A)  # g' = e^w - A < 0 strictly on (lo, ln A)
        # a converged step ends the search, even one that lands on the end
        # just moved; only an unconverged step outside the bracket bisects
        if abs(w_new - w) <= 1e-15 * max(1.0, abs(w_new)):
            return w_new
        w = w_new if lo < w_new < hi else 0.5 * (lo + hi)
    return w


def z_exact(y: float) -> float:
    """Exact correction factor: small root of x - ln x = y - ln y over Y.

    Computed through the log-space root so the ratio never under- or
    overflows; lies in (1, e] and decreases in y, squeezed between
    z(Z1, y) and z(Z2, y).  ``y`` is read by
    :func:`cyclebound.model.finite_float`.
    """
    y = finite_float("y", y)
    if not y >= 1.0:
        raise ValueError(f"z_exact is defined for y >= 1, got {y!r}")
    ln_y = math.log(y)
    w = lv_small_root_ln(1.0, y - ln_y)
    return math.exp(w - (ln_y - y))
