"""Scalar Dormand-Prince 8(5,3) stepper for the log-space predator-prey fields.

This is scipy's ``DOP853`` algorithm (Dormand & Prince 1980, J. Comput.
Appl. Math. 6:19-26, for the pair family; Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, II.5 for the 8(5,3) pair and
II.6 for its dense output) written out on Python floats for the one
system the simulator integrates, in either of its two charts:
:func:`cyclebound.model.log_vector_field` in (u, v) = (ln x, ln s) and
:func:`cyclebound.model.log_gap_vector_field` in (u, w) = (ln x,
ln(1 - s)).  It keeps scipy's 12-stage tableau, the blended
5th/3rd-order error estimate
``|h| err5^2 / sqrt(2 (err5^2 + 0.01 err3^2))`` with scale
``atol + max(|y|, |y_new|) * rtol``, step-size controller (safety 0.9,
factor clamps 0.2 and 10, exponent -1/8, no growth right after a
rejection), initial-step heuristic for an order-7 estimator, minimal
step and rtol floor, and the same 7th-order continuous extension.  It
takes the accepted steps scipy takes; only the summation order inside a
stage differs, so states agree to roundoff.  For two unknowns the
per-step numpy dispatch scipy pays on 2-element arrays is several times
the cost of the arithmetic itself, which is why the stepper is spelled
out.

Both fields are written out at stages 2-13 of :meth:`DOP853.step`, one
branch per stage on the chart, with the arithmetic of the model
functions in the same order, so the stage derivatives are bit-identical
to calls of them; the stepper therefore has no ``fun`` argument and
takes the model parameters instead.  (A branch per stage costs no
measurable time over a second written-out copy of the stages, which
would be 140 lines longer.)  The three extra stages of
:meth:`DOP853.dense_output`, which the simulator builds once per step
that crosses an isocline, call the model functions.
:meth:`DOP853.switch_chart` moves the state to the other chart between
steps.

The tableau (scipy's ``dop853_coefficients``, which are Hairer's) is
written into the stage sums as float literals, the shortest repr of each
of scipy's doubles, with the stages numbered from 1: k1 = f(y), k13 =
f(y_new) (first same as last) and k14-k16 the extra stages of the dense
output; zero entries are dropped.  A literal compiles to a constant load
where a module-level name costs a global lookup, about 140 of them per
trial step.  Each 3rd-order error weight is written as the difference
``(B_j - b3_j)``, which the compiler folds to the double that subtracting
at run time gives.  ``test_stepper_tableau_is_scipys`` in
``tests/test_simulator.py`` finds every entry of scipy's ``DOP853``
tables among the constants of :meth:`DOP853.step` and
:meth:`DOP853.dense_output` and in its place in each sum, and
``test_stepper_stages_are_log_vector_field`` checks the steps bit for
bit against sums over those tables.

The stepper has no end time: it steps forward from ``t0`` for as long as
it is asked to, and the simulator ends each integration at a crossing.
"""

from __future__ import annotations

import math
import sys
import warnings
from functools import reduce
from operator import add, mul
from typing import Callable

from .model import (
    _EXP_CLIP,
    LogState,
    Params,
    log1m_exp,
    log_gap_vector_field,
    log_vector_field,
)

__all__ = ["DOP853"]

# scipy's validate_tol floor: rtol below this is raised to it
_RTOL_FLOOR = 100.0 * sys.float_info.epsilon

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)
_SQRT2 = 2.0**0.5  # RMS over two components

# dense output y(t_old + x h) = y_old + x (F0 + (1-x) (F1 + x (F2 + (1-x)
# (F3 + x (F4 + (1-x) (F5 + x F6)))))), where F0-F2 come from the step's
# ends and F3-F6 = h D k over stages 1 and 6-16; one row of D per F
_D = (
    (
        -0.84289382761090128651353491142e1, 0.56671495351937776962531783590,
        -0.30689499459498916912797304727e1, 0.23846676565120698287728149680e1,
        0.21170345824450282767155149946e1, -0.87139158377797299206789907490,
        0.22404374302607882758541771650e1, 0.63157877876946881815570249290,
        -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e2,
        -0.91946323924783554000451984436e1, -0.44360363875948939664310572000e1,
    ),
    (
        0.10427508642579134603413151009e2, 0.24228349177525818288430175319e3,
        0.16520045171727028198505394887e3, -0.37454675472269020279518312152e3,
        -0.22113666853125306036270938578e2, 0.77334326684722638389603898808e1,
        -0.30674084731089398182061213626e2, -0.93321305264302278729567221706e1,
        0.15697238121770843886131091075e2, -0.31139403219565177677282850411e2,
        -0.93529243588444783865713862664e1, 0.35816841486394083752465898540e2,
    ),
    (
        0.19985053242002433820987653617e2, -0.38703730874935176555105901742e3,
        -0.18917813819516756882830838328e3, 0.52780815920542364900561016686e3,
        -0.11573902539959630126141871134e2, 0.68812326946963000169666922661e1,
        -0.10006050966910838403183860980e1, 0.77771377980534432092869265740,
        -0.27782057523535084065932004339e1, -0.60196695231264120758267380846e2,
        0.84320405506677161018159903784e2, 0.11992291136182789328035130030e2,
    ),
    (
        -0.25693933462703749003312586129e2, -0.15418974869023643374053993627e3,
        -0.23152937917604549567536039109e3, 0.35763911791061412378285349910e3,
        0.93405324183624310003907691704e2, -0.37458323136451633156875139351e2,
        0.10409964950896230045147246184e3, 0.29840293426660503123344363579e2,
        -0.43533456590011143754432175058e2, 0.96324553959188282948394950600e2,
        -0.39177261675615439165231486172e2, -0.14972683625798562581422125276e3,
    ),
)


def _rms(eu: float, ev: float) -> float:
    return math.sqrt(eu * eu + ev * ev) / _SQRT2


def _field(p: Params, w_chart: bool, y: tuple[float, float]) -> tuple[float, float]:
    """The field of the chart at y: ``log_gap_vector_field`` in (u, w),
    ``log_vector_field`` in (u, v)."""
    if w_chart:
        return log_gap_vector_field(y, p)
    return log_vector_field(LogState(*y), p)


class DOP853:
    """Adaptive DOP853 stepper for the log-space field in one of two charts.

    ``y`` is ``(u, v)`` on ``log_vector_field``, or ``(u, w)`` on
    ``log_gap_vector_field`` when ``w_chart`` is set.  The subset of
    scipy's ``OdeSolver`` interface the simulator uses: ``t``, ``y``,
    ``status`` ("running" or "failed"), :meth:`step` for one accepted
    step and :meth:`dense_output` for the interpolant over the last one,
    in the chart that step was taken in.  ``f`` is the field at ``y``
    (the last stage of the last step).  ``n_rejected`` counts rejected
    trial steps and ``nfev`` the field evaluations of the steps, the
    start and the chart switches (an interpolant's three extra stages
    are not counted).
    """

    def __init__(
        self,
        p: Params,
        t0: float,
        y0: tuple[float, float],
        rtol: float = 1e-3,
        atol: float = 1e-6,
        w_chart: bool = False,
    ) -> None:
        if not atol >= 0:
            raise ValueError("atol must be nonnegative")
        if rtol < _RTOL_FLOOR:
            warnings.warn(
                f"rtol {rtol!r} is below {_RTOL_FLOOR!r}; using {_RTOL_FLOOR!r}",
                stacklevel=2,
            )
            rtol = _RTOL_FLOOR
        self.p = p
        self.t = float(t0)
        self.t_old: float | None = None
        self.y = (float(y0[0]), float(y0[1]))
        self.rtol = rtol
        self.atol = atol
        self.status = "running"
        self.w_chart = w_chart
        self.f = _field(p, w_chart, self.y)
        self.h_abs = self._initial_step()
        self.n_rejected = 0
        self.nfev = 2
        # (w_chart, u_old, v_old, h, then k1, k6, ..., k13 as u, v pairs,
        # then u_new, v_new) of the last step: what the dense output needs
        self._last: tuple | None = None

    def switch_chart(self) -> None:
        """Move to the other chart at the current point, keeping the step size.

        y[1] -> ln(1 - e^y[1]) (:func:`cyclebound.model.log1m_exp`) takes
        v = ln s to w = ln(1 - s) and back; f is the field of the new
        chart there.
        """
        u, y1 = self.y
        self.y = (u, log1m_exp(y1))
        self.w_chart = not self.w_chart
        self.f = _field(self.p, self.w_chart, self.y)
        self.nfev += 1

    def _initial_step(self) -> float:
        """scipy's ``select_initial_step`` for an order-7 error estimator."""
        u, v = self.y
        fu, fv = self.f
        su = self.atol + abs(u) * self.rtol
        sv = self.atol + abs(v) * self.rtol
        d0 = _rms(u / su, v / sv)
        d1 = _rms(fu / su, fv / sv)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        if h0 == 0.0:
            # d0 / d1 underflows (a field near the float range): scipy's
            # d2 is then inf or NaN and its step 0, and the first step fails
            return 0.0
        gu, gv = _field(self.p, self.w_chart, (u + h0 * fu, v + h0 * fv))
        d2 = _rms((gu - fu) / su, (gv - fv) / sv) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
        return min(100.0 * h0, h1)

    def step(self) -> None:
        """Advance by one accepted step.

        status becomes "failed" when the trial step size leaves
        [min_step, inf): on underflow, and on a NaN or infinite step,
        which a non-finite state or tolerance produces.
        """
        if self.status != "running":
            raise RuntimeError("attempt to step on a failed solver")
        t = self.t
        p = self.p
        a, lam, m = p.a, p.lam, p.m
        exp = math.exp
        expm1 = math.expm1
        clip = _EXP_CLIP
        w_chart = self.w_chart
        rtol = self.rtol
        atol = self.atol
        u, v = self.y
        k1u, k1v = self.f
        inf = math.inf
        min_step = 10.0 * (math.nextafter(t, inf) - t)
        h_abs = self.h_abs
        if h_abs < min_step:
            h_abs = min_step
        # error scale max(|y|, |y_new|) * rtol: the |y| half is fixed
        au = u if u >= 0.0 else -u
        av = v if v >= 0.0 else -v
        rejected = 0
        while True:
            if not min_step <= h_abs < inf:
                self.status = "failed"
                self.n_rejected += rejected
                self.nfev += 11 * rejected
                return
            t_new = t + h_abs
            h = t_new - t
            h_abs = h
            # each stage: in the v chart s = e^v and (du, dv) =
            # (m (s - lam), h(s) - e^u); in the w chart (v holds w)
            # s = -expm1(w) and (du, dw) = (m (s - lam), s (e^(u-w) - (s + a)));
            # exp arguments clipped as in the model functions
            us = u + (0.05260015195876773 * k1u) * h
            vs = v + (0.05260015195876773 * k1v) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k2v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k2v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k2u = m * (s - lam)
            us = u + (0.0197250569845379 * k1u + 0.0591751709536137 * k2u) * h
            vs = v + (0.0197250569845379 * k1v + 0.0591751709536137 * k2v) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k3v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k3v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k3u = m * (s - lam)
            us = u + (0.02958758547680685 * k1u + 0.08876275643042054 * k3u) * h
            vs = v + (0.02958758547680685 * k1v + 0.08876275643042054 * k3v) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k4v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k4v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k4u = m * (s - lam)
            us = u + (
                0.2413651341592667 * k1u + -0.8845494793282861 * k3u
                + 0.924834003261792 * k4u
            ) * h
            vs = v + (
                0.2413651341592667 * k1v + -0.8845494793282861 * k3v
                + 0.924834003261792 * k4v
            ) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k5v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k5v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k5u = m * (s - lam)
            us = u + (
                0.037037037037037035 * k1u + 0.17082860872947386 * k4u
                + 0.12546768756682242 * k5u
            ) * h
            vs = v + (
                0.037037037037037035 * k1v + 0.17082860872947386 * k4v
                + 0.12546768756682242 * k5v
            ) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k6v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k6v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k6u = m * (s - lam)
            us = u + (
                0.037109375 * k1u + 0.17025221101954405 * k4u
                + 0.06021653898045596 * k5u + -0.017578125 * k6u
            ) * h
            vs = v + (
                0.037109375 * k1v + 0.17025221101954405 * k4v
                + 0.06021653898045596 * k5v + -0.017578125 * k6v
            ) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k7v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k7v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k7u = m * (s - lam)
            us = u + (
                0.03709200011850479 * k1u + 0.17038392571223998 * k4u
                + 0.10726203044637328 * k5u + -0.015319437748624402 * k6u
                + 0.008273789163814023 * k7u
            ) * h
            vs = v + (
                0.03709200011850479 * k1v + 0.17038392571223998 * k4v
                + 0.10726203044637328 * k5v + -0.015319437748624402 * k6v
                + 0.008273789163814023 * k7v
            ) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k8v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k8v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k8u = m * (s - lam)
            us = u + (
                0.6241109587160757 * k1u + -3.3608926294469414 * k4u
                + -0.868219346841726 * k5u + 27.59209969944671 * k6u
                + 20.154067550477894 * k7u + -43.48988418106996 * k8u
            ) * h
            vs = v + (
                0.6241109587160757 * k1v + -3.3608926294469414 * k4v
                + -0.868219346841726 * k5v + 27.59209969944671 * k6v
                + 20.154067550477894 * k7v + -43.48988418106996 * k8v
            ) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k9v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k9v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k9u = m * (s - lam)
            us = u + (
                0.47766253643826434 * k1u + -2.4881146199716677 * k4u
                + -0.590290826836843 * k5u + 21.230051448181193 * k6u
                + 15.279233632882423 * k7u + -33.28821096898486 * k8u
                + -0.020331201708508627 * k9u
            ) * h
            vs = v + (
                0.47766253643826434 * k1v + -2.4881146199716677 * k4v
                + -0.590290826836843 * k5v + 21.230051448181193 * k6v
                + 15.279233632882423 * k7v + -33.28821096898486 * k8v
                + -0.020331201708508627 * k9v
            ) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k10v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k10v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k10u = m * (s - lam)
            us = u + (
                -0.9371424300859873 * k1u + 5.186372428844064 * k4u
                + 1.0914373489967295 * k5u + -8.149787010746927 * k6u
                + -18.52006565999696 * k7u + 22.739487099350505 * k8u
                + 2.4936055526796523 * k9u + -3.0467644718982196 * k10u
            ) * h
            vs = v + (
                -0.9371424300859873 * k1v + 5.186372428844064 * k4v
                + 1.0914373489967295 * k5v + -8.149787010746927 * k6v
                + -18.52006565999696 * k7v + 22.739487099350505 * k8v
                + 2.4936055526796523 * k9v + -3.0467644718982196 * k10v
            ) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k11v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k11v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k11u = m * (s - lam)
            us = u + (
                2.273310147516538 * k1u + -10.53449546673725 * k4u
                + -2.0008720582248625 * k5u + -17.9589318631188 * k6u
                + 27.94888452941996 * k7u + -2.8589982771350235 * k8u
                + -8.87285693353063 * k9u + 12.360567175794303 * k10u
                + 0.6433927460157636 * k11u
            ) * h
            vs = v + (
                2.273310147516538 * k1v + -10.53449546673725 * k4v
                + -2.0008720582248625 * k5v + -17.9589318631188 * k6v
                + 27.94888452941996 * k7v + -2.8589982771350235 * k8v
                + -8.87285693353063 * k9v + 12.360567175794303 * k10v
                + 0.6433927460157636 * k11v
            ) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k12v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k12v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k12u = m * (s - lam)
            u_new = u + h * (
                0.054293734116568765 * k1u + 4.450312892752409 * k6u
                + 1.8915178993145003 * k7u + -5.801203960010585 * k8u
                + 0.3111643669578199 * k9u + -0.1521609496625161 * k10u
                + 0.20136540080403034 * k11u + 0.04471061572777259 * k12u
            )
            v_new = v + h * (
                0.054293734116568765 * k1v + 4.450312892752409 * k6v
                + 1.8915178993145003 * k7v + -5.801203960010585 * k8v
                + 0.3111643669578199 * k9v + -0.1521609496625161 * k10v
                + 0.20136540080403034 * k11v + 0.04471061572777259 * k12v
            )
            anu = u_new if u_new >= 0.0 else -u_new
            anv = v_new if v_new >= 0.0 else -v_new
            su = atol + (au if au > anu else anu) * rtol
            sv = atol + (av if av > anv else anv) * rtol
            e5u = (
                0.01312004499419488 * k1u + -1.2251564463762044 * k6u
                + -0.4957589496572502 * k7u + 1.6643771824549864 * k8u
                + -0.35032884874997366 * k9u + 0.3341791187130175 * k10u
                + 0.08192320648511571 * k11u + -0.022355307863886294 * k12u
            ) / su
            e5v = (
                0.01312004499419488 * k1v + -1.2251564463762044 * k6v
                + -0.4957589496572502 * k7v + 1.6643771824549864 * k8v
                + -0.35032884874997366 * k9v + 0.3341791187130175 * k10v
                + 0.08192320648511571 * k11v + -0.022355307863886294 * k12v
            ) / sv
            e3u = (
                (0.054293734116568765 - 0.2440944881889764) * k1u
                + 4.450312892752409 * k6u + 1.8915178993145003 * k7u
                + -5.801203960010585 * k8u
                + (0.3111643669578199 - 0.7338466882816118) * k9u
                + -0.1521609496625161 * k10u + 0.20136540080403034 * k11u
                + (0.04471061572777259 - 0.022058823529411766) * k12u
            ) / su
            e3v = (
                (0.054293734116568765 - 0.2440944881889764) * k1v
                + 4.450312892752409 * k6v + 1.8915178993145003 * k7v
                + -5.801203960010585 * k8v
                + (0.3111643669578199 - 0.7338466882816118) * k9v
                + -0.1521609496625161 * k10v + 0.20136540080403034 * k11v
                + (0.04471061572777259 - 0.022058823529411766) * k12v
            ) / sv
            err5 = e5u * e5u + e5v * e5v
            err3 = e3u * e3u + e3v * e3v
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * error_norm**_ERROR_EXPONENT
                    if not factor < _MAX_FACTOR:
                        factor = _MAX_FACTOR
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            factor = _SAFETY * error_norm**_ERROR_EXPONENT
            h_abs *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            rejected += 1
        # the error estimate does not use k13, so only an accepted step pays it
        if w_chart:
            s = -expm1(v_new if v_new < clip else clip)
            d = u_new - v_new
            k13v = s * (exp(d if d < clip else clip) - (s + a))
        else:
            s = exp(v_new if v_new < clip else clip)
            k13v = (1.0 - s) * (s + a) - exp(u_new if u_new < clip else clip)
        k13u = m * (s - lam)
        self.n_rejected += rejected
        self.nfev += 11 * rejected + 12
        self._last = (
            w_chart, u, v, h, k1u, k1v, k6u, k6v, k7u, k7v, k8u, k8v, k9u, k9v,
            k10u, k10v, k11u, k11v, k12u, k12v, k13u, k13v, u_new, v_new,
        )
        self.t_old = t
        self.t = t_new
        self.y = (u_new, v_new)
        self.f = (k13u, k13v)
        self.h_abs = h_abs

    def dense_output(self) -> Callable[[float], tuple[float, float]]:
        """The 7th-order interpolant ``tau -> y`` over the last accepted step.

        It is in the chart of that step, also after :meth:`switch_chart`,
        and returns the same values after later steps as right after its
        own.  The three extra stages k14-k16 and the coefficients F3-F6
        are computed here.
        """
        if self._last is None:
            raise RuntimeError("dense output is available after a successful step")
        p, t_old = self.p, self.t_old
        (
            w_chart, u, v, h, k1u, k1v, k6u, k6v, k7u, k7v, k8u, k8v, k9u, k9v,
            k10u, k10v, k11u, k11v, k12u, k12v, k13u, k13v, u_new, v_new,
        ) = self._last
        us = u + (
            0.056167502283047954 * k1u + 0.25350021021662483 * k7u
            + -0.2462390374708025 * k8u + -0.12419142326381637 * k9u
            + 0.15329179827876568 * k10u + 0.00820105229563469 * k11u
            + 0.007567897660545699 * k12u + -0.008298 * k13u
        ) * h
        vs = v + (
            0.056167502283047954 * k1v + 0.25350021021662483 * k7v
            + -0.2462390374708025 * k8v + -0.12419142326381637 * k9v
            + 0.15329179827876568 * k10v + 0.00820105229563469 * k11v
            + 0.007567897660545699 * k12v + -0.008298 * k13v
        ) * h
        k14u, k14v = _field(p, w_chart, (us, vs))
        us = u + (
            0.03183464816350214 * k1u + 0.028300909672366776 * k6u
            + 0.053541988307438566 * k7u + -0.05492374857139099 * k8u
            + -0.00010834732869724932 * k11u + 0.0003825710908356584 * k12u
            + -0.00034046500868740456 * k13u + 0.1413124436746325 * k14u
        ) * h
        vs = v + (
            0.03183464816350214 * k1v + 0.028300909672366776 * k6v
            + 0.053541988307438566 * k7v + -0.05492374857139099 * k8v
            + -0.00010834732869724932 * k11v + 0.0003825710908356584 * k12v
            + -0.00034046500868740456 * k13v + 0.1413124436746325 * k14v
        ) * h
        k15u, k15v = _field(p, w_chart, (us, vs))
        us = u + (
            -0.42889630158379194 * k1u + -4.697621415361164 * k6u
            + 7.683421196062599 * k7u + 4.06898981839711 * k8u
            + 0.3567271874552811 * k9u + -0.0013990241651590145 * k13u
            + 2.9475147891527724 * k14u + -9.15095847217987 * k15u
        ) * h
        vs = v + (
            -0.42889630158379194 * k1v + -4.697621415361164 * k6v
            + 7.683421196062599 * k7v + 4.06898981839711 * k8v
            + 0.3567271874552811 * k9v + -0.0013990241651590145 * k13v
            + 2.9475147891527724 * k14v + -9.15095847217987 * k15v
        ) * h
        k16u, k16v = _field(p, w_chart, (us, vs))

        ku = (k1u, k6u, k7u, k8u, k9u, k10u, k11u, k12u, k13u, k14u, k15u, k16u)
        kv = (k1v, k6v, k7v, k8v, k9v, k10v, k11v, k12v, k13v, k14v, k15v, k16v)
        du = u_new - u
        dv = v_new - v
        fu0, fu1, fu2 = du, h * k1u - du, 2.0 * du - h * (k13u + k1u)
        fv0, fv1, fv2 = dv, h * k1v - dv, 2.0 * dv - h * (k13v + k1v)
        # added left to right: the builtin sum is compensated from Python 3.12
        fu3, fu4, fu5, fu6 = (h * reduce(add, map(mul, row, ku)) for row in _D)
        fv3, fv4, fv5, fv6 = (h * reduce(add, map(mul, row, kv)) for row in _D)

        def dense(tau: float) -> tuple[float, float]:
            x = (tau - t_old) / h
            y = 1.0 - x
            return (
                x * (fu0 + y * (fu1 + x * (fu2 + y * (fu3 + x * (fu4 + y * (fu5 + x * fu6))))))
                + u,
                x * (fv0 + y * (fv1 + x * (fv2 + y * (fv3 + x * (fv4 + y * (fv5 + x * fv6))))))
                + v,
            )

        return dense
