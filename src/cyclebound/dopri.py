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

# DOP853 tableau (scipy's dop853_coefficients, which are Hairer's), with
# stages numbered from 1: k1 = f(y), k13 = f(y_new) (first same as last),
# k14-k16 the extra stages of the dense output.  Zero entries are dropped
# from the sums below.
_A2_1 = 5.26001519587677318785587544488e-2
_A3_1 = 1.97250569845378994544595329183e-2
_A3_2 = 5.91751709536136983633785987549e-2
_A4_1 = 2.95875854768068491816892993775e-2
_A4_3 = 8.87627564304205475450678981324e-2
_A5_1 = 2.41365134159266685502369798665e-1
_A5_3 = -8.84549479328286085344864962717e-1
_A5_4 = 9.24834003261792003115737966543e-1
_A6_1 = 3.7037037037037037037037037037e-2
_A6_4 = 1.70828608729473871279604482173e-1
_A6_5 = 1.25467687566822425016691814123e-1
_A7_1 = 3.7109375e-2
_A7_4 = 1.70252211019544039314978060272e-1
_A7_5 = 6.02165389804559606850219397283e-2
_A7_6 = -1.7578125e-2
_A8_1 = 3.70920001185047927108779319836e-2
_A8_4 = 1.70383925712239993810214054705e-1
_A8_5 = 1.07262030446373284651809199168e-1
_A8_6 = -1.53194377486244017527936158236e-2
_A8_7 = 8.27378916381402288758473766002e-3
_A9_1 = 6.24110958716075717114429577812e-1
_A9_4 = -3.36089262944694129406857109825
_A9_5 = -8.68219346841726006818189891453e-1
_A9_6 = 2.75920996994467083049415600797e1
_A9_7 = 2.01540675504778934086186788979e1
_A9_8 = -4.34898841810699588477366255144e1
_A10_1 = 4.77662536438264365890433908527e-1
_A10_4 = -2.48811461997166764192642586468
_A10_5 = -5.90290826836842996371446475743e-1
_A10_6 = 2.12300514481811942347288949897e1
_A10_7 = 1.52792336328824235832596922938e1
_A10_8 = -3.32882109689848629194453265587e1
_A10_9 = -2.03312017085086261358222928593e-2
_A11_1 = -9.3714243008598732571704021658e-1
_A11_4 = 5.18637242884406370830023853209
_A11_5 = 1.09143734899672957818500254654
_A11_6 = -8.14978701074692612513997267357
_A11_7 = -1.85200656599969598641566180701e1
_A11_8 = 2.27394870993505042818970056734e1
_A11_9 = 2.49360555267965238987089396762
_A11_10 = -3.0467644718982195003823669022
_A12_1 = 2.27331014751653820792359768449
_A12_4 = -1.05344954667372501984066689879e1
_A12_5 = -2.00087205822486249909675718444
_A12_6 = -1.79589318631187989172765950534e1
_A12_7 = 2.79488845294199600508499808837e1
_A12_8 = -2.85899827713502369474065508674
_A12_9 = -8.87285693353062954433549289258
_A12_10 = 1.23605671757943030647266201528e1
_A12_11 = 6.43392746015763530355970484046e-1
# 8th-order weights
_B1 = 5.42937341165687622380535766363e-2
_B6 = 4.45031289275240888144113950566
_B7 = 1.89151789931450038304281599044
_B8 = -5.8012039600105847814672114227
_B9 = 3.1116436695781989440891606237e-1
_B10 = -1.52160949662516078556178806805e-1
_B11 = 2.01365400804030348374776537501e-1
_B12 = 4.47106157277725905176885569043e-2
# 5th-order error weights
_E5_1 = 0.1312004499419488073250102996e-1
_E5_6 = -0.1225156446376204440720569753e1
_E5_7 = -0.4957589496572501915214079952
_E5_8 = 0.1664377182454986536961530415e1
_E5_9 = -0.3503288487499736816886487290
_E5_10 = 0.3341791187130174790297318841
_E5_11 = 0.8192320648511571246570742613e-1
_E5_12 = -0.2235530786388629525884427845e-1
# 3rd-order error weights: B minus the weights of the 3rd-order formula,
# which is nonzero at stages 1, 9 and 12 only
_E3_1 = _B1 - 0.244094488188976377952755905512
_E3_9 = _B9 - 0.733846688281611857341361741547
_E3_12 = _B12 - 0.220588235294117647058823529412e-1
# extra stages of the dense output
_A14_1 = 5.61675022830479523392909219681e-2
_A14_7 = 2.53500210216624811088794765333e-1
_A14_8 = -2.46239037470802489917441475441e-1
_A14_9 = -1.24191423263816360469010140626e-1
_A14_10 = 1.5329179827876569731206322685e-1
_A14_11 = 8.20105229563468988491666602057e-3
_A14_12 = 7.56789766054569976138603589584e-3
_A14_13 = -8.298e-3
_A15_1 = 3.18346481635021405060768473261e-2
_A15_6 = 2.83009096723667755288322961402e-2
_A15_7 = 5.35419883074385676223797384372e-2
_A15_8 = -5.49237485713909884646569340306e-2
_A15_11 = -1.08347328697249322858509316994e-4
_A15_12 = 3.82571090835658412954920192323e-4
_A15_13 = -3.40465008687404560802977114492e-4
_A15_14 = 1.41312443674632500278074618366e-1
_A16_1 = -4.28896301583791923408573538692e-1
_A16_6 = -4.69762141536116384314449447206
_A16_7 = 7.68342119606259904184240953878
_A16_8 = 4.06898981839711007970213554331
_A16_9 = 3.56727187455281109270669543021e-1
_A16_13 = -1.39902416515901462129418009734e-3
_A16_14 = 2.9475147891527723389556272149
_A16_15 = -9.15095847217987001081870187138
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
            us = u + (_A2_1 * k1u) * h
            vs = v + (_A2_1 * k1v) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k2v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k2v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k2u = m * (s - lam)
            us = u + (_A3_1 * k1u + _A3_2 * k2u) * h
            vs = v + (_A3_1 * k1v + _A3_2 * k2v) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k3v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k3v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k3u = m * (s - lam)
            us = u + (_A4_1 * k1u + _A4_3 * k3u) * h
            vs = v + (_A4_1 * k1v + _A4_3 * k3v) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k4v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k4v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k4u = m * (s - lam)
            us = u + (_A5_1 * k1u + _A5_3 * k3u + _A5_4 * k4u) * h
            vs = v + (_A5_1 * k1v + _A5_3 * k3v + _A5_4 * k4v) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k5v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k5v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k5u = m * (s - lam)
            us = u + (_A6_1 * k1u + _A6_4 * k4u + _A6_5 * k5u) * h
            vs = v + (_A6_1 * k1v + _A6_4 * k4v + _A6_5 * k5v) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k6v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k6v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k6u = m * (s - lam)
            us = u + (_A7_1 * k1u + _A7_4 * k4u + _A7_5 * k5u + _A7_6 * k6u) * h
            vs = v + (_A7_1 * k1v + _A7_4 * k4v + _A7_5 * k5v + _A7_6 * k6v) * h
            if w_chart:
                s = -expm1(vs if vs < clip else clip)
                d = us - vs
                k7v = s * (exp(d if d < clip else clip) - (s + a))
            else:
                s = exp(vs if vs < clip else clip)
                k7v = (1.0 - s) * (s + a) - exp(us if us < clip else clip)
            k7u = m * (s - lam)
            us = u + (
                _A8_1 * k1u + _A8_4 * k4u + _A8_5 * k5u + _A8_6 * k6u + _A8_7 * k7u
            ) * h
            vs = v + (
                _A8_1 * k1v + _A8_4 * k4v + _A8_5 * k5v + _A8_6 * k6v + _A8_7 * k7v
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
                _A9_1 * k1u + _A9_4 * k4u + _A9_5 * k5u + _A9_6 * k6u + _A9_7 * k7u
                + _A9_8 * k8u
            ) * h
            vs = v + (
                _A9_1 * k1v + _A9_4 * k4v + _A9_5 * k5v + _A9_6 * k6v + _A9_7 * k7v
                + _A9_8 * k8v
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
                _A10_1 * k1u + _A10_4 * k4u + _A10_5 * k5u + _A10_6 * k6u + _A10_7 * k7u
                + _A10_8 * k8u + _A10_9 * k9u
            ) * h
            vs = v + (
                _A10_1 * k1v + _A10_4 * k4v + _A10_5 * k5v + _A10_6 * k6v + _A10_7 * k7v
                + _A10_8 * k8v + _A10_9 * k9v
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
                _A11_1 * k1u + _A11_4 * k4u + _A11_5 * k5u + _A11_6 * k6u + _A11_7 * k7u
                + _A11_8 * k8u + _A11_9 * k9u + _A11_10 * k10u
            ) * h
            vs = v + (
                _A11_1 * k1v + _A11_4 * k4v + _A11_5 * k5v + _A11_6 * k6v + _A11_7 * k7v
                + _A11_8 * k8v + _A11_9 * k9v + _A11_10 * k10v
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
                _A12_1 * k1u + _A12_4 * k4u + _A12_5 * k5u + _A12_6 * k6u + _A12_7 * k7u
                + _A12_8 * k8u + _A12_9 * k9u + _A12_10 * k10u + _A12_11 * k11u
            ) * h
            vs = v + (
                _A12_1 * k1v + _A12_4 * k4v + _A12_5 * k5v + _A12_6 * k6v + _A12_7 * k7v
                + _A12_8 * k8v + _A12_9 * k9v + _A12_10 * k10v + _A12_11 * k11v
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
                _B1 * k1u + _B6 * k6u + _B7 * k7u + _B8 * k8u + _B9 * k9u
                + _B10 * k10u + _B11 * k11u + _B12 * k12u
            )
            v_new = v + h * (
                _B1 * k1v + _B6 * k6v + _B7 * k7v + _B8 * k8v + _B9 * k9v
                + _B10 * k10v + _B11 * k11v + _B12 * k12v
            )
            anu = u_new if u_new >= 0.0 else -u_new
            anv = v_new if v_new >= 0.0 else -v_new
            su = atol + (au if au > anu else anu) * rtol
            sv = atol + (av if av > anv else anv) * rtol
            e5u = (
                _E5_1 * k1u + _E5_6 * k6u + _E5_7 * k7u + _E5_8 * k8u + _E5_9 * k9u
                + _E5_10 * k10u + _E5_11 * k11u + _E5_12 * k12u
            ) / su
            e5v = (
                _E5_1 * k1v + _E5_6 * k6v + _E5_7 * k7v + _E5_8 * k8v + _E5_9 * k9v
                + _E5_10 * k10v + _E5_11 * k11v + _E5_12 * k12v
            ) / sv
            e3u = (
                _E3_1 * k1u + _B6 * k6u + _B7 * k7u + _B8 * k8u + _E3_9 * k9u
                + _B10 * k10u + _B11 * k11u + _E3_12 * k12u
            ) / su
            e3v = (
                _E3_1 * k1v + _B6 * k6v + _B7 * k7v + _B8 * k8v + _E3_9 * k9v
                + _B10 * k10v + _B11 * k11v + _E3_12 * k12v
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
            _A14_1 * k1u + _A14_7 * k7u + _A14_8 * k8u + _A14_9 * k9u + _A14_10 * k10u
            + _A14_11 * k11u + _A14_12 * k12u + _A14_13 * k13u
        ) * h
        vs = v + (
            _A14_1 * k1v + _A14_7 * k7v + _A14_8 * k8v + _A14_9 * k9v + _A14_10 * k10v
            + _A14_11 * k11v + _A14_12 * k12v + _A14_13 * k13v
        ) * h
        k14u, k14v = _field(p, w_chart, (us, vs))
        us = u + (
            _A15_1 * k1u + _A15_6 * k6u + _A15_7 * k7u + _A15_8 * k8u + _A15_11 * k11u
            + _A15_12 * k12u + _A15_13 * k13u + _A15_14 * k14u
        ) * h
        vs = v + (
            _A15_1 * k1v + _A15_6 * k6v + _A15_7 * k7v + _A15_8 * k8v + _A15_11 * k11v
            + _A15_12 * k12v + _A15_13 * k13v + _A15_14 * k14v
        ) * h
        k15u, k15v = _field(p, w_chart, (us, vs))
        us = u + (
            _A16_1 * k1u + _A16_6 * k6u + _A16_7 * k7u + _A16_8 * k8u + _A16_9 * k9u
            + _A16_13 * k13u + _A16_14 * k14u + _A16_15 * k15u
        ) * h
        vs = v + (
            _A16_1 * k1v + _A16_6 * k6v + _A16_7 * k7v + _A16_8 * k8v + _A16_9 * k9v
            + _A16_13 * k13v + _A16_14 * k14v + _A16_15 * k15v
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
