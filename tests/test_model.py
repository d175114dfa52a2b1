import copy
import json
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclebound.bounds import cycle_bounds, x_max_lower, x_max_upper
from cyclebound.cli import main
from cyclebound.harness import SweepSpec, emit_figures, figure_m_values
from cyclebound.lvroot import lv_small_root_ln
from cyclebound.model import (
    LogState,
    Params,
    RMParams,
    State,
    finite_float,
    h,
    integer,
    log_vector_field,
    nondimensionalize,
    params_from_json,
    require_cycle,
)
from cyclebound.region4 import smax_lower_bound
from cyclebound.simulator import SimConfig, integrate, limit_cycle, transit_points


# the (x, s) field and its fixed point: oracles of the log-space field
def vector_field(st: State, p: Params) -> tuple[float, float]:
    """Time derivatives (dx/dtau, ds/dtau) at a phase point."""
    return (p.m * (st.s - p.lam) * st.x, (h(st.s, p) - st.x) * st.s)


def equilibrium(p: Params) -> State:
    """The unique interior fixed point ((1 - lam)(lam + a), lam)."""
    return State((1.0 - p.lam) * (p.lam + p.a), p.lam)


def test_params_validation():
    p = Params(a=0.05, lam=0.05, m=1.0)
    assert p.cycle_regime and p.proven_region
    assert p.h_lam == pytest.approx(0.95 * 0.1)
    assert p.hopf_margin == pytest.approx(0.85)
    with pytest.raises(ValueError):
        Params(a=0.0, lam=0.1, m=1.0)
    with pytest.raises(ValueError):
        Params(a=0.1, lam=-0.1, m=1.0)
    with pytest.raises(ValueError):
        Params(a=0.1, lam=0.1, m=math.nan)
    # limit mode admits zeros for evaluating closed forms
    assert Params(a=0.0, lam=0.0, m=1.0, limit=True).cycle_regime
    # and names its own rule for a negative value; outside it, a hint to it
    with pytest.raises(ValueError, match=r"^a must be >= 0, got -1\.0$"):
        Params(a=-1.0, lam=0.1, m=1.0, limit=True)
    message = "a must be > 0 (use limit=True to evaluate closed forms at a = 0), got -1.0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Params(a=-1.0, lam=0.1, m=1.0)


def test_cycle_regime_flag_matches_inequality():
    assert Params(a=0.2, lam=0.39, m=1.0).cycle_regime  # 2*0.39 + 0.2 = 0.98
    assert not Params(a=0.2, lam=0.4, m=1.0).cycle_regime  # exactly 1.0


def test_a_pair_with_no_cycle_gets_one_message_everywhere():
    # margin 1 - 2 lam - a negative, exactly 0, and -1e-300 at lam = 1/2;
    # x_max_lower reads the cycle flag and enters require_cycle only to raise
    for p in (
        Params(a=0.5, lam=0.3, m=1.0),
        Params(a=0.2, lam=0.4, m=1.0),
        Params(a=1e-300, lam=0.5, m=1e-3),
        Params(a=0.99, lam=0.3, m=1e6),
    ):
        message = (
            f"(a, lambda) = ({p.a!r}, {p.lam!r}) has no limit cycle: need 2*lam + a < 1, "
            f"got margin {p.hopf_margin!r}"
        )
        for check in (
            require_cycle,
            cycle_bounds,
            lambda p: cycle_bounds(p, force=True),
            x_max_upper,
            x_max_lower,
            lambda p: integrate(State(0.5, 0.5), p),
        ):
            with pytest.raises(ValueError) as info:
                check(p)
            assert str(info.value) == message, (p, check)


@pytest.mark.parametrize(
    "a,lam,expected",
    [
        (0.05, 0.05, True),
        (0.05, 0.06, False),
        (0.1, 0.01, True),
        (0.1, 0.02, False),
        (0.11, 0.005, False),
        (0.02, 0.05, True),
    ],
)
def test_proven_region_flag(a, lam, expected):
    assert Params(a=a, lam=lam, m=1.0).proven_region is expected


def test_h_values():
    p = Params(a=0.1, lam=0.1, m=1.0)
    assert h(0.0, p) == pytest.approx(0.1)
    assert h(1.0, p) == 0.0
    assert h(0.45, p) == pytest.approx(0.3025)  # vertex (1+a)^2/4
    assert h(1.5, p) < 0  # negative beyond s = 1 by design


def test_vector_field_examples():
    p = Params(a=0.1, lam=0.1, m=1.0)
    # fixed point
    eq = equilibrium(p)
    assert vector_field(eq, p) == (0.0, 0.0)
    # on the prey isocline only s' vanishes
    st_ = State(h(0.5, p), 0.5)
    xdot, sdot = vector_field(st_, p)
    assert sdot == 0.0
    assert xdot == pytest.approx(p.m * (0.5 - p.lam) * h(0.5, p))
    # direct arithmetic: h(0.5) = 0.3, so s' = (0.3 - 0.5)*0.5 = -0.1
    xdot, sdot = vector_field(State(0.5, 0.5), p)
    assert xdot == pytest.approx(0.2)
    assert sdot == pytest.approx(-0.1)


def test_log_vector_field_examples():
    p = Params(a=0.1, lam=0.1, m=1.0)
    ls = equilibrium(p).log()
    du, dv = log_vector_field(ls, p)
    assert abs(du) < 1e-14 and abs(dv) < 1e-14
    # predator isocline: du vanishes on v = ln(lam) (up to the
    # exp(log(lam)) roundtrip ulp)
    du, _ = log_vector_field(LogState(0.3, math.log(p.lam)), p)
    assert abs(du) <= 1e-15


@given(
    u=st.floats(-50.0, 2.0),
    v=st.floats(-50.0, 0.5),
    a=st.floats(0.01, 0.4),
    lam=st.floats(0.01, 0.4),
    m=st.floats(0.01, 20.0),
)
def test_log_field_is_pushforward_of_field(u, v, a, lam, m):
    p = Params(a=a, lam=lam, m=m)
    ls = LogState(u, v)
    state = State(math.exp(u), math.exp(v))
    xdot, sdot = vector_field(state, p)
    du, dv = log_vector_field(ls, p)
    # du = x'/x, dv = s'/s
    assert du * state.x == pytest.approx(xdot, rel=1e-13, abs=1e-300)
    assert dv * state.s == pytest.approx(sdot, rel=1e-13, abs=1e-300)


def test_log_field_defined_everywhere():
    p = Params(a=0.05, lam=0.05, m=1.0)
    for u, v in [(1e4, 1e4), (-1e8, 700.0), (800.0, -800.0)]:
        du, dv = log_vector_field(LogState(u, v), p)
        assert math.isfinite(du) and math.isfinite(dv)


def test_phase_slope():
    p = Params(a=0.1, lam=0.1, m=1.0)

    def phase_slope(st: State) -> float:
        # ds/dx = ((h(s) - x) s) / (m x (s - lam)), read off the field
        dx, ds = vector_field(st, p)
        return ds / dx

    assert phase_slope(State(h(0.5, p), 0.5)) == 0.0
    with pytest.raises(ZeroDivisionError):
        phase_slope(State(0.5, p.lam))  # undefined on the isocline s = lam
    # (-0.1) / (1 * 0.5 * 0.4)
    assert phase_slope(State(0.5, 0.5)) == pytest.approx(-0.5)


def test_equilibrium_values():
    eq01 = equilibrium(Params(a=0.1, lam=0.1, m=1.0))
    assert eq01.x == pytest.approx(0.18, rel=1e-15) and eq01.s == 0.1
    eq = equilibrium(Params(a=0.05, lam=0.05, m=1.0))
    assert eq.x == pytest.approx(0.095) and eq.s == 0.05
    with pytest.raises(ValueError):
        Params(a=0.1, lam=0.0, m=1.0)  # lam = 0 boundary rejected


def test_equilibrium_is_fixed_point_tightly():
    for a, lam, m in [(0.05, 0.05, 1.0), (0.01, 0.02, 5.0), (0.1, 0.01, 0.3)]:
        p = Params(a=a, lam=lam, m=m)
        xdot, sdot = vector_field(equilibrium(p), p)
        assert abs(xdot) <= 1e-15 and abs(sdot) <= 1e-15


def test_nondimensionalize():
    assert nondimensionalize(RMParams(r=1, K=2, q=1, H=2, p=2, d=1)).a == 1.0
    assert nondimensionalize(RMParams(r=1, K=10, q=1, H=1, p=2, d=1)).m == 1.0
    p = nondimensionalize(RMParams(r=1, K=10, q=1, H=1, p=2, d=1))
    assert (p.a, p.lam, p.m) == (0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        RMParams(r=1, K=10, q=1, H=1, p=1, d=1)  # p <= d has no predator growth


def test_state_positivity():
    with pytest.raises(ValueError):
        State(0.0, 0.5)
    with pytest.raises(ValueError):
        State(0.5, -1.0)
    ls = State(0.5, 0.25).log()
    assert math.exp(ls.u) == pytest.approx(0.5) and math.exp(ls.v) == pytest.approx(0.25)


def test_params_from_json():
    p = params_from_json('{"a": 0.05, "lambda": 0.02, "m": 2.0}')
    assert (p.a, p.lam, p.m) == (0.05, 0.02, 2.0)
    rm = {"r": 1, "K": 10, "q": 3, "H": 1, "p": 2, "d": 1}
    p2 = params_from_json(json.dumps(rm))
    assert (p2.a, p2.lam, p2.m) == (0.1, 0.1, 1.0)
    p3 = params_from_json(rm)  # mapping input, q ignored by the transform
    assert p3 == p2
    with pytest.raises(ValueError):
        params_from_json('{"a": 0.1, "m": 1.0}')


@pytest.mark.parametrize(
    "text, kind",
    [("5", "int"), ("null", "NoneType"), ("true", "bool"), ('[["a", 0.05]]', "list")],
)
def test_a_parameter_record_is_a_json_object(text, kind):
    message = f"parameter record must be a JSON object, got {kind}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        params_from_json(text)
    if kind != "int":  # an already-parsed record is checked the same way
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            params_from_json(json.loads(text))


RM_RECORD = '{"r": 1, "K": 10, "q": 3, "H": 1, "p": %s, "d": 1}'


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: Params(a=0.05, lam=0.05, m=True),
            "m must be a finite int or float, got True",
            id="Params",
        ),
        pytest.param(
            lambda: Params(a=False, lam=0.05, m=1.0, limit=True),
            "a must be a finite int or float, got False",
            id="Params-limit",
        ),
        pytest.param(
            lambda: RMParams(r=1, K=10, q=3, H=1, p=2, d=True),
            "d must be a finite int or float, got True",
            id="RMParams",
        ),
        pytest.param(
            lambda: limit_cycle(Params(a=0.05, lam=0.05, m=1.0), x0=True), "got True",
            id="limit_cycle-x0",
        ),
        pytest.param(
            lambda: limit_cycle(Params(a=0.05, lam=0.05, m=1.0), x0="0.5"),
            "x0 must be a finite int or float, got '0.5'", id="limit_cycle-x0-string",
        ),
        # a JSON record goes to the constructors unconverted
        pytest.param(
            lambda: params_from_json('{"a": 0.05, "lambda": 0.05, "m": true}'), "got True",
            id="json-bool",
        ),
        pytest.param(
            lambda: params_from_json('{"a": "0.05", "lambda": 0.05, "m": 1}'), "got '0.05'",
            id="json-string",
        ),
        pytest.param(
            lambda: params_from_json(RM_RECORD % "true"),
            "p must be a finite int or float, got True",
            id="json-rm-bool",
        ),
        pytest.param(
            lambda: params_from_json(RM_RECORD % '"2"'), "got '2'", id="json-rm-string"
        ),
    ],
)
def test_a_bool_or_a_string_is_not_a_parameter(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_finite_float_takes_only_finite_ints_and_floats():
    assert finite_float("n", 3) == 3.0 and type(finite_float("n", 3)) is float
    assert type(finite_float("n", np.float64(0.5))) is float
    assert finite_float("n", 10**308) == 1e308
    for bad in (2**1024, np.float32(0.5), np.int64(1), Fraction(1, 2), 1j, None, np.bool_(1)):
        message = f"n must be a finite int or float, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            finite_float("n", bad)


def test_integer_takes_only_integers_that_are_not_bools():
    assert integer("n", 3) == 3 and type(integer("n", np.int64(3))) is int
    for bad in (True, np.bool_(1), 2.0, 1.5, "3", Fraction(2, 1), None):
        message = f"n must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            integer("n", bad)
    # the figures' point count read True as 1, and 2.0 and "3" raised TypeError
    for bad in (True, 2.0, "3"):
        message = f"points must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            figure_m_values(bad)
    assert figure_m_values(np.int64(2)) == (0.01, 5.0)


def test_numpy_scalars_are_stored_as_floats_or_rejected():
    p = Params(a=np.float64(0.05), lam=np.float64(0.05), m=np.float64(1.0))
    cfg = SimConfig(rtol=np.float64(1e-10), cycle_tol=np.float64(1e-9))
    assert all(type(v) is float for v in (p.a, p.lam, p.m, cfg.rtol, cfg.cycle_tol))
    # a float32 tolerance would run the stepper in float32
    with pytest.raises(ValueError, match="^rtol must be a finite int or float, got "):
        SimConfig(rtol=np.float32(1e-10))


P_REF = Params(a=0.05, lam=0.05, m=1.0)


def _library(build):
    def run(value, tmp_path, capsys):
        with pytest.raises(ValueError) as info:
            build(value)
        return str(info.value)

    return run


def _cli(command, record):
    def run(value, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(record(value)))
        if command == "sweep":
            argv = ["sweep", "--spec", str(path), "--out", str(tmp_path / "report.csv")]
        else:
            argv = [command, "--params", str(path)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and not out
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err[len("error: "):-1]

    return run


SPEC = {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0]}

# every entry point of a number from outside: a call that passes it one
# value, and the field its error must name
ENTRY_POINTS = {
    "Params": (_library(lambda v: Params(a=0.05, lam=v, m=1.0)), "lam"),
    "RMParams": (_library(lambda v: RMParams(r=1, K=10, q=3, H=1, p=2, d=v)), "d"),
    "State": (_library(lambda v: State(v, 0.5)), "x"),
    "SimConfig": (_library(lambda v: SimConfig(rtol=v)), "rtol"),
    "limit_cycle-x0": (_library(lambda v: limit_cycle(P_REF, x0=v)), "x0"),
    "transit_points-s0": (_library(lambda v: transit_points(P_REF, v)), "s0"),
    "integrate-pair": (
        _library(lambda v: integrate((-1.0, v), P_REF, w_chart=True)), "start w"
    ),
    "integrate-LogState": (_library(lambda v: integrate(LogState(v, -3.0), P_REF)), "start u"),
    "SweepSpec-axis": (_library(lambda v: SweepSpec((0.05,), (0.05,), (1.0, v))), "m_values"),
    "smax_lower_bound-x_gamma": (_library(lambda v: smax_lower_bound(v, 1.0)), "x_gamma"),
    "smax_lower_bound-m": (_library(lambda v: smax_lower_bound(0.01, v)), "m"),
    "cli-params": (_cli("bounds", lambda v: {"a": 0.05, "lambda": 0.05, "m": v}), "m"),
    "cli-params-dimensional": (
        _cli("bounds", lambda v: {"r": 1, "K": v, "q": 3, "H": 1, "p": 2, "d": 1}), "K"
    ),
    "cli-spec-axis": (_cli("sweep", lambda v: {**SPEC, "m_values": [1.0, v]}), "m_values"),
    "cli-spec-sim": (_cli("sweep", lambda v: {**SPEC, "sim": {"rtol": v}}), "rtol"),
}


@pytest.mark.parametrize(
    "value", [True, "0.05", math.nan, math.inf, 10**400],
    ids=["bool", "string", "nan", "inf", "huge-int"],
)
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_number_from_outside_is_a_finite_int_or_float(tmp_path, capsys, entry, value):
    run, field = ENTRY_POINTS[entry]
    assert run(value, tmp_path, capsys) == f"{field} must be a finite int or float, got {value!r}"


# every entry point of a positive number or a count: a call that passes it
# one value, the field its error must name, and whether it is a count
POSITIVE_ENTRY_POINTS = {
    "RMParams": (_library(lambda v: RMParams(r=1, K=v, q=3, H=1, p=2, d=1)), "K", False),
    "State-x": (_library(lambda v: State(v, 0.5)), "x", False),
    "State-s": (_library(lambda v: State(0.5, v)), "s", False),
    "SimConfig-rtol": (_library(lambda v: SimConfig(rtol=v)), "rtol", False),
    "SimConfig-cycle_tol": (_library(lambda v: SimConfig(cycle_tol=v)), "cycle_tol", False),
    "limit_cycle-x0": (_library(lambda v: limit_cycle(P_REF, x0=v)), "x0", False),
    "lv_small_root_ln-A": (_library(lambda v: lv_small_root_ln(v, 2.0)), "A", False),
    "smax_lower_bound-m": (_library(lambda v: smax_lower_bound(0.01, v)), "m", False),
    "SweepSpec-axis": (
        _library(lambda v: SweepSpec((0.05,), (0.05,), (1.0, v))), "m_values", False
    ),
    "emit_figures-axis": (
        _library(lambda v: emit_figures("fig5", "unwritten", m_values=[1.0, v])),
        "m_values", False,
    ),
    "integrate-n_downs": (
        _library(lambda v: integrate(State(0.5, 0.5), P_REF, n_downs=v)), "n_downs", True
    ),
    "figure_m_values-points": (_library(figure_m_values), "points", True),
    "SweepSpec-jobs": (
        _library(lambda v: SweepSpec((0.05,), (0.05,), (1.0,), jobs=v)), "jobs", True
    ),
    "emit_figures-jobs": (
        _library(lambda v: emit_figures("fig5", "unwritten", m_values=[1.0], jobs=v)),
        "jobs", True,
    ),
}


@pytest.mark.parametrize(
    "value", [0, -1.0, math.nan, math.inf, True, "1"],
    ids=["zero", "negative", "nan", "inf", "bool", "string"],
)
@pytest.mark.parametrize("entry", list(POSITIVE_ENTRY_POINTS))
def test_every_positive_number_and_count_has_one_rule(tmp_path, capsys, entry, value):
    run, field, count = POSITIVE_ENTRY_POINTS[entry]
    if count:
        rule = ">= 1, got 0" if value == 0 else f"an integer, got {value!r}"
    elif type(value) in (int, float) and math.isfinite(value):
        rule = f"> 0, got {float(value)!r}"
    else:
        rule = f"a finite int or float, got {value!r}"
    assert run(value, tmp_path, capsys) == f"{field} must be {rule}"


# each validating record: a positional and a keyword construction, its repr
# and the names of the fields it compares, in order
RECORDS = [
    (
        Params(0.05, 0.01, 2.5),
        Params(m=2.5, lam=0.01, a=0.05, limit=False),
        "Params(a=0.05, lam=0.01, m=2.5, limit=False)",
        ("a", "lam", "m", "limit"),
    ),
    (
        RMParams(1.0, 2, 0.5, 0.1, 0.3, 0.2),
        RMParams(r=1.0, K=2, q=0.5, H=0.1, p=0.3, d=0.2),
        "RMParams(r=1.0, K=2.0, q=0.5, H=0.1, p=0.3, d=0.2)",
        ("r", "K", "q", "H", "p", "d"),
    ),
    (State(0.25, 0.5), State(s=0.5, x=0.25), "State(x=0.25, s=0.5)", ("x", "s")),
    (
        SimConfig(1e-8, 1e-7),
        SimConfig(cycle_tol=1e-7, rtol=1e-8),
        "SimConfig(rtol=1e-08, cycle_tol=1e-07)",
        ("rtol", "cycle_tol"),
    ),
]


@pytest.mark.parametrize(
    "record, twin, text, names", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_validating_records_behave_as_frozen_values(record, twin, text, names):
    values = tuple(getattr(record, name) for name in names)
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin) == hash(values)
    # equal only to its own class: neither to the tuple of its values nor
    # to a look-alike
    assert record != values and values != record
    assert record != type("Twin", (), dict.fromkeys(names))()
    with pytest.raises(TypeError):
        iter(record)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, names[0]) == values[0]  # nothing was deleted
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record and repr(clone) == text
        assert vars(clone) == vars(record)


def test_params_derived_fields_stay_out_of_repr_equality_and_hash():
    p = Params(0.05, 0.01, 2.5)
    derived = {"h_lam": h(0.01, p), "hopf_margin": 0.93, "cycle_regime": True,
               "proven_region": True}
    assert {name: getattr(p, name) for name in derived} == pytest.approx(derived)
    assert not any(name in repr(p) for name in derived)
    # a Params whose derived fields differ compares and hashes on (a, lam, m, limit) alone
    other = copy.copy(p)
    vars(other).update(h_lam=0.0, hopf_margin=-1.0, cycle_regime=False, proven_region=False)
    assert other == p and hash(other) == hash(p) == hash((0.05, 0.01, 2.5, False))
    assert repr(other) == repr(p)
    assert Params(0.05, 0.01, 2.5, True) != p
