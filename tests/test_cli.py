import dataclasses
import inspect
import json
import math

import pytest

import cyclebound
from cyclebound import cli, harness
from cyclebound.bounds import S_MAX_LO, cycle_bounds, x_max_lower
from cyclebound.cli import main
from cyclebound.harness import CSV_HEADER
from cyclebound.model import Params
from cyclebound.simulator import (
    EventOrderError,
    StepLimitError,
    StepSizeError,
    cycle_extreme_report,
)


def run_cli(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_bounds_json(capsys):
    code, out, _ = run_cli(
        "bounds", "--a", "0.05", "--lambda", "0.05", "--m", "1.0", "--json",
        capsys=capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["proven"] is True
    assert record["x_max_lo"] < record["x_max_hi"]


def test_bounds_text_and_force(capsys):
    code, out, _ = run_cli(
        "bounds", "--a", "0.1", "--lambda", "0.1", "--m", "1.0", "--force",
        capsys=capsys,
    )
    assert code == 0
    assert "x_max_hi = 1.45" in out
    code, _, err = run_cli(
        "bounds", "--a", "0.1", "--lambda", "0.1", "--m", "1.0", capsys=capsys
    )
    assert code == 1
    assert "proven parameter box" in err
    # the x_max anchor is the proven prey-maximum bound, not an option
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--a", "0.05", "--lambda", "0.05", "--m", "5", "--s0", "0.8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --s0" in capsys.readouterr().err


def test_bounds_from_params_file(tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text('{"r": 1, "K": 10, "q": 1, "H": 1, "p": 2, "d": 1}')
    code, out, _ = run_cli(
        "bounds", "--params", str(f), "--force", "--json", capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["proven"] is False  # a = lam = 0.1


def test_a_params_file_that_is_no_json_object_exits_one(tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text("[[0.05, 0.05, 1.0]]")
    code, out, err = run_cli("bounds", "--params", str(f), capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "error: parameter record must be a JSON object, got list\n"


def test_canard(capsys):
    code, out, _ = run_cli(
        "canard", "--a", "0.1", "--lambda", "0.1", "--m", "0.01", capsys=capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["x_max_c"] == pytest.approx(0.3025)


def test_cycle_json(capsys):
    code, out, _ = run_cli(
        "cycle", "--a", "0.05", "--lambda", "0.05", "--m", "1.0",
        "--rtol", "1e-8", "--json", capsys=capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["extremes"]["converged"] is True
    assert record["extremes"]["tours"] >= 2
    assert record["extremes"]["raw_events"] == 4  # no chatter at this point
    assert record["passed"] is True
    assert record["min_margin"] > 0
    assert set(record) == {
        "params", "bounds", "extremes", "margins",
        "min_margin", "binding_bound", "binding_margin", "passed",
    }
    # the stepper's work on the reported tour and on all tours
    stats, total = record["extremes"]["stats"], record["extremes"]["total_stats"]
    assert set(stats) == set(total) == {"steps", "rejected_steps", "rhs_evals"}
    assert 0 < stats["steps"] < total["steps"]
    assert 0 < stats["rejected_steps"] <= total["rejected_steps"]
    assert stats["rhs_evals"] > 12 * stats["steps"]


def test_cycle_json_names_the_binding_bound(capsys):
    # min_margin is the structural s_max <= 1 margin, -ln s_max ~ 1e-7
    # here; the binding bound is the tightest of the other seven
    code, out, _ = run_cli(
        "cycle", "--a", "0.05", "--lambda", "0.01", "--m", "5", "--json", capsys=capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["min_margin"] == record["margins"]["s_max_hi"] < 1e-6
    assert record["binding_bound"] == "x_max_hi"
    assert record["binding_margin"] == pytest.approx(0.0425, abs=5e-5)
    others = {k: v for k, v in record["margins"].items() if k != "s_max_hi"}
    assert record["binding_margin"] == min(others.values())


def test_s0_defaults_are_the_default_anchor():
    # s0 is only the start level of simulate and transit, which default to
    # the x_max anchor; no function, field or spec key sets the anchor
    parser = cli.build_parser()
    params = ["--a", "0.05", "--lambda", "0.05", "--m", "1"]
    for command in ("simulate", "transit"):
        assert parser.parse_args([command, *params]).s0 == S_MAX_LO
    for fn in (cycle_bounds, x_max_lower, cycle_extreme_report):
        assert "s0" not in inspect.signature(fn).parameters
    assert "s0" not in {f.name for f in dataclasses.fields(harness.SweepSpec)}
    assert "s0" not in cycle_bounds(Params(a=0.05, lam=0.05, m=1.0)).as_dict()


def test_simulate_csv(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        "simulate", "--a", "0.05", "--lambda", "0.05", "--m", "1.0",
        "--rtol", "1e-8", "--out", str(out_file), capsys=capsys,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "tau,ln_x,ln_s,region"
    assert len(lines) > 50
    tau, ln_x, ln_s, region = lines[1].split(",")
    assert region in {"R1", "R2", "R3", "R4", "isocline_h", "isocline_lambda"}
    assert float(tau) == 0.0
    # the default --tours 1 from s0 = 0.8 > lam ends at the second
    # descending s = lam crossing, which is the last sample
    ln_lam = math.log(0.05)
    ln_s_col = [float(line.split(",")[2]) for line in lines[1:]]
    downs = sum(prev >= ln_lam > cur for prev, cur in zip(ln_s_col, ln_s_col[1:]))
    assert downs == 2
    assert ln_s_col[-1] < ln_lam < ln_s_col[-2]


def test_simulate_rejects_negative_tours(capsys):
    # --tours N ends at the (N + 1)-th descending s = lam crossing, and
    # there is no 0-th one
    code, out, err = run_cli(
        "simulate", "--a", "0.05", "--lambda", "0.05", "--m", "1.0", "--tours", "-1",
        capsys=capsys,
    )
    assert code == 1 and not out
    assert err == "error: --tours must be >= 0, got -1\n"


def test_simulate_takes_zero_tours(capsys):
    # --tours 0 runs to the first descending s = lam crossing
    code, out, err = run_cli(
        "simulate", "--a", "0.05", "--lambda", "0.05", "--m", "1.0", "--tours", "0",
        capsys=capsys,
    )
    assert code == 0 and not err
    assert out.startswith("tau,ln_x,ln_s,region\n0,")


@pytest.mark.parametrize(
    "s0, message",
    [
        ("nan", "--s0 must be a finite int or float, got nan"),
        ("inf", "--s0 must be a finite int or float, got inf"),
        ("1.5", "need 0 < --s0 < 1, got 1.5"),
        ("0", "need 0 < --s0 < 1, got 0.0"),
    ],
)
def test_simulate_names_a_bad_s0(capsys, s0, message):
    code, out, err = run_cli(
        "simulate", "--a", "0.05", "--lambda", "0.05", "--m", "1.0", "--s0", s0, capsys=capsys,
    )
    assert code == 1 and not out
    assert err == f"error: {message}\n"


def test_region4_cli(capsys):
    code, out, _ = run_cli("region4", "--case", "A", "--m", "1.0", capsys=capsys)
    assert code == 0
    record = json.loads(out)
    assert record["alpha"] < 0.2
    assert record["smax_lower_bound"] > 0.8
    # (0.190 + 0.681) e^{-2.048 - 1.789}
    assert record["handoff_cap_envelope"] == pytest.approx(0.01877717, rel=1e-5)


def test_region4_cli_names_m_where_the_envelope_underflows(capsys):
    code, out, err = run_cli("region4", "--case", "A", "--m", "400", capsys=capsys)
    assert code == 1 and not out
    assert "underflows at m = 400.0 (case A)" in err


def test_transit_cli(capsys):
    code, out, _ = run_cli(
        "transit", "--a", "0.05", "--lambda", "0.05", "--m", "1.0",
        "--rtol", "1e-8", capsys=capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["s4"] > 0.8


def test_sweep_cli(tmp_path, capsys):
    spec = {
        "a_values": [0.05],
        "lambda_values": [0.05],
        "m_values": [0.3, 1.0],
        "sim": {"rtol": 1e-8, "cycle_tol": 1e-7},
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "report.csv"
    code, out, _ = run_cli(
        "sweep", "--spec", str(spec_file), "--out", str(out_file), capsys=capsys
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert "2/2 proven rows pass" in out


@pytest.mark.parametrize(
    "spec, message",
    [
        (
            {"a_values": [0.05], "lambda_values": [0.05]},
            "sweep spec lacks keys ['m_values']",
        ),
        (
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0],
             "sim": {"rtol": 1e-8, "tol": 1e-9}},
            "sweep spec sim has unknown keys ['tol']",
        ),
        (
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0], "m_value": 1},
            "sweep spec has unknown keys ['m_value']",
        ),
        ([0.05, 0.05, 1.0], "sweep spec must be a JSON object, got list"),
        (
            {"a_values": 0.05, "lambda_values": [0.05], "m_values": [1.0]},
            "malformed sweep spec: ",
        ),
        (
            {"a_values": [0.05, 0.5], "lambda_values": [0.05, 0.3], "m_values": [1.0]},
            "(a, lambda) = (0.5, 0.3) has no limit cycle: need 2*lam + a < 1",
        ),
        (
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0, 0.0]},
            "m_values must be > 0, got 0.0",
        ),
        (
            # the x_max anchor is the proven prey-maximum bound, not a spec key
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0], "s0": 0.8},
            "sweep spec has unknown keys ['s0']",
        ),
        (
            # the absolute tolerance is a constant of the simulator
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0],
             "sim": {"atol_log": 1e-10}},
            "sweep spec sim has unknown keys ['atol_log']; allowed: ['cycle_tol', 'rtol']",
        ),
        (
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0], "jobs": 2.5},
            "jobs must be an integer, got 2.5",
        ),
        (
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0], "jobs": "3"},
            "jobs must be an integer, got '3'",
        ),
        (
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0], "jobs": True},
            "jobs must be an integer, got True",
        ),
        (
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0],
             "sim": {"rtol": True}},
            "rtol must be a finite int or float, got True",
        ),
        (
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0],
             "sim": {"cycle_tol": "1e-9"}},
            "cycle_tol must be a finite int or float, got '1e-9'",
        ),
        (
            {"a_values": ["0.05"], "lambda_values": [0.05], "m_values": [1.0]},
            "a_values must be a finite int or float, got '0.05'",
        ),
        (
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0, True]},
            "m_values must be a finite int or float, got True",
        ),
        (
            # 1 and 1.0 are one value of m: the grid would repeat its rows
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1, 0.3, 1.0]},
            "m_values must not repeat a value, got (1.0, 0.3, 1.0)",
        ),
        (
            # json writes and reads this as Infinity; every tour would converge
            {"a_values": [0.05], "lambda_values": [0.05], "m_values": [1.0],
             "sim": {"cycle_tol": math.inf}},
            "cycle_tol must be a finite int or float, got inf",
        ),
    ],
    ids=[
        "missing-key", "unknown-sim-key", "unknown-key", "not-an-object", "not-a-list",
        "no-cycle-pair", "nonpositive-m", "anchor-key", "dropped-sim-key", "float-jobs",
        "string-jobs", "bool-jobs", "bool-sim-value", "string-sim-value",
        "string-axis-value", "bool-axis-value", "repeated-axis-value", "infinite-cycle-tol",
    ],
)
def test_sweep_malformed_spec_exits_one(tmp_path, capsys, spec, message):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "report.csv"
    code, out, err = run_cli(
        "sweep", "--spec", str(spec_file), "--out", str(out_file), capsys=capsys
    )
    assert code == 1
    assert err.startswith(f"error: {message}")
    assert out == ""
    assert not out_file.exists()


@pytest.mark.parametrize("jobs", [None, "2"])
def test_sweep_defaults_to_the_reference_grid(tmp_path, monkeypatch, capsys, jobs):
    specs = []

    def spying_run_sweep(spec):
        specs.append(spec)
        return harness.SweepReport(rows=[])

    monkeypatch.setattr(cyclebound, "run_sweep", spying_run_sweep)
    out_file = tmp_path / "report.csv"
    args = ["sweep", "--out", str(out_file)] + ([] if jobs is None else ["--jobs", jobs])
    code, _, _ = run_cli(*args, capsys=capsys)
    assert code == 0
    # the reference grids in order, as defined but for --jobs
    if jobs is None:
        assert specs == list(harness.REFERENCE_SPECS)
    else:
        assert specs == [
            dataclasses.replace(spec, jobs=int(jobs)) for spec in harness.REFERENCE_SPECS
        ]
    assert out_file.read_text() == CSV_HEADER + "\n"


def test_figures_cli(tmp_path, capsys):
    code, out, _ = run_cli(
        "figures", "--which", "fig5", "--out", str(tmp_path),
        "--points", "3", "--panel", "0.05,0.05", "--rtol", "1e-8",
        capsys=capsys,
    )
    assert code == 0
    files = sorted(tmp_path.glob("fig5_*.csv"))
    assert len(files) == 1
    assert "fig5_a0.05_lambda0.05.csv" in files[0].name


def test_a_loose_tolerance_fails_the_figure_point_not_the_run(tmp_path, capsys):
    # at rtol = 1e-3 the interpolant a crossing is located on leaves s > 0:
    # the file is still written, with a NaN line, and the reason goes to
    # stderr as for a failed sweep row
    code, out, err = run_cli(
        "figures", "--which", "fig5", "--out", str(tmp_path), "--points", "1",
        "--panel", "0.02,0.02", "--rtol", "1e-3", capsys=capsys,
    )
    assert code == 3
    path = tmp_path / "fig5_a0.02_lambda0.02.csv"
    assert out == f"{path}\n"
    assert err == (
        "row (a=0.02, lambda=0.02, m=0.01) failed: the step to tau = 74962.4 "
        "left the phase space (s <= 0) inside the step; the requested tolerance is too loose\n"
    )
    assert path.read_text() == "m,s_max_lo,s_max_hi,s_max_sim\n0.01,nan,nan,nan\n"


@pytest.mark.parametrize("points", ["0", "-2"])
def test_figures_cli_rejects_fewer_than_one_point(tmp_path, capsys, points):
    code, out, err = run_cli(
        "figures", "--which", "fig5", "--out", str(tmp_path / "figs"),
        "--points", points, "--panel", "0.05,0.05", capsys=capsys,
    )
    assert code == 1 and not out
    assert f"at least 1 point, got {points}" in err
    assert not (tmp_path / "figs").exists()


@pytest.mark.parametrize(
    "panel, message",
    [
        ("0.05", "panel ('0.05',) must be two numbers"),
        ("0.05,0.05,0.1", "panel ('0.05', '0.05', '0.1') must be two numbers"),
        ("0.05,x", "panel ('0.05', 'x') must be two numbers"),
        ("0.05,nan", "panel ('0.05', 'nan') must be a finite int or float, got nan"),
        ("0,0.05", "panel ('0', '0.05') must be > 0, got 0.0"),
        ("0.5,0.3", "panel ('0.5', '0.3') has no limit cycle"),
        # both would write fig5_a0.05_lambda0.05.csv
        ("0.05,0.05", "panels (0.05, 0.05) and (0.05, 0.05) both write fig5_a0.05_lambda0.05.csv"),
        (
            "0.05000001,0.05",
            "panels (0.05, 0.05) and (0.05000001, 0.05) both write fig5_a0.05_lambda0.05.csv",
        ),
    ],
)
def test_figures_cli_names_a_bad_panel_before_simulating(tmp_path, capsys, panel, message):
    # the good panel comes first: none of its files may be written
    code, out, err = run_cli(
        "figures", "--which", "fig5", "--out", str(tmp_path / "figs"), "--points", "2",
        "--panel", "0.05,0.05", "--panel", panel, capsys=capsys,
    )
    assert code == 1 and not out
    assert message in err
    assert not (tmp_path / "figs").exists()


def test_figures_cli_at_two_jobs_writes_what_one_job_writes(tmp_path, capsys):
    # the second panel's point fails at rtol = 1e-3, in whichever process
    # takes it: a NaN line, its reason on stderr and exit code 3 at either
    # job count
    runs = {}
    for jobs in ("1", "2"):
        out_dir = tmp_path / jobs
        code, out, err = run_cli(
            "figures", "--which", "fig5", "--out", str(out_dir), "--points", "1",
            "--panel", "0.05,0.05", "--panel", "0.02,0.02", "--rtol", "1e-3",
            "--jobs", jobs, capsys=capsys,
        )
        texts = [path.read_text() for path in sorted(out_dir.iterdir())]
        runs[jobs] = (code, out.replace(str(out_dir), "OUT"), err, texts)
    assert runs["2"] == runs["1"]
    code, out, err, texts = runs["1"]
    assert code == 3
    assert out == "OUT/fig5_a0.05_lambda0.05.csv\nOUT/fig5_a0.02_lambda0.02.csv\n"
    assert err.startswith("row (a=0.02, lambda=0.02, m=0.01) failed: ")
    assert texts[0] == "m,s_max_lo,s_max_hi,s_max_sim\n0.01,nan,nan,nan\n"  # a = 0.02


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_figures_cli_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    code, out, err = run_cli(
        "figures", "--which", "fig5", "--out", str(tmp_path / "figs"), "--points", "2",
        "--panel", "0.05,0.05", "--jobs", jobs, capsys=capsys,
    )
    assert (code, out, err) == (1, "", "error: jobs must be >= 1\n")
    assert not (tmp_path / "figs").exists()


def test_bad_params_exits_one(capsys):
    code, _, err = run_cli(
        "bounds", "--a", "-1", "--lambda", "0.05", "--m", "1.0", capsys=capsys
    )
    assert code == 1
    assert "error:" in err
    code, _, err = run_cli("cycle", "--a", "0.05", capsys=capsys)
    assert code == 1


@pytest.mark.parametrize("m", ["1e300", "1e308"])
def test_bounds_overflow_exits_one(capsys, m):
    # the product form of x_max_upper overflows near m = 1e154: no inf or
    # NaN bound is printed as proven
    code, out, err = run_cli(
        "bounds", "--a", "0.05", "--lambda", "0.05", "--m", m, capsys=capsys
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: x_max_upper overflows at m = {float(m)!r}")


@pytest.mark.parametrize(
    "command, target, error",
    [
        ("cycle", "cycle_extreme_report", StepLimitError("no stop event within 5 steps")),
        ("simulate", "integrate", StepSizeError("step size underflow at tau = 1")),
        ("transit", "transit_points", EventOrderError("expected crossings")),
    ],
)
def test_integration_error_exits_three(monkeypatch, capsys, command, target, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cyclebound, target, fail)
    code, out, err = run_cli(
        command, "--a", "0.05", "--lambda", "0.05", "--m", "1.0", capsys=capsys
    )
    assert code == 3
    assert err == f"error: {error}\n"
    assert out == ""


def test_a_loose_tolerance_fails_the_row_not_the_sweep(tmp_path, capsys):
    # at rtol = 1e-4 a step of this cycle lands at s < 0: the sweep still
    # writes its CSV, with the row failed and the reason on stderr
    spec = {"a_values": [0.01], "lambda_values": [0.01], "m_values": [10.0],
            "sim": {"rtol": 1e-4}}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "report.csv"
    code, out, err = run_cli(
        "sweep", "--spec", str(spec_file), "--out", str(out_file), capsys=capsys
    )
    assert code == 3
    assert err == (
        "row (a=0.01, lambda=0.01, m=10.0) failed: the step to tau = 10136.9 "
        "left the phase space (s <= 0); the requested tolerance is too loose\n"
    )
    header, failed = out_file.read_text().splitlines()
    assert header == CSV_HEADER
    assert failed.split(",")[2:] == ["10", "true"] + ["nan"] * 10 + ["false", "nan", "false"]



def test_an_overflowing_interpolant_fails_the_row_not_the_sweep(tmp_path, capsys):
    # at rtol = 1e-4 a step's interpolant at this point overflows past
    # s = 0 while a crossing is located in it: the row fails with the
    # reason instead of a bare OverflowError ending the sweep
    spec = {"a_values": [0.01], "lambda_values": [0.01], "m_values": [1.0914347029616938],
            "sim": {"rtol": 1e-4}}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "report.csv"
    code, out, err = run_cli(
        "sweep", "--spec", str(spec_file), "--out", str(out_file), capsys=capsys
    )
    assert code == 3
    assert err == (
        "row (a=0.01, lambda=0.01, m=1.0914347029616938) failed: the step to tau = 13779.1 "
        "left the phase space (s <= 0) inside the step; the requested tolerance is too loose\n"
    )
    header, failed = out_file.read_text().splitlines()
    assert header == CSV_HEADER
    assert failed.split(",")[3:] == ["true"] + ["nan"] * 10 + ["false", "nan", "false"]

def test_sweep_reports_failed_rows(tmp_path, monkeypatch, capsys):
    real_report = harness.cycle_extreme_report

    def failing_at_m_one(p, *args, **kwargs):
        if p.m == 1.0:
            raise StepLimitError("no stop event within 5 steps (tau = 2)")
        return real_report(p, *args, **kwargs)

    monkeypatch.setattr(harness, "cycle_extreme_report", failing_at_m_one)
    specs = []

    def spying_run_sweep(spec):
        specs.append(spec)
        return harness.run_sweep(spec)

    monkeypatch.setattr(cyclebound, "run_sweep", spying_run_sweep)
    spec = {
        "a_values": [0.05],
        "lambda_values": [0.05],
        "m_values": [0.3, 1.0],
        "jobs": 4,
        "sim": {"rtol": 1e-8, "cycle_tol": 1e-7},
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "report.csv"
    code, out, err = run_cli(
        "sweep", "--spec", str(spec_file), "--out", str(out_file), "--jobs", "1",
        capsys=capsys,
    )
    # --jobs overrides the spec's worker count and keeps the rest of it
    assert [(s.jobs, s.m_values, s.sim.rtol) for s in specs] == [(1, (0.3, 1.0), 1e-8)]
    assert code == 3
    assert err == (
        "row (a=0.05, lambda=0.05, m=1.0) failed: "
        "no stop event within 5 steps (tau = 2)\n"
    )
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    ok, failed = (line.split(",") for line in lines[1:])
    assert ok[14] == "true"  # converged
    assert failed[2:] == ["1", "true"] + ["nan"] * 10 + ["false", "nan", "false"]
