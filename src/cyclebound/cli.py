"""Command-line interface.

Subcommands mirror the library layers: ``bounds``/``canard`` print the
closed forms, ``simulate``/``cycle`` run the integrator, ``region4``
prints the recovery-branch constants, and ``sweep``/``proofcheck``/
``figures`` drive the verification harness.  Every library name is read
through the package (``cyclebound.cycle_bounds``), which loads a layer on
the first read of one of its names, so each subcommand loads only its
layers; building the parser loads ``bounds``.  ``--rtol`` sets the
integration tolerance where it is offered, and ``sweep`` takes its
tolerances from the spec file or runs ``REFERENCE_SPECS`` as defined.
``sweep`` and ``figures`` simulate their grid points the same way: a
point that fails is written as a NaN row, its reason goes to stderr as
``row (a=..., lambda=..., m=...) failed: ...``, and the other points
and files are still written.

Exit codes: 0 on success and all checks passing, 2 on a bound violation,
3 on simulation non-convergence (including an integration error such as
an exhausted step budget), 1 on usage or parameter errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import cyclebound


def _add_params_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a", type=float, help="half-saturation parameter a")
    sub.add_argument("--lambda", dest="lam", type=float, help="break-even prey density")
    sub.add_argument("--m", type=float, help="predator time-scale ratio")
    sub.add_argument(
        "--params",
        type=Path,
        help="JSON file with either {a, lambda, m} or {r, K, q, H, p, d}",
    )


def _params_from_args(args: argparse.Namespace) -> cyclebound.Params:
    if args.params is not None:
        return cyclebound.params_from_json(args.params.read_text())
    if args.a is None or args.lam is None or args.m is None:
        raise ValueError("give --a, --lambda and --m (or --params FILE)")
    return cyclebound.Params(a=args.a, lam=args.lam, m=args.m)


def _sim_config(args: argparse.Namespace) -> cyclebound.SimConfig:
    return cyclebound.SimConfig() if args.rtol is None else cyclebound.SimConfig(rtol=args.rtol)


def _print_record(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for key, value in record.items():
            print(f"{key} = {value}")


def _cmd_bounds(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    b = cyclebound.cycle_bounds(p, force=args.force)
    _print_record(b.as_dict(), args.json)
    return 0


def _cmd_canard(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    _print_record(cyclebound.canard_estimates(p).as_dict(), as_json=True)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.tours < 0:
        raise ValueError(f"--tours must be >= 0, got {args.tours}")
    s0 = cyclebound.model.finite_float("--s0", args.s0)
    if not 0.0 < s0 < 1.0:
        raise ValueError(f"need 0 < --s0 < 1, got {s0!r}")
    p = _params_from_args(args)
    cfg = _sim_config(args)
    start = cyclebound.State(cyclebound.h(s0, p), s0)
    traj = cyclebound.integrate(start, p, cfg, n_downs=args.tours + 1)
    lines = ["tau,ln_x,ln_s,region"]
    for (tau, (u, v)), label in zip(
        zip(traj.taus, traj.points), traj.region_labels(p)
    ):
        lines.append(f"{tau:.17g},{u:.17g},{v:.17g},{label}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(text)
        print(f"wrote {len(traj.taus)} samples to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cycle(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    cfg = _sim_config(args)
    report = cyclebound.cycle_extreme_report(p, cfg)
    record = report.as_dict()
    if not report.extremes.converged:
        print("warning: return map did not converge within budget", file=sys.stderr)
    _print_record(record, args.json)
    if not report.extremes.converged:
        return 3
    return 0 if (report.passed or not report.bounds.proven) else 2


def _cmd_region4(args: argparse.Namespace) -> int:
    case = cyclebound.Case(args.case)
    factors = cyclebound.alpha_factors(args.m, case)
    record = {
        "case": case.value,
        "m": args.m,
        "handoff_cap_envelope": cyclebound.handoff_cap_envelope(args.m, case),
        "smax_lower_bound": cyclebound.smax_lower_bound(factors.x_gamma, args.m),
        **factors.as_dict(),
    }
    _print_record(record, as_json=True)
    return 0


def _print_failed_rows(report: cyclebound.SweepReport) -> None:
    for row in report.rows:
        if row.error is not None:
            print(
                f"row (a={row.a!r}, lambda={row.lam!r}, m={row.m!r}) failed: {row.error}",
                file=sys.stderr,
            )


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.spec is None:
        specs = cyclebound.REFERENCE_SPECS
    else:
        specs = [cyclebound.SweepSpec.from_json(json.loads(args.spec.read_text()))]
    if args.jobs is not None:
        specs = [dataclasses.replace(spec, jobs=args.jobs) for spec in specs]
    rows = [row for spec in specs for row in cyclebound.run_sweep(spec).rows]
    report = cyclebound.SweepReport(rows=rows)
    report.to_csv(args.out)
    _print_failed_rows(report)
    print(f"{args.out}: {report.summary()}")
    return report.exit_code


def _cmd_proofcheck(args: argparse.Namespace) -> int:
    report = cyclebound.proof_spotchecks(cyclebound.Case(args.case))
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 2


def _cmd_figures(args: argparse.Namespace) -> int:
    panels = None if args.panel is None else [tuple(spec.split(",")) for spec in args.panel]
    m_values = None if args.points is None else cyclebound.harness.figure_m_values(args.points)
    paths, report = cyclebound.emit_figures(
        args.which, args.out, panels=panels, m_values=m_values, cfg=_sim_config(args),
        jobs=args.jobs,
    )
    for path in paths:
        print(path)
    _print_failed_rows(report)
    return report.exit_code


def _cmd_transit(args: argparse.Namespace) -> int:
    p = _params_from_args(args)
    tp = cyclebound.transit_points(p, args.s0, _sim_config(args))
    _print_record(dataclasses.asdict(tp), as_json=True)
    return 0


_JOBS_HELP = "processes in all, this one included; N > 1 forks N - 1 workers, POSIX only"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclebound",
        description="Closed-form limit-cycle bounds, simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print the closed-form bound set")
    _add_params_args(p_bounds)
    p_bounds.add_argument("--force", action="store_true",
                          help="evaluate outside the proven parameter box")
    p_bounds.add_argument("--json", action="store_true")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_canard = sub.add_parser("canard", help="print the small-m approximations")
    _add_params_args(p_canard)
    p_canard.set_defaults(func=_cmd_canard)

    p_sim = sub.add_parser("simulate", help="dump a trajectory as CSV")
    _add_params_args(p_sim)
    p_sim.add_argument("--s0", type=float, default=cyclebound.bounds.S_MAX_LO,
                       help="start prey level on x = h(s)")
    p_sim.add_argument("--tours", type=int, default=1, help="number of full loops")
    p_sim.add_argument("--rtol", type=float)
    p_sim.add_argument("--out", type=Path, help="output CSV (default: stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cycle = sub.add_parser("cycle", help="locate the limit cycle and compare to bounds")
    _add_params_args(p_cycle)
    p_cycle.add_argument("--rtol", type=float)
    p_cycle.add_argument("--json", action="store_true")
    p_cycle.set_defaults(func=_cmd_cycle)

    p_r4 = sub.add_parser("region4", help="recovery-branch constants for one m")
    p_r4.add_argument("--case", choices=list(cyclebound.PROVEN_BOXES), required=True)
    p_r4.add_argument("--m", type=float, required=True)
    p_r4.set_defaults(func=_cmd_region4)

    p_sweep = sub.add_parser("sweep", help="verify bounds against simulation on a grid")
    p_sweep.add_argument("--spec", type=Path, help="sweep spec JSON (default: reference grid)")
    p_sweep.add_argument("--out", type=Path, required=True, help="report CSV path")
    p_sweep.add_argument("--jobs", type=int, help=f"{_JOBS_HELP} (default from spec)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_proof = sub.add_parser("proofcheck", help="numerical spot-checks of the sign facts")
    p_proof.add_argument("--case", choices=list(cyclebound.PROVEN_BOXES), required=True)
    p_proof.set_defaults(func=_cmd_proofcheck)

    p_fig = sub.add_parser("figures", help="emit bound-vs-simulation curves as CSV")
    p_fig.add_argument("--which", choices=["fig2", "fig3", "fig4", "fig5", "all"],
                       required=True)
    p_fig.add_argument("--out", type=Path, required=True, help="output directory")
    p_fig.add_argument("--points", type=int, help="number of m values (default 50)")
    p_fig.add_argument("--rtol", type=float)
    p_fig.add_argument("--jobs", type=int, default=1, help=f"{_JOBS_HELP} (default 1)")
    p_fig.add_argument(
        "--panel",
        action="append",
        metavar="A,LAMBDA",
        help="restrict to given panels (default: harness.DEFAULT_PANELS)",
    )
    p_fig.set_defaults(func=_cmd_figures)

    p_transit = sub.add_parser("transit", help="one tour from (h(s0), s0): crossing values")
    _add_params_args(p_transit)
    p_transit.add_argument("--s0", type=float, default=cyclebound.bounds.S_MAX_LO)
    p_transit.add_argument("--rtol", type=float)
    p_transit.set_defaults(func=_cmd_transit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # after the clause above: naming IntegrationError loads the simulator
    except cyclebound.IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
