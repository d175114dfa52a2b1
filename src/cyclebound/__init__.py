"""Closed-form limit-cycle bounds for a predator-prey system, verified by simulation.

``import cyclebound`` loads :mod:`cyclebound.model` and nothing else;
every other layer loads the first time one of its names (or the layer
itself, ``cyclebound.simulator``) is read from the package, which then
caches the name (PEP 562).  A closed-form bound set costs microseconds,
so compiling the simulator, region4 and the harness on import would
cost a bounds-only process far more than its work.  ``model`` loads at
once because every use starts from its :class:`Params`: deferring it
would only move its cost into the first call.  Scalar bounds thus load
``lvroot`` and ``bounds``, and a cycle adds ``simulator`` and ``dopri``.
None of these layers loads ``dataclasses`` (which loads ``inspect``):
their validating records are frozen classes on ``model``'s own base, and
only the harness's sweep spec is a dataclass.
"""

from importlib import import_module as _import_module

from . import model

__version__ = "0.1.0"

# each exported name, by the submodule that defines it
_EXPORTS = {
    "bounds": (
        "BoundSet",
        "CanardEstimates",
        "canard_estimates",
        "cycle_bounds",
        "x_max_lower",
        "x_max_upper",
        "x_max_upper_linear",
        "x_max_upper_refined",
    ),
    "harness": (
        "DEFAULT_PANELS",
        "REFERENCE_SPECS",
        "ProofCheckReport",
        "SweepReport",
        "SweepSpec",
        "emit_figures",
        "proof_spotchecks",
        "run_sweep",
        "x_max_barrier_coefficients",
    ),
    "lvroot": ("ZIndex", "lv_small_root_ln", "z", "z_exact"),
    "model": (
        "PROVEN_BOXES",
        "LogState",
        "Params",
        "RMParams",
        "State",
        "h",
        "log_vector_field",
        "nondimensionalize",
        "params_from_json",
    ),
    "region4": (
        "AlphaFactors",
        "Case",
        "alpha2_peak",
        "alpha_factors",
        "growth_ratio_quadratic",
        "handoff_cap_bound",
        "handoff_cap_bound_ln",
        "handoff_cap_envelope",
        "smax_lower_bound",
    ),
    "simulator": (
        "CycleExtremes",
        "CycleReport",
        "Event",
        "EventKind",
        "IntegrationError",
        "SimConfig",
        "Trajectory",
        "TransitPoints",
        "cycle_extreme_report",
        "integrate",
        "limit_cycle",
        "transit_points",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("bounds", "dopri", "harness", "lvroot", "model", "region4", "simulator")

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
