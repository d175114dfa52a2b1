"""Closed-form limit-cycle bounds for a predator-prey system, verified by simulation."""

from .bounds import (
    BoundSet,
    CanardEstimates,
    ExcursionBounds,
    canard_estimates,
    cycle_bounds,
    excursion_bounds,
    x_max_lower,
    x_max_upper,
    x_max_upper_linear,
    x_max_upper_refined,
)
from .harness import (
    DEFAULT_PANELS,
    REFERENCE_SPECS,
    ProofCheckReport,
    SweepReport,
    SweepSpec,
    emit_figures,
    proof_spotchecks,
    run_sweep,
    x_max_barrier_coefficients,
)
from .lvroot import ZIndex, lv_small_root_ln, z, z_exact
from .model import (
    PROVEN_BOXES,
    LogState,
    Params,
    Region,
    RMParams,
    State,
    equilibrium,
    h,
    log_vector_field,
    nondimensionalize,
    params_from_json,
    vector_field,
)
from .region4 import (
    AlphaFactors,
    Case,
    alpha2_peak,
    alpha_factors,
    growth_ratio_quadratic,
    handoff_cap_bound,
    handoff_cap_bound_ln,
    handoff_cap_envelope,
    recovery_start_cap,
    smax_lower_bound,
    x_max_lower_coarse,
)
from .simulator import (
    CycleExtremes,
    CycleReport,
    Event,
    EventKind,
    IntegrationError,
    SimConfig,
    Trajectory,
    TransitPoints,
    cycle_extreme_report,
    integrate,
    limit_cycle,
    transit_points,
)

__version__ = "0.1.0"
