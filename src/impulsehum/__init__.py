"""Impulse control of the 1-D heat equation with dynamic boundary conditions.

The library computes minimal-norm impulse controls by a penalized duality
method driven by conjugate gradients, and numerically verifies the
logarithmic-convexity / observability machinery that guarantees such
controls exist: frequency function, explicit constants, the three-point
inequality, and single-time observability fits.

The root exports the objects a caller builds and the library's functions;
records a caller only receives (``HumSolution``, ``RunSummary``, ...) are
imported from their modules.
"""

from .config import ConfigError, ExperimentConfig, initial_state, load_config, validate
from .convexity import (
    ObservabilityFit,
    ObservabilitySample,
    WeightParams,
    admissible_s_bound,
    bound_satisfied,
    check_admissible,
    convexity_constants,
    epsilon_split_slack,
    fit_observability,
    frequency,
    split_constants,
    three_point_check,
    write_frequency_csv,
)
from .evolution import (
    TimeScheme,
    Trajectory,
    evolve,
    evolve_trajectory,
    post_impulse_flow,
    pre_impulse_flow,
    solve_impulsive,
    steps_for,
)
from .hum import (
    HumConfig,
    cg_solve,
    cost_bound_check,
    gramian_apply,
    solve_cost_weighted,
    solution_to_dict,
    write_solution_json,
    write_state_csv,
)
from .mesh import (
    Grid,
    build_discretization,
    control_op,
    inner,
    norm,
    subdomain_mask,
    subdomain_norm,
)
from .rng import SplitMix64, random_smooth_state
from .scenarios import (
    run_controlled,
    run_convexity,
    run_sweep,
    run_table1,
    run_uncontrolled,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "Grid",
    "HumConfig",
    "ObservabilityFit",
    "ObservabilitySample",
    "SplitMix64",
    "TimeScheme",
    "Trajectory",
    "WeightParams",
    "admissible_s_bound",
    "bound_satisfied",
    "build_discretization",
    "cg_solve",
    "check_admissible",
    "control_op",
    "convexity_constants",
    "cost_bound_check",
    "epsilon_split_slack",
    "evolve",
    "evolve_trajectory",
    "fit_observability",
    "frequency",
    "gramian_apply",
    "initial_state",
    "inner",
    "load_config",
    "norm",
    "post_impulse_flow",
    "pre_impulse_flow",
    "random_smooth_state",
    "run_controlled",
    "run_convexity",
    "run_sweep",
    "run_table1",
    "run_uncontrolled",
    "solution_to_dict",
    "solve_cost_weighted",
    "solve_impulsive",
    "split_constants",
    "steps_for",
    "subdomain_mask",
    "subdomain_norm",
    "three_point_check",
    "validate",
    "write_frequency_csv",
    "write_solution_json",
    "write_state_csv",
]
