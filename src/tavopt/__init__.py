"""Solver and diagnostics for time-average optimization over finite decision sets.

Decisions come from a finite (generally non-convex) set; the goal is a
sequence whose running average minimizes a convex separable objective subject
to affine constraints on the average.  The engine runs a fixed-step dual
subgradient iteration whose primal time averages converge to the optimum;
the analysis layer estimates the dual maximizer, detects the transient and
steady-state phases, and evaluates the convergence bounds; brute-force
oracles provide independent reference optima.
"""

from .analysis import (
    BoundSet,
    DriftReport,
    EstimationError,
    MultiplierEstimate,
    PhaseReport,
    convergence_bounds,
    drift_certificate,
    dual_function,
    dual_function_batch,
    dual_subgradient,
    error_series,
    estimate_multiplier,
    estimate_sharpness,
    fit_loglog_slope,
    iterations_to_accuracy,
    optimality_error,
    phase_detect,
)
from .cli import ExperimentConfig, reference_instance, run_cli
from .config import ParseError, parse_problem_config, serialize_problem_config
from .engine import (
    NumericError,
    RunTrace,
    SolverConfig,
    dual_update,
    run,
    staggered_average,
    write_trace_csv,
    x_update,
    y_update,
)
from .oracle import InfeasibilityError, OracleResult, solve_reference, solve_reference_lp
from .problem import (
    AffineConstraint,
    DecisionSet,
    ExplicitPoints,
    ExtendedBox,
    GridProduct,
    LinearPiece,
    PiecewiseLinearPiece,
    ProblemSpec,
    QuadraticPiece,
    SeparableConvexObjective,
    evaluate_constraints,
    evaluate_objective,
    lipschitz_bound,
    squared_norm_bound,
    tight_box,
)

__version__ = "0.1.0"
