"""Command-line front end.

Modes: solve (one run, trace CSV + summary), sweep (iterations-to-accuracy
over a list of V values), diagnose (multiplier estimate, region geometry,
per-step certificates), and reproduce (the bundled demo instances with both
plain and staggered averages, emitted per figure).

Problem instances are JSON files; tavopt.config holds their schema.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis
from .config import parse_problem_config
from .engine import (NumericError, SolverConfig, run, staggered_average, write_table,
                     write_trace_csv)
from .oracle import InfeasibilityError, solve_exact, solve_reference, solve_reference_lp
from .problem import (
    AffineConstraint,
    GridProduct,
    LinearPiece,
    ProblemSpec,
    QuadraticPiece,
    SeparableConvexObjective,
    lipschitz_bound,
    squared_norm_bound,
    tight_box,
)

__all__ = [
    "ExperimentConfig",
    "reference_instance",
    "FIGURE_SETUPS",
    "run_cli",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_CHECK_FAILED = 3

# Resolution of reproduce's grid-oracle cross-check, f_opt_oracle_grid.
_ORACLE_RESOLUTION = 0.01


# ---------------------------------------------------------------------------
# Bundled demo instances
# ---------------------------------------------------------------------------

def reference_instance(objective: str = "linear",
                       extra_constraint: bool = False) -> ProblemSpec:
    """Two-coordinate demo problem on the grid {0,1,2,3}^2.

    Averages must satisfy 2*x1 + x2 >= 1.5 and x1 + 2*x2 >= 1.5 (plus
    x1 + x2 >= 1 when extra_constraint is set, which makes the dual maximizer
    non-unique).  objective picks 1.5*x1 + x2 ("linear") or x1^2 + x2^2
    ("quadratic"); both are minimized at the average (0.5, 0.5).
    """
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0)))
    if objective == "linear":
        pieces = (LinearPiece(slope=1.5), LinearPiece(slope=1.0))
    elif objective == "quadratic":
        pieces = (QuadraticPiece(curvature=1.0, slope=0.0),
                  QuadraticPiece(curvature=1.0, slope=0.0))
    else:
        raise ValueError(f"unknown objective {objective!r}")
    constraints = [AffineConstraint(coeffs=(-2.0, -1.0), offset=1.5),
                   AffineConstraint(coeffs=(-1.0, -2.0), offset=1.5)]
    if extra_constraint:
        constraints.append(AffineConstraint(coeffs=(-1.0, -1.0), offset=1.0))
    return ProblemSpec(decision_set=grid, box=tight_box(grid),
                       objective=SeparableConvexObjective(pieces=pieces),
                       constraints=tuple(constraints))


# figure id -> (objective, extra constraint, geometry, fixed staggered start)
FIGURE_SETUPS = {
    2: ("linear", False, "polyhedral", 2048),
    3: ("quadratic", False, "smooth", 8192),
    4: ("linear", True, "polyhedral", 2048),
    5: ("quadratic", True, "smooth", 8192),
}


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    out_dir: str
    problem_path: Optional[str] = None
    v_list: tuple = (100.0,)
    horizon: int = 200_000
    figure: Optional[int] = None
    method: str = "grid-dual-max"
    geometry: str = "both"
    log_every: int = 1

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode != "reproduce" and self.problem_path is None:
            raise ValueError(f"mode {self.mode} needs a problem file")
        if self.mode != "sweep" and len(self.v_list) != 1:
            raise ValueError(f"{self.mode} mode takes exactly one V")
        if self.mode == "sweep" and len(self.v_list) < 2:
            raise ValueError("sweep mode needs at least two V values")
        if not self.v_list or not all(math.isfinite(v) and v >= 1.0 for v in self.v_list):
            raise ValueError(f"V values must be finite and >= 1, got {self.v_list}")
        if len(set(self.v_list)) != len(self.v_list):
            raise ValueError("V values must be distinct")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


def _load_spec(cfg: ExperimentConfig) -> ProblemSpec:
    with open(cfg.problem_path) as fh:
        return parse_problem_config(fh.read())


def _write_summary(path: str, fields: dict) -> None:
    """One `key: value` line per field; floats in .12g, the rest by str."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"{key}: {value:.12g}\n" if isinstance(value, float) else f"{key}: {value}\n"
                      for key, value in fields.items())


def _do_solve(cfg: ExperimentConfig) -> int:
    spec = _load_spec(cfg)
    trace = run(spec, SolverConfig(v=cfg.v_list[0], horizon=cfg.horizon))
    os.makedirs(cfg.out_dir, exist_ok=True)
    trace_path = os.path.join(cfg.out_dir, "trace.csv")
    # a step from the horizon on gives row 0 alone (past int64, arange would give objects)
    rows = np.arange(0, trace.horizon, min(cfg.log_every, trace.horizon))
    if rows[-1] != trace.horizon - 1:
        rows = np.append(rows, trace.horizon - 1)
    # rows=None writes from views of the trace instead of row copies
    f_xbar, g_xbar = write_trace_csv(trace, trace_path, rows=None if cfg.log_every == 1 else rows)
    fields = {
        "mode": "solve",
        "problem": cfg.problem_path,
        "V": trace.v,
        "horizon": trace.horizon,
        "trace_csv": trace_path,
        "rows_written": len(rows),
        "f_xbar_final": f_xbar[-1],
    }
    # the last written row is the final one, so the summary repeats its values
    fields.update((f"g_{j + 1}_xbar_final", gv) for j, gv in enumerate(g_xbar[-1]))
    _write_summary(os.path.join(cfg.out_dir, "summary.txt"), fields)
    return EXIT_OK


def _do_sweep(cfg: ExperimentConfig) -> int:
    spec = _load_spec(cfg)
    f_opt = solve_exact(spec).f_opt
    os.makedirs(cfg.out_dir, exist_ok=True)
    vs = np.array(cfg.v_list)
    epss = 0.01 * 100.0 / vs
    hits = []  # iterations to accuracy per V, plain and staggered; -1 when not reached
    for v, eps in zip(cfg.v_list, epss.tolist()):
        trace = run(spec, SolverConfig(v=v, horizon=cfg.horizon))
        hits.append([-1 if h is None else h
                     for h in analysis.iterations_to_accuracy(trace, f_opt, eps)])
    hits = np.array(hits)
    write_table(os.path.join(cfg.out_dir, "sweep.csv"),
                ["V", "eps", "iterations_plain", "iterations_staggered"], [vs, epss, hits])

    fields = {
        "mode": "sweep",
        "problem": cfg.problem_path,
        "horizon": cfg.horizon,
        "f_opt_oracle": f_opt,
        "eps_per_V": "0.01 * 100 / V",
    }
    for label, counts in (("plain", hits[:, 0]), ("staggered", hits[:, 1])):
        fields[f"slope_{label}"] = (analysis.fit_loglog_slope(vs, counts) if np.all(counts > 0)
                                    else "unavailable (accuracy not reached)")
    _write_summary(os.path.join(cfg.out_dir, "summary.txt"), fields)
    return EXIT_OK


def _estimate_bounds(spec: ProblemSpec, cfg: ExperimentConfig):
    """The multiplier estimate, the dual's local model at it, and the
    BoundSet of M, C and V with the model's two rates (None for a geometry
    without a positive rate, which then has no region)."""
    estimate = analysis.estimate_multiplier(spec)
    model = analysis.estimate_sharpness(spec, estimate)
    bounds = analysis.BoundSet(m=lipschitz_bound(spec), c=squared_norm_bound(spec),
                               v=cfg.v_list[0], l_poly=model.polyhedral, l_smooth=model.smooth)
    return estimate, model, bounds


def _do_diagnose(cfg: ExperimentConfig) -> int:
    spec = _load_spec(cfg)
    trace = run(spec, SolverConfig(v=cfg.v_list[0], horizon=cfg.horizon))
    estimate, model, bounds = _estimate_bounds(spec, cfg)
    drift = analysis.drift_certificate(trace, estimate.lam)

    os.makedirs(cfg.out_dir, exist_ok=True)
    fields = {
        "mode": "diagnose",
        "problem": cfg.problem_path,
        "V": bounds.v,
        "horizon": cfg.horizon,
        "lipschitz_M": bounds.m,
        "norm_bound_C": bounds.c,
        "estimate_method": cfg.method,
        "estimate_d": estimate.d_value,
        "estimate_residual": estimate.residual,
        "estimate_lambda": estimate.lam.tolist(),
        "multiplier_possibly_nonunique": estimate.possibly_nonunique,
        "multiplier_set_dim": len(model.directions),
        "drift_certificate_violations": len(drift.violations),
        "drift_certificate_max_slack": drift.max_slack,
    }
    for geometry in ("polyhedral", "smooth") if cfg.geometry == "both" else (cfg.geometry,):
        rate = getattr(model, geometry)
        if rate is None:
            # no positive rate: no region, no entry and no steady-state bound
            keys = ["decay_rate", "region_radius", "t_hit", "absorbed", "violations_after_hit",
                    "steady_objective_bound"] + ["steady_violation_bound"] * bool(spec.constraints)
            fields.update((f"{geometry}_{key}", "none") for key in keys)
            continue
        report = analysis.phase_detect(trace, estimate, bounds, geometry)
        fields.update({
            f"{geometry}_decay_rate": rate,
            f"{geometry}_region_radius": bounds.radius(geometry),
            f"{geometry}_t_hit": report.t_hit,
            f"{geometry}_absorbed": report.absorbed,
            f"{geometry}_violations_after_hit": report.violation_count,
        })
        start = report.t_hit if report.t_hit is not None else 0
        length = trace.horizon - start
        if length >= 1:
            obj_b, vio_b = analysis.convergence_bounds(
                trace, bounds, start, length, geometry, lambda_star=estimate)
            fields[f"{geometry}_steady_objective_bound"] = obj_b
            if len(vio_b):
                fields[f"{geometry}_steady_violation_bound"] = float(np.max(vio_b))
    # the general regime reads only M, C and V
    obj_b, vio_b = analysis.convergence_bounds(trace, bounds, 0, trace.horizon, "general")
    fields["general_objective_bound"] = obj_b
    if len(vio_b):
        fields["general_violation_bound"] = float(np.max(vio_b))
    _write_summary(os.path.join(cfg.out_dir, "summary.txt"), fields)

    dists = np.linalg.norm(trace.lambda_path[:-1] - estimate.lam, axis=1)
    steps = np.linalg.norm(np.diff(trace.lambda_path, axis=0), axis=1)
    write_table(os.path.join(cfg.out_dir, "certificates.csv"),
                ["t", "dist_to_estimate", "step_norm", "drift_slack"],
                [trace.ts, dists, steps, drift.slack])
    return EXIT_OK


def _do_reproduce(cfg: ExperimentConfig) -> int:
    figures = [cfg.figure] if cfg.figure else sorted(FIGURE_SETUPS)
    os.makedirs(cfg.out_dir, exist_ok=True)
    v = cfg.v_list[0]
    failed = []
    for fig in figures:
        objective, extra, geometry, fixed_start = FIGURE_SETUPS[fig]
        spec = reference_instance(objective, extra)
        trace = run(spec, SolverConfig(v=v, horizon=cfg.horizon))
        # the brute-force references, as independent cross-checks
        oracles = {"f_opt_oracle_grid": solve_reference(spec, _ORACLE_RESOLUTION).f_opt}
        if objective == "linear":
            oracles["f_opt_oracle_lp"] = solve_reference_lp(spec).f_opt
        estimate, model, bounds = _estimate_bounds(spec, cfg)
        f_opt = estimate.f_opt
        # without a rate there is no region, and the detected start is 0
        report = (None if getattr(model, geometry) is None
                  else analysis.phase_detect(trace, estimate, bounds, geometry))
        detected = 0 if report is None or report.t_hit is None else report.t_hit

        J = spec.constraint_count
        marks = np.append(trace.restart_times, cfg.horizon)

        # one column group per window: from 0 (the plain average, bit for bit
        # xbar's rows), the fixed and the detected start (nan before the start)
        header, columns = ["t"], [marks]
        for label, start in (("plain", 0), ("staggered_fixed", fixed_start),
                             ("staggered_detected", detected)):
            later = marks > start
            f, g = np.full(len(marks), np.nan), np.full((len(marks), J), np.nan)
            if later.any():
                avgs = staggered_average(trace, start, marks[later] - start)
                f[later], g[later] = spec.objective.values(avgs), spec.constraint_values(avgs)
            header += [f"f_{label}"] + [f"g_{j + 1}_{label}" for j in range(J)]
            columns += [f, g]
        fig_csv = os.path.join(cfg.out_dir, f"figure{fig}.csv")
        write_table(fig_csv, header, columns)

        # the last mark is the horizon: the last plain row holds the final average's f and g;
        # the max is that row's, since max_violation(xbar[-1]) may differ from it in its bits
        f_final, worst = float(columns[1][-1]), float(np.max(columns[2][-1], initial=-np.inf))
        ok = abs(f_final - f_opt) <= 0.02 and worst <= 0.02
        if not ok:
            failed.append(fig)

        fields = {
            "figure": fig,
            "objective": objective,
            "extra_constraint": extra,
            "geometry": geometry,
            "V": v,
            "horizon": cfg.horizon,
            "fixed_staggered_start": fixed_start,
            "detected_t_hit": "none" if report is None else report.t_hit,
            "absorbed": "none" if report is None else report.absorbed,
            "multiplier_possibly_nonunique": estimate.possibly_nonunique,
            "multiplier_set_dim": len(model.directions),
            "f_opt_exact": f_opt,
            **oracles,
            "f_xbar_final": f_final,
            "max_violation_final": worst,
            "csv": fig_csv,
            "check": "PASS" if ok else "FAIL",
        }
        _write_summary(os.path.join(cfg.out_dir, f"figure{fig}_summary.txt"), fields)
        print(f"figure {fig}: {'PASS' if ok else 'FAIL'} "
              f"(f_final={f_final:.4f}, f_opt={f_opt:.4f})")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _v_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok)


# Flag -> argparse settings.  No flag declares a default: a flag left out
# stays out of the namespace, and the ExperimentConfig default applies.
_FLAGS = {
    "--problem": dict(dest="problem_path", required=True, help="problem config JSON"),
    "--out": dict(dest="out_dir", required=True, help="output directory"),
    "--V": dict(dest="v_list", type=_v_list, help="V value (comma-separated list for sweep)"),
    "--horizon": dict(type=int),
    "--log-every": dict(type=int, help="write every k-th trace row"),
    "--method": dict(choices=["grid-dual-max"],
                     help="multiplier estimate (the one choice: the exact solve's multipliers)"),
    "--geometry": dict(choices=["polyhedral", "smooth", "both"]),
    "--figure": dict(type=int, choices=sorted(FIGURE_SETUPS)),
}

# mode -> (handler, help, the flags it reads)
_MODES = {
    "solve": (_do_solve, "one run, trace CSV + summary",
              ("--problem", "--out", "--V", "--horizon", "--log-every")),
    "sweep": (_do_sweep, "iterations-to-accuracy over a V list",
              ("--problem", "--out", "--V", "--horizon")),
    "diagnose": (_do_diagnose, "multiplier estimate and certificates",
                 ("--problem", "--out", "--V", "--horizon", "--method", "--geometry")),
    "reproduce": (_do_reproduce, "bundled demo instances, per-figure CSVs",
                  ("--out", "--V", "--horizon", "--figure")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tavopt",
        description="Time-average optimization solver and diagnostics")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, help_text, flags) in _MODES.items():
        p = sub.add_parser(mode, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def run_cli(argv) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        cfg = ExperimentConfig(**vars(args))
        return _MODES[cfg.mode][0](cfg)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, MemoryError, analysis.EstimationError,
            InfeasibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
