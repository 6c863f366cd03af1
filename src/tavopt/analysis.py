"""Diagnostics built on the dual function: multiplier estimation, drift
certificates, transient/steady-state phase detection, and evaluation of the
convergence bounds that the averaged iterates are expected to satisfy.

The true maximizer of the dual function is never assumed known.  Every
diagnostic runs against an estimate with an explicit residual, and region
radii get twice the residual added as estimation slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import RunTrace, SolverConfig, run, x_update, y_update
from .problem import ProblemSpec, evaluate_constraints, squared_norm_bound

__all__ = [
    "BoundSet",
    "MultiplierEstimate",
    "PhaseReport",
    "DriftReport",
    "EstimationError",
    "dual_function",
    "dual_subgradient",
    "dual_function_batch",
    "estimate_multiplier",
    "estimate_sharpness",
    "minimal_decay_rate",
    "drift_certificate",
    "phase_detect",
    "convergence_bounds",
    "optimality_error",
    "error_series",
    "iterations_to_accuracy",
    "fit_loglog_slope",
    "sample_multipliers",
    "NONUNIQUE_DECAY_TOL",
]

# Refined minimal directional decay below this rate marks a flat optimal
# face, i.e. a possibly non-unique multiplier.
NONUNIQUE_DECAY_TOL = 5e-4

# Multiplier estimation: largest accepted probe residual, the grid ascent's
# final spacing, the share of a tail-average run that is averaged, and the
# number of random residual probes.
_RESIDUAL_THRESHOLD = 1e-2
_RESOLUTION_TARGET = 1e-4
_TAIL_FRACTION = 0.2
_PROBE_COUNT = 256

# Sharpness estimation: probe distance from the estimate and ray count.
_SHARPNESS_DISTANCE = 0.1
_SHARPNESS_PROBES = 256


class EstimationError(RuntimeError):
    """Multiplier estimation did not converge to the requested quality."""


# ---------------------------------------------------------------------------
# Dual function
# ---------------------------------------------------------------------------

def dual_function(spec: ProblemSpec, w, z):
    """Dual value at (w, z) together with its primal minimizers.

    Returns (value, x_star, y_star) where value = f(y*) + w . g(y*)
    + z . (x* - y*).
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("w components must be nonnegative")
    x_star = x_update(spec, z)
    y_star = y_update(spec, w, z)
    g = evaluate_constraints(spec, y_star)
    value = (spec.objective.value(y_star) + float(w @ g)
             + float(z @ (x_star - y_star)))
    return value, x_star, y_star


def dual_subgradient(spec: ProblemSpec, w, z) -> np.ndarray:
    """Concatenated subgradient (g(y*), x* - y*) of the dual at (w, z)."""
    _, x_star, y_star = dual_function(spec, w, z)
    g = evaluate_constraints(spec, y_star)
    return np.concatenate([g, x_star - y_star])


def dual_function_batch(spec: ProblemSpec, lam: np.ndarray):
    """Dual values and minimizers for a whole (n, J+I) batch of multipliers."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    J = spec.constraint_count
    I = spec.dimension
    if lam.shape[1] != J + I:
        raise ValueError(f"multipliers have width {lam.shape[1]}, expected {J + I}")
    W = lam[:, :J]
    Z = lam[:, J:]
    if W.size and np.min(W) < 0.0:
        raise ValueError("w components must be nonnegative")

    X = spec.decision_set.linear_argmin(Z)
    A, b = spec.constraint_matrix()
    C = W @ A - Z
    Y = np.empty_like(Z)
    for i, (piece, lo, hi) in enumerate(zip(spec.objective.pieces, spec.box.lower,
                                            spec.box.upper)):
        Y[:, i] = piece.argmin_shifted_batch(C[:, i], float(lo), float(hi))
    G = Y @ A.T + b
    D = spec.objective.values(Y) + np.sum(W * G, axis=1) + np.sum(Z * (X - Y), axis=1)
    return D, X, Y


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSet:
    """Structural constants plus the convergence-region geometry they imply.

    b_poly/radius_poly need the polyhedral decay rate l_poly; b_smooth and
    radius_smooth need the quadratic decay rate l_smooth.
    """

    m: float
    c: float
    v: float
    l_poly: Optional[float] = None
    l_smooth: Optional[float] = None
    b_poly: Optional[float] = None
    b_smooth: Optional[float] = None
    radius_poly: Optional[float] = None
    radius_smooth: Optional[float] = None

    def __post_init__(self):
        if self.c <= 0.0 or self.v < 1.0 or self.m < 0.0:
            raise ValueError("need c > 0, v >= 1, m >= 0")
        step = self.step_bound
        if self.l_poly is not None:
            if self.l_poly <= 0.0:
                raise ValueError("l_poly must be positive")
            bp = max(self.l_poly / (2.0 * self.v), 2.0 * self.c / (self.v * self.l_poly))
            object.__setattr__(self, "b_poly", bp)
            object.__setattr__(self, "radius_poly", bp + step)
        if self.l_smooth is not None:
            if self.l_smooth <= 0.0:
                raise ValueError("l_smooth must be positive")
            v, ls, c = self.v, self.l_smooth, self.c
            bs = max(v ** -1.5,
                     (math.sqrt(v) + math.sqrt(v + 4.0 * ls * c * v)) / (2.0 * ls * v))
            object.__setattr__(self, "b_smooth", bs)
            object.__setattr__(self, "radius_smooth", bs + step)

    @property
    def step_bound(self) -> float:
        """Per-iteration bound sqrt(2C)/V on the dual movement."""
        return math.sqrt(2.0 * self.c) / self.v


# ---------------------------------------------------------------------------
# Multiplier estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierEstimate:
    """An estimated dual maximizer with a probe-based quality residual."""

    lam: np.ndarray
    j_dim: int
    method: str
    residual: float
    d_value: float
    possibly_nonunique: bool = False

    @property
    def w_part(self) -> np.ndarray:
        return self.lam[:self.j_dim]

    @property
    def z_part(self) -> np.ndarray:
        return self.lam[self.j_dim:]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.lam))


def _project_dual(lam: np.ndarray, j_dim: int) -> np.ndarray:
    out = np.array(lam, dtype=float)
    out[..., :j_dim] = np.maximum(0.0, out[..., :j_dim])
    return out


def default_search_region(spec: ProblemSpec) -> float:
    """Heuristic max-norm bound for the dual search."""
    bound = spec.objective.max_abs_value(spec.box.lower, spec.box.upper)
    return 10.0 * (squared_norm_bound(spec) + bound)


def _axis_grid(center, half, points, j_dim):
    axes = []
    for k in range(len(center)):
        lo = center[k] - half[k]
        hi = center[k] + half[k]
        if k < j_dim:
            lo = max(0.0, lo)
            hi = max(hi, lo)
        axes.append(np.linspace(lo, hi, points))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def _grid_dual_max(spec: ProblemSpec, region: float, center_shift: float = 0.0):
    J = spec.constraint_count
    I = spec.dimension
    dims = J + I
    points_per_dim = 9 if dims <= 4 else (7 if dims == 5 else 5)
    center = np.concatenate([np.full(J, region / 2.0), np.zeros(I)])
    center += center_shift * region * np.cos(np.arange(1, dims + 1))
    center[:J] = np.maximum(0.0, center[:J])
    half = np.concatenate([np.full(J, region / 2.0), np.full(I, region)])

    best_lam = None
    best_d = -np.inf
    for _ in range(80):
        lam_grid = _axis_grid(center, half, points_per_dim, J)
        D, _, _ = dual_function_batch(spec, lam_grid)
        k = int(np.argmax(D))
        if D[k] > best_d:
            best_d = float(D[k])
            best_lam = lam_grid[k].copy()
        spacing = 2.0 * half / (points_per_dim - 1)
        center = best_lam.copy()
        half = 1.5 * spacing
        if np.max(spacing) <= _RESOLUTION_TARGET:
            break
    return best_lam, best_d


def _residual_probes(spec: ProblemSpec, lam_hat, region: float, count: int,
                     seed: int, extra=None) -> float:
    rng = np.random.default_rng(seed)
    J = spec.constraint_count
    dims = lam_hat.shape[0]
    blocks = [lam_hat[None, :]]
    n_uni = count // 2
    uni = rng.uniform(-region, region, size=(n_uni, dims))
    blocks.append(uni)
    for scale in (1e-3, 1e-2, 1e-1, 1.0):
        loc = lam_hat + scale * rng.standard_normal(((count - n_uni) // 4 + 1, dims))
        blocks.append(loc)
    if extra is not None and len(extra):
        blocks.append(np.atleast_2d(extra))
    probes = _project_dual(np.vstack(blocks), J)
    D, _, _ = dual_function_batch(spec, probes)
    d_hat, _, _ = dual_function(spec, lam_hat[:J], lam_hat[J:])
    return max(0.0, float(np.max(D)) - d_hat), d_hat


def _flat_direction_candidates(spec: ProblemSpec, lam_hat: np.ndarray,
                               j_dim: int, seed: int) -> np.ndarray:
    """Directions orthogonal to sampled dual subgradients near lam_hat.

    Along a flat optimal face the dual is constant, so every active
    subgradient is orthogonal to the face; the small singular directions of a
    stack of sampled subgradients are therefore face candidates.
    """
    dims = lam_hat.shape[0]
    rng = np.random.default_rng(seed)
    pert = _project_dual(lam_hat + 1e-5 * rng.standard_normal((64, dims)), j_dim)
    _, X, Y = dual_function_batch(spec, pert)
    A, b = spec.constraint_matrix()
    H = np.hstack([Y @ A.T + b, X - Y])
    _, sv, vt = np.linalg.svd(H)
    take = [vt[-1]]
    if dims >= 2:
        take.append(vt[-2])
    for k, s in enumerate(sv):
        if s <= 1e-8 * max(sv[0], 1.0):
            take.append(vt[k])
    cand = np.vstack(take)
    return np.vstack([cand, -cand])


def minimal_decay_rate(spec: ProblemSpec, lam_hat: np.ndarray, j_dim: int,
                       distance: float = 0.1, n_probes: int = 2048,
                       seed: int = 0, extra_directions=None) -> float:
    """Smallest probed decrease of the dual per unit distance from lam_hat.

    Random ray probes at the given distance, augmented with subgradient
    null-space candidates and refined by a multi-start coordinate pattern
    search over the direction; this is what exposes the flat face of a
    non-unique maximizer.  May return a small negative value when lam_hat is
    itself suboptimal.
    """
    dims = lam_hat.shape[0]
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_probes, dims))
    dirs = np.vstack([dirs, np.eye(dims), -np.eye(dims)])
    dirs = np.vstack([dirs, _flat_direction_candidates(spec, lam_hat, j_dim, seed)])
    if extra_directions is not None and len(extra_directions):
        dirs = np.vstack([dirs, np.atleast_2d(extra_directions)])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    d_hat, _, _ = dual_function(spec, lam_hat[:j_dim], lam_hat[j_dim:])

    def decay_of(directions):
        probes = _project_dual(lam_hat[None, :] + distance * directions, j_dim)
        deltas = probes - lam_hat[None, :]
        dist = np.linalg.norm(deltas, axis=1)
        ok = dist >= 0.25 * distance
        out = np.full(len(directions), np.inf)
        if np.any(ok):
            D, _, _ = dual_function_batch(spec, probes[ok])
            out[ok] = (d_hat - D) / dist[ok]
        return out

    decays = decay_of(dirs)
    order = np.argsort(decays)
    best = float(decays[order[0]])
    for start in order[:4]:
        u0 = dirs[start]
        val = float(decays[start])
        step = 0.5
        sweeps = 0
        while step > 1e-4 and sweeps < 80:
            sweeps += 1
            proposals = []
            for axis in range(dims):
                for sgn in (1.0, -1.0):
                    u = u0.copy()
                    u[axis] += sgn * step
                    nrm = np.linalg.norm(u)
                    if nrm > 0:
                        proposals.append(u / nrm)
            cand = np.array(proposals)
            vals = decay_of(cand)
            k = int(np.argmin(vals))
            if vals[k] < val - 1e-12:
                val = float(vals[k])
                u0 = cand[k]
            else:
                step *= 0.5
        best = min(best, val)
    return best


def estimate_sharpness(spec: ProblemSpec, estimate: "MultiplierEstimate",
                       geometry: str, seed: int = 0) -> float:
    """Decay-rate estimate feeding the region geometry.

    Polyhedral geometry uses (d(lam_hat) - d(probe)) / distance, smooth uses
    the squared distance.  The result is floored at a tiny positive value so
    the region formulas stay defined.
    """
    rate = minimal_decay_rate(spec, estimate.lam, estimate.j_dim,
                              distance=_SHARPNESS_DISTANCE, n_probes=_SHARPNESS_PROBES,
                              seed=seed)
    if geometry == "polyhedral":
        return max(rate, 1e-9)
    if geometry == "smooth":
        return max(rate / _SHARPNESS_DISTANCE, 1e-9)
    raise ValueError(f"unknown geometry {geometry!r}")


def estimate_multiplier(spec: ProblemSpec, method: str = "grid-dual-max", *,
                        v: float = 100.0,
                        lambda_star=None,
                        seed: int = 0,
                        tail_horizon: int = 1_000_000) -> MultiplierEstimate:
    """Estimate the dual maximizer.

    analytic takes a user-supplied multiplier; tail-average runs the engine
    with a 10x larger V and averages the dual trajectory over its final
    stretch; grid-dual-max runs a coarse-to-fine grid ascent of the dual over
    a bounded region.  The residual reports the largest probed dual value
    above the estimate (clipped at zero) and must stay below 1e-2.
    """
    J = spec.constraint_count
    I = spec.dimension
    reg = default_search_region(spec)
    extra_probes = None

    if method == "analytic":
        if lambda_star is None:
            raise ValueError("analytic method needs lambda_star")
        lam_hat = _project_dual(np.asarray(lambda_star, dtype=float), J)
        if lam_hat.shape != (J + I,):
            raise ValueError(f"lambda_star must have shape ({J + I},)")
    elif method == "tail-average":
        cfg = SolverConfig(v=10.0 * v, horizon=tail_horizon, restart_base=None)
        trace = run(spec, cfg)
        rows = trace.lambda_rows()
        start = int((1.0 - _TAIL_FRACTION) * len(rows))
        lam_hat = _project_dual(rows[start:].mean(axis=0), J)
        stride = max(1, (len(rows) - start) // 512)
        extra_probes = rows[start::stride]
    elif method == "grid-dual-max":
        lam_hat, _ = _grid_dual_max(spec, reg)
    else:
        raise ValueError(f"unknown estimation method {method!r}")

    residual, d_value = _residual_probes(spec, lam_hat, reg, _PROBE_COUNT, seed,
                                         extra=extra_probes)
    if residual > _RESIDUAL_THRESHOLD:
        raise EstimationError(
            f"{method} estimate has residual {residual:.3g} above threshold "
            f"{_RESIDUAL_THRESHOLD:.3g}")

    # A flat optimal face means the maximizer is not unique.  Candidate flat
    # directions come from the decay probes themselves and, for the grid
    # method, from the offset to a restarted search (which lands elsewhere on
    # a flat face); each candidate is verified by its probed decay rate.
    # Faces shorter than the probe distances can go undetected.
    extra_dirs = []
    if method == "grid-dual-max":
        alt, _ = _grid_dual_max(spec, reg, center_shift=0.31)
        gap = float(np.linalg.norm(alt - lam_hat))
        if gap > 10.0 * _RESOLUTION_TARGET:
            extra_dirs.append((alt - lam_hat) / gap)
    decay = min(minimal_decay_rate(spec, lam_hat, J, distance=rho, seed=seed,
                                   n_probes=512, extra_directions=extra_dirs)
                for rho in (0.1, 0.05))
    nonunique = bool(decay < NONUNIQUE_DECAY_TOL)

    lam_hat = lam_hat.copy()
    lam_hat.setflags(write=False)
    return MultiplierEstimate(lam=lam_hat, j_dim=J, method=method,
                              residual=residual, d_value=d_value,
                              possibly_nonunique=nonunique)


# ---------------------------------------------------------------------------
# Trace diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftReport:
    """Per-step check of the squared-distance drift inequality."""

    slack: np.ndarray  # lhs - rhs per step; nonpositive (up to tolerance) when it holds
    violations: np.ndarray  # iteration indices where slack exceeds the tolerance
    max_slack: float
    tolerance: float
    d_reference: float

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def drift_certificate(trace: RunTrace, lambda_star, v: float, c: float) -> DriftReport:
    """Verify, for every step, that the squared distance to lambda_star grows
    by at most (2/V)(d(lambda(t)) - d(lambda_star)) + 2C/V^2.

    The inequality relies only on concavity of the dual, so lambda_star may
    be any fixed multiplier, not necessarily optimal.  Violations are
    reported, not raised.
    """
    if not trace.full:
        raise ValueError("drift certificate needs a complete trace (record_every == 1)")
    lam_star = np.asarray(lambda_star, dtype=float)
    J = trace.spec.constraint_count
    d_star, _, _ = dual_function(trace.spec, lam_star[:J], lam_star[J:])
    lam_all = np.vstack([trace.lambda_rows(), trace.lambda_final])
    diff = lam_all - lam_star
    dist2 = np.sum(diff * diff, axis=1)
    rhs = dist2[:-1] + (2.0 / v) * (trace.d - d_star) + 2.0 * c / v ** 2
    slack = dist2[1:] - rhs
    tol = 1e-9 * max(1.0, float(np.max(dist2)))
    violations = trace.ts[slack > tol]
    return DriftReport(slack=slack, violations=violations,
                       max_slack=float(np.max(slack)), tolerance=tol,
                       d_reference=d_star)


@dataclass(frozen=True)
class PhaseReport:
    """First entry into the convergence region and whether it is absorbing."""

    geometry: str
    radius: float
    slack: float
    t_hit: Optional[int]
    absorbed: bool
    max_distance: float
    violation_count: int


def phase_detect(trace: RunTrace, estimate: MultiplierEstimate,
                 bounds: BoundSet, geometry: str) -> PhaseReport:
    """Find the first logged iteration whose dual variables are within the
    region radius (plus twice the estimation residual) of the estimated
    maximizer, and check that membership persists afterwards.
    """
    if geometry == "polyhedral":
        radius = bounds.radius_poly
    elif geometry == "smooth":
        radius = bounds.radius_smooth
    else:
        raise ValueError(f"unknown geometry {geometry!r}")
    if radius is None:
        raise ValueError(f"bounds carry no radius for {geometry} geometry")
    slack = 2.0 * estimate.residual
    lam_all = np.vstack([trace.lambda_rows(), trace.lambda_final])
    ts_all = np.append(trace.ts, trace.horizon)
    dists = np.linalg.norm(lam_all - estimate.lam, axis=1)
    inside = dists <= radius + slack
    max_dist = float(np.max(dists))
    if not np.any(inside):
        return PhaseReport(geometry=geometry, radius=radius, slack=slack,
                           t_hit=None, absorbed=False, max_distance=max_dist,
                           violation_count=0)
    k0 = int(np.argmax(inside))
    outside_after = int(np.sum(~inside[k0:]))
    return PhaseReport(geometry=geometry, radius=radius, slack=slack,
                       t_hit=int(ts_all[k0]), absorbed=outside_after == 0,
                       max_distance=max_dist, violation_count=outside_after)


def _dual_at(trace: RunTrace, t: int):
    if t == trace.horizon:
        return trace.w_final, trace.z_final
    k = int(np.searchsorted(trace.ts, t))
    if k >= len(trace.ts) or trace.ts[k] != t:
        raise ValueError(f"iteration {t} is not logged in the trace")
    return trace.w[k], trace.z[k]


def convergence_bounds(trace: RunTrace, bounds: BoundSet, start: int, length: int,
                       regime: str, lambda_star: Optional[MultiplierEstimate] = None):
    """Right-hand sides bounding the averaged objective gap and violations.

    regime "general" evaluates the telescoping bound for the window
    [start, start + length) from the recorded dual variables.  regimes
    "polyhedral" and "smooth" evaluate the steady-state bounds, which assume
    the window starts after the corresponding region has been entered and
    need the multiplier estimate.  Returns (objective_gap_bound,
    violation_bounds) with one violation bound per constraint.
    """
    if length < 1 or start < 0 or start + length > trace.horizon:
        raise ValueError(f"window [{start}, {start + length}) out of range")
    J = trace.spec.constraint_count
    v, m, c = bounds.v, bounds.m, bounds.c
    if regime == "general":
        w0, z0 = _dual_at(trace, start)
        w1, z1 = _dual_at(trace, start + length)
        lam0 = float(np.sum(w0 ** 2) + np.sum(z0 ** 2))
        lam1 = float(np.sum(w1 ** 2) + np.sum(z1 ** 2))
        dz = float(np.linalg.norm(z1 - z0))
        obj = v / (2.0 * length) * (lam0 - lam1) + c / v + v * m / length * dz
        vio = v / length * np.abs(w1 - w0) + v * m / length * dz
        return obj, vio
    if regime == "polyhedral":
        radius = bounds.radius_poly
    elif regime == "smooth":
        radius = bounds.radius_smooth
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if radius is None:
        raise ValueError(f"bounds carry no radius for the {regime} regime")
    if lambda_star is None:
        raise ValueError(f"the {regime} regime needs a multiplier estimate")
    lam_norm = lambda_star.norm
    obj = (c / v + 2.0 * v * m / length * radius
           + v / (2.0 * length) * (radius ** 2 + 4.0 * lam_norm * radius))
    vio = np.full(J, 2.0 * v * (1.0 + m) / length * radius)
    return obj, vio


# ---------------------------------------------------------------------------
# Accuracy measurement
# ---------------------------------------------------------------------------

def optimality_error(spec: ProblemSpec, point, f_opt: float) -> float:
    """Max of objective gap and constraint violations at a point (0 if optimal)."""
    point = np.asarray(point, dtype=float)
    A, b = spec.constraint_matrix()
    err = spec.objective.value(point) - f_opt
    if A.shape[0] > 0:
        err = max(err, float(np.max(A @ point + b)))
    return max(err, 0.0)


def error_series(trace: RunTrace, f_opt: float):
    """Optimality error of the plain and staggered averages at each logged row."""
    A, b = trace.spec.constraint_matrix()

    def errs(avg):
        e = trace.spec.objective.values(avg) - f_opt
        if A.shape[0] > 0:
            e = np.maximum(e, np.max(avg @ A.T + b, axis=1))
        return np.maximum(e, 0.0)

    return errs(trace.xbar), errs(trace.xbar_frame)


def iterations_to_accuracy(trace: RunTrace, f_opt: float, eps: float):
    """First iteration counts at which the plain / staggered average is
    eps-optimal, or None if never within the horizon."""
    plain, stag = error_series(trace, f_opt)

    def first_hit(errors):
        hit = np.nonzero(errors <= eps)[0]
        return int(trace.ts[hit[0]]) + 1 if len(hit) else None

    return first_hit(plain), first_hit(stag)


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs); ys floored at 1."""
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum(np.asarray(ys, dtype=float), 1.0)
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def sample_multipliers(spec: ProblemSpec, scale: float, count: int,
                       seed: int = 0) -> np.ndarray:
    """Seeded random multipliers in the dual domain (w parts nonnegative)."""
    rng = np.random.default_rng(seed)
    J = spec.constraint_count
    lam = scale * rng.standard_normal((count, J + spec.dimension))
    return _project_dual(lam, J)
