"""Diagnostics built on the dual function: multiplier estimation, drift
certificates, transient/steady-state phase detection, and evaluation of the
convergence bounds that the averaged iterates are expected to satisfy.

Every diagnostic runs against a multiplier estimate, the multipliers of the
exact solve of tavopt.oracle, with an explicit residual f_opt - d(estimate)
between the solver's optimum and the engine's dual; region radii get twice
the residual added as estimation slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import RunTrace, _check_v, _dual_columns
from .oracle import solve_exact
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
]

# Largest accepted multiplier-estimate residual.
_RESIDUAL_THRESHOLD = 1e-2

# The sharpness search feeding the region geometry: its probe distance and
# the number of its random rays, which default_rng(0) draws.
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
    + z . (x* - y*), summed in run()'s order: row 0 of a one-row
    dual_function_batch.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if w.shape != (spec.constraint_count,) or z.shape != (spec.dimension,):
        raise ValueError(f"(w, z) have shapes {w.shape}, {z.shape}, expected "
                         f"({spec.constraint_count},), ({spec.dimension},)")
    d, x, y = dual_function_batch(spec, np.concatenate([w, z])[None, :])
    return float(d[0]), x[0], y[0]


def dual_subgradient(spec: ProblemSpec, w, z) -> np.ndarray:
    """Concatenated subgradient (g(y*), x* - y*) of the dual at (w, z)."""
    _, x_star, y_star = dual_function(spec, w, z)
    g = evaluate_constraints(spec, y_star)
    return np.concatenate([g, x_star - y_star])


def dual_function_batch(spec: ProblemSpec, lam: np.ndarray):
    """Dual values and minimizers for a whole (n, J+I) batch of multipliers.

    Each row's value equals dual_function's, and run()'s d at the same
    multiplier, bit for bit.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    J = spec.constraint_count
    I = spec.dimension
    if lam.shape[1] != J + I:
        raise ValueError(f"multipliers have width {lam.shape[1]}, expected {J + I}")
    if J and lam.size and np.min(lam[:, :J]) < 0.0:
        raise ValueError("w components must be nonnegative")
    d, x, y = _dual_columns(spec, lam.T[:J], lam.T[J:])
    # x is linear_argmin's rows, transposed twice; y is a list of columns
    return d, np.transpose(x), np.stack(y, axis=-1)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSet:
    """Structural constants plus the convergence-region geometry they imply.

    b_poly and radius("polyhedral") need the polyhedral decay rate l_poly;
    b_smooth and radius("smooth") need the quadratic decay rate l_smooth.
    Without its rate a b is None and its radius raises ValueError.
    """

    m: float
    c: float
    v: float
    l_poly: Optional[float] = None
    l_smooth: Optional[float] = None

    def __post_init__(self):
        _check_v(self.v)
        if self.c <= 0.0 or self.m < 0.0:
            raise ValueError("need c > 0, m >= 0")
        if self.l_poly is not None and self.l_poly <= 0.0:
            raise ValueError("l_poly must be positive")
        if self.l_smooth is not None and self.l_smooth <= 0.0:
            raise ValueError("l_smooth must be positive")

    @property
    def b_poly(self) -> Optional[float]:
        if self.l_poly is None:
            return None
        return max(self.l_poly / (2.0 * self.v), 2.0 * self.c / (self.v * self.l_poly))

    @property
    def b_smooth(self) -> Optional[float]:
        if self.l_smooth is None:
            return None
        v, ls, c = self.v, self.l_smooth, self.c
        return max(v ** -1.5, (math.sqrt(v) + math.sqrt(v + 4.0 * ls * c * v)) / (2.0 * ls * v))

    def radius(self, geometry: str) -> float:
        """Region radius b + step_bound for "polyhedral" or "smooth" geometry."""
        bs = {"polyhedral": self.b_poly, "smooth": self.b_smooth}
        if geometry not in bs:
            raise ValueError(f"unknown geometry {geometry!r}")
        if bs[geometry] is None:
            raise ValueError(f"bounds carry no radius for {geometry} geometry")
        return bs[geometry] + self.step_bound

    @property
    def step_bound(self) -> float:
        """Per-iteration bound sqrt(2C)/V on the dual movement."""
        return math.sqrt(2.0 * self.c) / self.v


# ---------------------------------------------------------------------------
# Multiplier estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierEstimate:
    """The exact dual maximizer with its residual f_opt - d(lam), the
    smallest decay rate of the dual at distance 0.1 from it, and whether
    the dual may have other maximizers."""

    lam: np.ndarray
    j_dim: int
    residual: float
    d_value: float
    f_opt: float
    sharpness_decay: float
    possibly_nonunique: bool = False

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.lam))


def _project_dual(lam: np.ndarray, j_dim: int) -> np.ndarray:
    out = np.array(lam, dtype=float)
    out[..., :j_dim] = np.maximum(0.0, out[..., :j_dim])
    return out


def _flat_direction_candidates(spec: ProblemSpec, lam_hat: np.ndarray,
                               rays: np.ndarray) -> np.ndarray:
    """Directions orthogonal to dual subgradients sampled 1e-5 from lam_hat
    along the first 64 rays.

    Along a flat optimal face the dual is constant, so every active
    subgradient is orthogonal to the face; the small singular directions of a
    stack of sampled subgradients are therefore face candidates, and the
    directions along which the dual decays slowest.
    """
    pert = _project_dual(lam_hat + 1e-5 * rays[:64], spec.constraint_count)
    _, X, Y = dual_function_batch(spec, pert)
    H = np.hstack([spec.constraint_values(Y), X - Y])
    _, sv, vt = np.linalg.svd(H)
    # the last two right singular vectors, last first, then every small one
    cand = np.vstack([vt[:-3:-1], vt[:len(sv)][sv <= 1e-8 * max(sv[0], 1.0)]])
    return np.vstack([cand, -cand])


def minimal_decay_rate(spec: ProblemSpec, lam_hat: np.ndarray) -> float:
    """Smallest probed decrease of the dual per unit distance from lam_hat,
    at probe distance _SHARPNESS_DISTANCE.

    The search probes _SHARPNESS_PROBES rays drawn from default_rng(0), the
    axes both ways and the flat directions of _flat_direction_candidates,
    then refines the four directions of smallest decay by coordinate pattern
    search.  The four searches run side by side, one batch of proposals per
    sweep; a row's dual value does not depend on its batch, so each start
    moves as it would alone.  A rate may be slightly negative when lam_hat
    is suboptimal.
    """
    dims, J = lam_hat.shape[0], spec.constraint_count
    d_hat, _, _ = dual_function(spec, lam_hat[:J], lam_hat[J:])

    def decay_of(directions):
        probes = _project_dual(lam_hat[None, :] + _SHARPNESS_DISTANCE * directions, J)
        deltas = probes - lam_hat[None, :]
        dist = np.linalg.norm(deltas, axis=1)
        ok = dist >= 0.25 * _SHARPNESS_DISTANCE
        out = np.full(len(directions), np.inf)
        if np.any(ok):
            D, _, _ = dual_function_batch(spec, probes[ok])
            out[ok] = (d_hat - D) / dist[ok]
        return out

    rays = np.random.default_rng(0).standard_normal((_SHARPNESS_PROBES, dims))
    dirs = np.vstack([rays, np.eye(dims), -np.eye(dims),
                      _flat_direction_candidates(spec, lam_hat, rays)])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    decays = decay_of(dirs)
    # four pattern searches, from the directions of smallest decay
    first = np.argsort(decays)[:4]
    u, val = dirs[first], decays[first]
    step = np.full(len(val), 0.5)
    axes = np.arange(dims)
    for _ in range(80):
        active = np.flatnonzero(step > 1e-4)
        if not len(active):
            break
        # proposal 2*axis (2*axis + 1) moves u by +step (-step) along axis;
        # u is a unit vector and step <= 0.5, so no proposal is zero
        props = np.repeat(u[active, None, :], 2 * dims, axis=1)
        props[:, 2 * axes, axes] += step[active, None]
        props[:, 2 * axes + 1, axes] -= step[active, None]
        props = props.reshape(-1, dims)
        # vecdot runs, per row, the ddot that np.linalg.norm(u) takes, so
        # each norm keeps its bits
        props /= np.sqrt(np.vecdot(props, props))[:, None]
        vals = decay_of(props).reshape(len(active), -1)
        rows = np.arange(len(active))
        k = np.argmin(vals, axis=1)
        best = vals[rows, k]
        # a NaN decay compares false, so its start halves its step
        better = best < val[active] - 1e-12
        u[active[better]] = props[(2 * dims * rows + k)[better]]
        val[active[better]] = best[better]
        step[active[~better]] *= 0.5
    # Python's min over the starts in order, so a NaN wins only as the first value
    return min(val.tolist())


def estimate_sharpness(estimate: MultiplierEstimate) -> dict:
    """Decay-rate estimates feeding the region geometry, keyed by geometry.

    Both come from the estimate's sharpness search at distance 0.1:
    "polyhedral" is (d(lam_hat) - d(probe)) / distance, "smooth" divides by
    the squared distance.  Each rate is floored at a tiny positive value so
    the region formulas stay defined.
    """
    rate = estimate.sharpness_decay
    return {"polyhedral": max(rate, 1e-9), "smooth": max(rate / _SHARPNESS_DISTANCE, 1e-9)}


def estimate_multiplier(spec: ProblemSpec) -> MultiplierEstimate:
    """The dual maximizer: the multipliers of oracle.solve_exact.

    The residual is f_opt - d(estimate), clipped at zero; it must stay below
    1e-2, and d(estimate) may exceed f_opt by no more than
    1e-9 * max(1, |f_opt|), where the solver's f(y*) and the engine's dual
    meet.  possibly_nonunique is the exact solve's rank test, negated.
    """
    J = spec.constraint_count
    exact = solve_exact(spec)
    lam_hat = exact.lam
    lam_hat.setflags(write=False)
    d_value, _, _ = dual_function(spec, lam_hat[:J], lam_hat[J:])
    if d_value > exact.f_opt + 1e-9 * max(1.0, abs(exact.f_opt)):
        raise EstimationError(f"weak duality fails: d = {d_value!r} at the estimate "
                              f"exceeds the exact optimum {exact.f_opt!r}")
    residual = max(0.0, exact.f_opt - d_value)
    if residual > _RESIDUAL_THRESHOLD:
        raise EstimationError(f"estimate has residual {residual:.3g} above threshold "
                              f"{_RESIDUAL_THRESHOLD:.3g}")
    sharpness = minimal_decay_rate(spec, lam_hat)
    return MultiplierEstimate(lam=lam_hat, j_dim=J, residual=residual, d_value=d_value,
                              f_opt=exact.f_opt, sharpness_decay=sharpness,
                              possibly_nonunique=not exact.unique)


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

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def drift_certificate(trace: RunTrace, lambda_star) -> DriftReport:
    """Verify, for every step, that the squared distance to lambda_star grows
    by at most (2/V)(d(lambda(t)) - d(lambda_star)) + 2C/V^2.

    V is the run's own, trace.v, and C is squared_norm_bound of its spec.
    The inequality relies only on concavity of the dual, so lambda_star may
    be any fixed multiplier, not necessarily optimal.  Violations are
    reported, not raised.
    """
    lam_star = np.asarray(lambda_star, dtype=float)
    J, v, c = trace.spec.constraint_count, trace.v, squared_norm_bound(trace.spec)
    d_star, _, _ = dual_function(trace.spec, lam_star[:J], lam_star[J:])
    diff = trace.lambda_path - lam_star
    dist2 = np.sum(diff * diff, axis=1)
    rhs = dist2[:-1] + (2.0 / v) * (trace.d - d_star) + 2.0 * c / (v * v)
    slack = dist2[1:] - rhs
    tol = 1e-9 * max(1.0, float(np.max(dist2)))
    violations = np.flatnonzero(slack > tol)
    return DriftReport(slack=slack, violations=violations,
                       max_slack=float(np.max(slack)), tolerance=tol)


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


def _check_bounds_v(trace: RunTrace, bounds: BoundSet) -> None:
    if bounds.v != trace.v:
        raise ValueError(f"bounds are for V = {bounds.v!r}, the run has V = {trace.v!r}")


def phase_detect(trace: RunTrace, estimate: MultiplierEstimate,
                 bounds: BoundSet, geometry: str) -> PhaseReport:
    """Find the first iteration t = 0..horizon whose dual variables are within
    the region radius (plus twice the estimation residual) of the estimated
    maximizer, and check that membership persists afterwards.
    """
    _check_bounds_v(trace, bounds)
    radius = bounds.radius(geometry)
    slack = 2.0 * estimate.residual
    dists = np.linalg.norm(trace.lambda_path - estimate.lam, axis=1)
    inside = dists <= radius + slack
    t_hit = int(np.argmax(inside)) if np.any(inside) else None
    outside_after = 0 if t_hit is None else int(np.sum(~inside[t_hit:]))
    return PhaseReport(geometry=geometry, radius=radius, slack=slack, t_hit=t_hit,
                       absorbed=t_hit is not None and outside_after == 0,
                       max_distance=float(np.max(dists)), violation_count=outside_after)


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
    _check_bounds_v(trace, bounds)
    J = trace.spec.constraint_count
    v, m, c = bounds.v, bounds.m, bounds.c
    if regime == "general":
        lam = trace.lambda_path
        w0, z0 = lam[start, :J], lam[start, J:]
        w1, z1 = lam[start + length, :J], lam[start + length, J:]
        lam0 = float(np.sum(w0 ** 2) + np.sum(z0 ** 2))
        lam1 = float(np.sum(w1 ** 2) + np.sum(z1 ** 2))
        dz = float(np.linalg.norm(z1 - z0))
        obj = v / (2.0 * length) * (lam0 - lam1) + c / v + v * m / length * dz
        vio = v / length * np.abs(w1 - w0) + v * m / length * dz
        return obj, vio
    radius = bounds.radius(regime)
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

def optimality_error(spec: ProblemSpec, points, f_opt: float):
    """Max of objective gap, constraint violations and 0 (0 if optimal): a
    float at one point, an array at the rows of an (n, dimension) batch.
    A point's gap is row 0 of a one-row batch; its violation keeps the
    single-point product."""
    points = np.asarray(points, dtype=float)
    gap = spec.objective.values(points.reshape(-1, points.shape[-1])) - f_opt
    err = np.maximum(np.maximum(gap.reshape(points.shape[:-1]), spec.max_violation(points)), 0.0)
    return float(err) if points.ndim == 1 else err


def error_series(trace: RunTrace, f_opt: float):
    """Optimality error of the plain and staggered averages at each iteration."""
    return (optimality_error(trace.spec, trace.xbar, f_opt),
            optimality_error(trace.spec, trace.xbar_frame, f_opt))


def iterations_to_accuracy(trace: RunTrace, f_opt: float, eps: float):
    """First iteration counts at which the plain / staggered average is
    eps-optimal, or None if never within the horizon."""
    plain, stag = error_series(trace, f_opt)

    def first_hit(errors):
        hit = np.nonzero(errors <= eps)[0]
        return int(hit[0]) + 1 if len(hit) else None

    return first_hit(plain), first_hit(stag)


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs); ys floored at 1.

    A flat series has slope exactly 0.0, not polyfit's rounding noise."""
    xs = np.asarray(xs, dtype=float)
    ys = np.maximum(np.asarray(ys, dtype=float), 1.0)
    if np.all(ys == ys[0]):
        return 0.0
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def sample_multipliers(spec: ProblemSpec, scale: float, count: int,
                       seed: int = 0) -> np.ndarray:
    """Seeded random multipliers in the dual domain (w parts nonnegative)."""
    rng = np.random.default_rng(seed)
    J = spec.constraint_count
    lam = scale * rng.standard_normal((count, J + spec.dimension))
    return _project_dual(lam, J)
