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

from .engine import RunTrace, SolverConfig, _dual_columns, run
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
    return d, np.stack(x, axis=-1), np.stack(y, axis=-1)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSet:
    """Structural constants plus the convergence-region geometry they imply.

    b_poly/radius_poly need the polyhedral decay rate l_poly; b_smooth and
    radius_smooth need the quadratic decay rate l_smooth.  Each is None
    without its rate.
    """

    m: float
    c: float
    v: float
    l_poly: Optional[float] = None
    l_smooth: Optional[float] = None

    def __post_init__(self):
        if self.c <= 0.0 or self.v < 1.0 or self.m < 0.0:
            raise ValueError("need c > 0, v >= 1, m >= 0")
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

    @property
    def radius_poly(self) -> Optional[float]:
        return None if self.l_poly is None else self.b_poly + self.step_bound

    @property
    def radius_smooth(self) -> Optional[float]:
        return None if self.l_smooth is None else self.b_smooth + self.step_bound

    def radius(self, geometry: str) -> float:
        """Region radius for "polyhedral" or "smooth" geometry."""
        radii = {"polyhedral": self.radius_poly, "smooth": self.radius_smooth}
        if geometry not in radii:
            raise ValueError(f"unknown geometry {geometry!r}")
        if radii[geometry] is None:
            raise ValueError(f"bounds carry no radius for {geometry} geometry")
        return radii[geometry]

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
        # one broadcast view per axis of the product grid
        axes = []
        for k in range(dims):
            lo = center[k] - half[k]
            hi = center[k] + half[k]
            if k < J:
                lo = max(0.0, lo)
                hi = max(hi, lo)
            shape = [1] * dims
            shape[k] = points_per_dim
            axes.append(np.linspace(lo, hi, points_per_dim).reshape(shape))
        d, _, _ = _dual_columns(spec, axes[:J], axes[J:])
        k = np.unravel_index(np.argmax(d), d.shape)
        if d[k] > best_d:
            best_d = float(d[k])
            best_lam = np.array([axis.flat[i] for axis, i in zip(axes, k)])
        spacing = 2.0 * half / (points_per_dim - 1)
        center = best_lam.copy()
        half = 1.5 * spacing
        if np.max(spacing) <= _RESOLUTION_TARGET:
            break
    return best_lam


def _residual_probes(spec: ProblemSpec, lam_hat, region: float, seed: int, extra=None):
    """(residual, d(lam_hat)): how far the best probe's dual value rises above
    the estimate's, clipped at zero.  lam_hat is row 0 of the probe batch; it
    lies in the dual domain, so the projection leaves it as it is."""
    rng = np.random.default_rng(seed)
    dims = lam_hat.shape[0]
    blocks = [lam_hat[None, :]]
    n_uni = _PROBE_COUNT // 2
    blocks.append(rng.uniform(-region, region, size=(n_uni, dims)))
    for scale in (1e-3, 1e-2, 1e-1, 1.0):
        blocks.append(lam_hat + scale * rng.standard_normal(((_PROBE_COUNT - n_uni) // 4 + 1,
                                                            dims)))
    if extra is not None and len(extra):
        blocks.append(np.atleast_2d(extra))
    D, _, _ = dual_function_batch(spec, _project_dual(np.vstack(blocks), spec.constraint_count))
    d_hat = float(D[0])
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
                       distances: tuple = (0.1,), n_probes: int = 2048,
                       seed: int = 0, extra_directions=None) -> float:
    """Smallest probed decrease of the dual per unit distance from lam_hat,
    over all the given probe distances.

    Random ray probes at each distance, augmented with subgradient
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

    def decay_of(directions, rho):
        # rho holds each direction's probe distance
        probes = _project_dual(lam_hat[None, :] + rho[:, None] * directions, j_dim)
        deltas = probes - lam_hat[None, :]
        dist = np.linalg.norm(deltas, axis=1)
        ok = dist >= 0.25 * rho
        out = np.full(len(directions), np.inf)
        if np.any(ok):
            D, _, _ = dual_function_batch(spec, probes[ok])
            out[ok] = (d_hat - D) / dist[ok]
        return out

    decays = decay_of(np.tile(dirs, (len(distances), 1)),
                      np.repeat(distances, len(dirs))).reshape(len(distances), -1)
    # four pattern searches per distance, from its directions of smallest
    # decay, all run side by side with one batch of proposals per sweep; a
    # row's dual value does not depend on its batch, so every search moves
    # as it would alone.  A search's value only falls, so the smallest
    # decay of each distance is its first search's start value.
    starts = [[dirs[k], float(row[k]), 0.5, rho]  # u0, val, step, distance
              for rho, row in zip(distances, decays) for k in np.argsort(row)[:4]]
    axes = np.arange(dims)
    for _ in range(80):
        active = [s for s in starts if s[2] > 1e-4]
        if not active:
            break
        # proposal 2*axis (2*axis + 1) moves u0 by +step (-step) along axis;
        # u0 is a unit vector and step <= 0.5, so no proposal is zero
        step = np.array([s[2] for s in active])[:, None]
        props = np.repeat(np.array([s[0] for s in active])[:, None, :], 2 * dims, axis=1)
        props[:, 2 * axes, axes] += step
        props[:, 2 * axes + 1, axes] -= step
        props = props.reshape(-1, dims)
        # vecdot runs, per row, the ddot that np.linalg.norm(u) takes, so
        # each norm keeps its bits
        props /= np.sqrt(np.vecdot(props, props))[:, None]
        vals = decay_of(props, np.repeat([s[3] for s in active], 2 * dims))
        for start, cand, v in zip(active, props.reshape(len(active), 2 * dims, dims),
                                  vals.reshape(len(active), 2 * dims)):
            k = int(np.argmin(v))
            if v[k] < start[1] - 1e-12:
                start[0], start[1] = cand[k], float(v[k])
            else:
                start[2] *= 0.5
    return min(val for _, val, _, _ in starts)


def estimate_sharpness(spec: ProblemSpec, estimate: "MultiplierEstimate",
                       seed: int = 0) -> dict:
    """Decay-rate estimates feeding the region geometry, keyed by geometry.

    One decay search serves both: "polyhedral" is (d(lam_hat) - d(probe)) /
    distance, "smooth" divides by the squared distance.  Each rate is floored
    at a tiny positive value so the region formulas stay defined.
    """
    rate = minimal_decay_rate(spec, estimate.lam, estimate.j_dim,
                              distances=(_SHARPNESS_DISTANCE,), n_probes=_SHARPNESS_PROBES,
                              seed=seed)
    return {"polyhedral": max(rate, 1e-9), "smooth": max(rate / _SHARPNESS_DISTANCE, 1e-9)}


def estimate_multiplier(spec: ProblemSpec, method: str = "grid-dual-max", *,
                        v: float = 100.0,
                        seed: int = 0,
                        tail_horizon: int = 1_000_000) -> MultiplierEstimate:
    """Estimate the dual maximizer.

    tail-average runs the engine with a 10x larger V and averages the dual
    trajectory over its final stretch; grid-dual-max runs a coarse-to-fine
    grid ascent of the dual over a bounded region.  The residual reports the
    largest probed dual value above the estimate (clipped at zero) and must
    stay below 1e-2.
    """
    J = spec.constraint_count
    reg = default_search_region(spec)
    extra_probes = None

    if method == "tail-average":
        # the head is only stepped through, in runs no longer than the tail,
        # each starting from the state the one before ended in
        start = int((1.0 - _TAIL_FRACTION) * tail_horizon)
        tail = tail_horizon - start
        w = z = None
        for done in range(0, start, tail):
            w, z = np.split(run(spec, SolverConfig(v=10.0 * v, horizon=min(tail, start - done),
                                                   initial_w=w, initial_z=z)).lambda_path[-1], [J])
        rows = run(spec, SolverConfig(v=10.0 * v, horizon=tail, initial_w=w,
                                      initial_z=z)).lambda_path[:-1]
        lam_hat = _project_dual(rows.mean(axis=0), J)
        extra_probes = rows[::max(1, tail // 512)]
    elif method == "grid-dual-max":
        lam_hat = _grid_dual_max(spec, reg)
    else:
        raise ValueError(f"unknown estimation method {method!r}")

    residual, d_value = _residual_probes(spec, lam_hat, reg, seed, extra=extra_probes)
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
        alt = _grid_dual_max(spec, reg, center_shift=0.31)
        gap = float(np.linalg.norm(alt - lam_hat))
        if gap > 10.0 * _RESOLUTION_TARGET:
            extra_dirs.append((alt - lam_hat) / gap)
    decay = minimal_decay_rate(spec, lam_hat, J, distances=(0.1, 0.05), seed=seed,
                               n_probes=512, extra_directions=extra_dirs)
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
    lam_star = np.asarray(lambda_star, dtype=float)
    J = trace.spec.constraint_count
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


def phase_detect(trace: RunTrace, estimate: MultiplierEstimate,
                 bounds: BoundSet, geometry: str) -> PhaseReport:
    """Find the first iteration t = 0..horizon whose dual variables are within
    the region radius (plus twice the estimation residual) of the estimated
    maximizer, and check that membership persists afterwards.
    """
    radius = bounds.radius(geometry)
    slack = 2.0 * estimate.residual
    dists = np.linalg.norm(trace.lambda_path - estimate.lam, axis=1)
    inside = dists <= radius + slack
    max_dist = float(np.max(dists))
    if not np.any(inside):
        return PhaseReport(geometry=geometry, radius=radius, slack=slack,
                           t_hit=None, absorbed=False, max_distance=max_dist,
                           violation_count=0)
    k0 = int(np.argmax(inside))
    outside_after = int(np.sum(~inside[k0:]))
    return PhaseReport(geometry=geometry, radius=radius, slack=slack,
                       t_hit=k0, absorbed=outside_after == 0,
                       max_distance=max_dist, violation_count=outside_after)


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

def optimality_error(spec: ProblemSpec, point, f_opt: float) -> float:
    """Max of objective gap and constraint violations at a point (0 if optimal)."""
    point = np.asarray(point, dtype=float)
    A, b = spec.constraint_matrix()
    err = spec.objective.value(point) - f_opt
    if A.shape[0] > 0:
        err = max(err, float(np.max(A @ point + b)))
    return max(err, 0.0)


def error_series(trace: RunTrace, f_opt: float):
    """Optimality error of the plain and staggered averages at each iteration."""
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
