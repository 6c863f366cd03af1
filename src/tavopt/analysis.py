"""Diagnostics built on the dual function: multiplier estimation, drift
certificates, transient/steady-state phase detection, and evaluation of the
convergence bounds that the averaged iterates are expected to satisfy.

Every diagnostic runs against a multiplier estimate, the multipliers of the
exact solve of tavopt.oracle, with an explicit residual f_opt - d(estimate)
between the solver's optimum and the engine's dual; region radii get twice
the residual added as estimation slack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import RunTrace, _check_v, _dual_columns
from .oracle import solve_exact
from .problem import (GridProduct, PiecewiseLinearPiece, ProblemSpec, QuadraticPiece,
                      _affine_columns, evaluate_constraints, squared_norm_bound)

__all__ = [
    "BoundSet",
    "DecayModel",
    "MultiplierEstimate",
    "PhaseReport",
    "DriftReport",
    "EstimationError",
    "dual_function",
    "dual_subgradient",
    "dual_function_batch",
    "estimate_multiplier",
    "estimate_sharpness",
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
# The local model's tie tolerance, per unit of a value's scale (at least 1):
# values this close tie, and singular values, curvatures or supports are 0.
_ACTIVE_TOL = 1e-9


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
    """The exact dual maximizer with its residual f_opt - d(lam)."""

    lam: np.ndarray
    residual: float
    d_value: float
    f_opt: float

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.lam))


def _project_dual(lam: np.ndarray, j_dim: int) -> np.ndarray:
    out = np.array(lam, dtype=float)
    out[..., :j_dim] = np.maximum(0.0, out[..., :j_dim])
    return out


@dataclass(frozen=True)
class DecayModel:
    """The dual's exact local model at a maximizer lam*: for a unit u and
    small t > 0, d* - d(lam* + t u) = t support(-u) + t^2/2 u.hessian.u.

    support is the support function of the superdifferential of d at lam*,
    the set of (A y + b, x - y) over the tied minimizers: centre plus the
    segments [-1/2, 1/2] * generators, plus the hull of tied_points in its
    x part.  directions is an orthonormal basis (rows) of the directions in
    which the maximizer set leaves lam*, empty when the model finds lam*
    the only maximizer, else "possibly non-unique": a quadratic vertex at
    a box end is a known false positive (see estimate_sharpness), as at
    z = 0 on the grid {-1, 0, 1} with f = y^2 + 2y.  polyhedral is the
    inradius of the superdifferential about 0, where it spans the dual
    space; smooth is half the least eigenvalue of the hessian on the
    directions the set could take, where there are some and none is flat.
    Either is None where it is not positive, or where the facets are too
    many to count (see estimate_sharpness): that geometry has no region.
    """

    centre: np.ndarray
    generators: np.ndarray
    tied_points: np.ndarray
    hessian: np.ndarray
    polyhedral: Optional[float]
    smooth: Optional[float]
    directions: np.ndarray

    def support(self, normals) -> np.ndarray:
        """max of g . n over the superdifferential, for each row n."""
        return _support(normals, self.centre, self.generators, self.tied_points)


def _support(normals, centre, generators, tied_points) -> np.ndarray:
    """max of g . n over centre + [-1/2, 1/2] * generators + the hull of
    tied_points in the x part, for each row n of normals."""
    normals = np.atleast_2d(normals)
    x_part = normals[:, len(centre) - tied_points.shape[1]:]
    return (normals @ centre + 0.5 * np.abs(normals @ generators.T).sum(axis=1)
            + np.max(x_part @ tied_points.T, axis=1))


# Most work estimate_sharpness spends on facet normals (about 0.1 s on a
# 2-core Xeon), counted as the entries of the edges plus, for each of the
# C(edges, rank - 1) subsets, rank^3 for its rank minors and dims * tied
# points for the support at its normals.  The count grows without bound:
# 20 tied 3-D points with two constraints give about 5.6e7 subsets.  Past
# the limit the model reports no rate.  The subsets are taken so that each
# array holds about _FACET_CHUNK entries.
_FACET_WORK = 10 ** 7
_FACET_CHUNK = 2 ** 18


def _tied_interval(piece, c: float, lo: float, hi: float, tol: float):
    """The interval of y in [lo, hi] minimizing piece(y) + c y where that is
    more than one point: a linear piece or a piecewise-linear segment whose
    slope is -c to within tol.  None elsewhere.  A quadratic piece whose
    curvature moves it by at most tol over the box counts as linear."""
    width = float(hi - lo)
    if isinstance(piece, PiecewiseLinearPiece):
        bps, slopes = piece.breakpoints, piece.slopes
    elif piece.curvature == 0.0 or piece.curvature * width * width <= tol:
        bps, slopes = (), (piece.slope,)
    else:
        return None
    tied = [k for k, s in enumerate(slopes) if abs(s + c) <= tol]
    if not tied:
        return None
    nodes = (-math.inf,) + bps + (math.inf,)
    left, right = max(lo, nodes[tied[0]]), min(hi, nodes[tied[-1] + 1])
    return (left, right) if right > left else None


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """The nonzero rows, each divided by its length."""
    lengths = np.linalg.norm(rows, axis=1)
    return rows[lengths > 0.0] / lengths[lengths > 0.0, None]


def _row_space(rows: np.ndarray, dims: int):
    """(rank, vt): an orthonormal basis vt of R^dims whose first rank rows
    span the rows to within _ACTIVE_TOL.  The thin SVD of the rows padded
    with dims zero rows keeps memory linear in their count."""
    _, sv, vt = np.linalg.svd(np.vstack([rows, np.zeros((dims, dims))]), full_matrices=False)
    return int(np.count_nonzero(sv > _ACTIVE_TOL)), vt


def _facet_normals(edges: np.ndarray, per_chunk: int):
    """Unit vectors orthogonal to dims - 1 independent rows of edges, both
    signs, one array per per_chunk subsets: every facet normal of a
    full-dimensional polytope whose edges are parallel to rows of edges
    (Ziegler, Lectures on Polytopes, ch. 7)."""
    dims = edges.shape[1]
    subsets = itertools.combinations(range(len(edges)), dims - 1)
    while chunk := list(itertools.islice(subsets, per_chunk)):
        rows = edges[np.array(chunk, dtype=int).reshape(len(chunk), dims - 1)]
        # the generalized cross product: signed maximal minors, which a
        # singular subset may leave 0 or nan
        with np.errstate(divide="ignore", invalid="ignore"):
            normals = np.stack([(-1) ** k * np.linalg.det(np.delete(rows, k, axis=2))
                                for k in range(dims)], axis=1)
        norms = np.linalg.norm(normals, axis=1)
        keep = norms > _ACTIVE_TOL
        normals = normals[keep] / norms[keep, None]
        yield np.vstack([normals, -normals])


def estimate_sharpness(spec: ProblemSpec, estimate: MultiplierEstimate) -> DecayModel:
    """The dual's local model at the estimate, from one dual evaluation.

    A coordinate ties where its minimizer is not unique to within
    _ACTIVE_TOL: a grid coordinate with z_i = 0 takes every value from its
    lowest to its highest, explicit points tie where their scores z . p
    meet the least, and a linear or piecewise-linear y_i is free on an
    interval where a slope is -c_i, c_i = -z_i + w_0*A_0i + ... (the
    y-step's shift).  Each tie of y_i is a generator a_i * length, a_i =
    (A[:, i], -e_i), and each tie of a grid's x_i one (0, e_i) * length; a
    quadratic y_i strictly inside its box adds a_i a_i^T / (2 curvature_i)
    to the hessian.  Where w_j = 0 the dual
    moves only to w_j >= 0, so the set gains the ray e_j.  The inradius is
    the least support over the facet normals, those orthogonal to rank - 1
    of the generators, the edges between tied points and the rays, less
    those facing a ray: the weak-sharp-maximum constant (Burke & Ferris,
    SIAM J. Control Optim. 31, 1993).  The maximizer set leaves lam* along
    the complement of their span and inward across each facet through 0,
    where the hessian is 0.  Parallel edges are enumerated once, and past
    _FACET_WORK the model counts no facet: both rates are None and the
    directions are those of the span's complement only, which the set
    takes but need not be all of them.  A quadratic y_i at a box end with
    its vertex there curves d on one side only and is left out: there the
    rates bound the decay from below, and the directions may count that
    side.
    """
    J, I = spec.constraint_count, spec.dimension
    w, z = estimate.lam[:J], estimate.lam[J:]
    _, x0, y0 = dual_function(spec, w, z)
    A = spec.constraint_matrix()[0]
    cols = np.vstack([A, -np.eye(I)])  # column i is a_i
    c = _affine_columns(A.T.tolist(), (-z).tolist(), w)
    lo, hi = spec.box.lower, spec.box.upper
    ylo, yhi, curvature = y0.copy(), y0.copy(), np.zeros(I)
    for i, piece in enumerate(spec.objective.pieces):
        tol = _ACTIVE_TOL * max(1.0, abs(c[i]))
        tie = _tied_interval(piece, c[i], lo[i], hi[i], tol)
        if tie is not None:
            ylo[i], yhi[i] = tie
        elif isinstance(piece, QuadraticPiece) and piece.curvature > 0.0 \
                and lo[i] + tol < y0[i] < hi[i] - tol:
            curvature[i] = piece.curvature
    ds = spec.decision_set
    ztol = _ACTIVE_TOL * max(1.0, float(np.max(np.abs(z))))
    if isinstance(ds, GridProduct):
        free = np.abs(z) <= ztol
        xlo, xhi = (np.where(free, end, x0) for end in ds.hull_bounds())
        points = ((xlo + xhi) / 2.0)[None, :]
        x_gens = np.hstack([np.zeros((I, J)), np.diag(xhi - xlo)])
    else:
        scores = ds.scores(z)
        points = ds.points[scores <= scores.min() + ztol * max(1.0, abs(scores.min()))]
        x_gens = np.zeros((0, J + I))
    y_mid = (ylo + yhi) / 2.0
    centre = np.concatenate([spec.constraint_values(y_mid), points[0] - y_mid])
    generators = np.vstack([(cols * (yhi - ylo)).T, x_gens])
    generators = generators[np.any(generators != 0.0, axis=1)]
    tied_points = points - points[0]
    inner = curvature > 0.0
    hessian = (cols[:, inner] / (2.0 * curvature[inner])) @ cols[:, inner].T
    # where w_j = 0 the dual only moves to w_j >= 0: the set gains the ray e_j
    at_zero = np.flatnonzero(w <= _ACTIVE_TOL * max(1.0, float(np.max(w, initial=0.0))))
    rays = np.eye(J + I)[at_zero]
    x_rows = np.hstack([np.zeros((len(points), J)), tied_points])
    # the tied points span what their pairwise differences do
    rank, vt = _row_space(_unit_rows(np.vstack([generators, x_rows, rays])), J + I)
    # the edges are the generators, the pairwise differences of the tied
    # points and the rays; past _FACET_WORK the facets go uncounted: no
    # rate, and the directions of the span's complement only
    k = len(points)
    count = len(generators) + k * (k - 1) // 2 + len(rays)
    counted = rank == 0 or (count * (J + I) + math.comb(count, rank - 1)
                            * (rank ** 3 + (J + I) * k) <= _FACET_WORK)
    # the maximizer set leaves lam* along the complement of the span and
    # inward across each facet through 0, where the hessian is 0
    radius, cone = math.inf, vt[rank:]
    if rank and counted:
        left, right = np.triu_indices(k, 1)
        edges = _unit_rows(np.vstack([generators, x_rows[right] - x_rows[left], rays]))
        # parallel edges give the same normals: keep the first of each direction
        sign = np.sign(edges[np.arange(len(edges)), np.argmax(np.abs(edges), axis=1)])
        _, first = np.unique(np.round(edges * sign[:, None], 12), axis=0, return_index=True)
        edges = edges[np.sort(first)]
        per_chunk = max(1, _FACET_CHUNK // (rank * rank + 2 * (J + I) + 2 * k))
        for normals in _facet_normals(edges @ vt[:rank].T, per_chunk):
            normals = normals @ vt[:rank]
            normals = normals[np.all(normals[:, at_zero] <= _ACTIVE_TOL, axis=1)]
            support = _support(normals, centre, generators, tied_points)
            radius = min(radius, float(np.min(support, initial=np.inf)))
            dim, basis = _row_space(np.vstack([cone, normals[support <= _ACTIVE_TOL]]), J + I)
            cone = basis[:dim]
    curv, vecs = np.linalg.eigh(cone @ hessian @ cone.T)
    flat = curv <= _ACTIVE_TOL * max(1.0, float(curv.max(initial=0.0)))
    return DecayModel(
        centre=centre, generators=generators, tied_points=tied_points, hessian=hessian,
        polyhedral=radius if counted and rank == J + I and radius > _ACTIVE_TOL else None,
        smooth=0.5 * float(curv[0]) if counted and len(curv) and not flat.any() else None,
        directions=vecs[:, flat].T @ cone)


def estimate_multiplier(spec: ProblemSpec) -> MultiplierEstimate:
    """The dual maximizer: the multipliers of oracle.solve_exact.

    The residual is f_opt - d(estimate), clipped at zero; it must stay below
    1e-2, and d(estimate) may exceed f_opt by no more than
    1e-9 * max(1, |f_opt|), where the solver's f(y*) and the engine's dual
    meet.  An exact solve that fails to converge raises EstimationError too.
    """
    J = spec.constraint_count
    try:
        exact = solve_exact(spec)
    except ValueError as exc:
        raise EstimationError(str(exc)) from exc
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
    return MultiplierEstimate(lam=lam_hat, residual=residual, d_value=d_value,
                              f_opt=exact.f_opt)


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
    A point's gap is row 0 of a one-row batch."""
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
