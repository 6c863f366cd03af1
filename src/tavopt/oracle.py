"""Independent brute-force reference solvers for desk-scale verification.

These deliberately share no machinery with the iterative engine: the grid
oracle scans the hull of the decision set directly, and the LP oracle
enumerates polytope vertices.  Both exist to cross-check the solver and each
other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .problem import ExplicitPoints, GridProduct, LinearPiece, ProblemSpec

__all__ = [
    "OracleResult",
    "InfeasibilityError",
    "solve_reference",
    "solve_reference_lp",
    "FEASIBILITY_TOL",
]

FEASIBILITY_TOL = 1e-9

_MAX_GRID_POINTS = 4_000_000


class InfeasibilityError(RuntimeError):
    """No feasible candidate found (resolution too coarse or problem infeasible)."""


@dataclass(frozen=True)
class OracleResult:
    f_opt: float
    argmin: np.ndarray
    grid_resolution: float
    certificate: float  # max positive constraint violation at argmin


def _best_feasible(spec: ProblemSpec, points: np.ndarray):
    """(value, point) of the best feasible candidate, or None.

    Ties by value resolve to the lexicographically smallest point, which keeps
    partitioned evaluation deterministic.
    """
    if points.shape[0] == 0:
        return None
    A, b = spec.constraint_matrix()
    feas = np.ones(points.shape[0], dtype=bool)
    if A.shape[0] > 0:
        feas = np.all(points @ A.T + b <= FEASIBILITY_TOL, axis=1)
    if not np.any(feas):
        return None
    cand = points[feas]
    vals = spec.objective.values(cand)
    best = np.min(vals)
    ties = cand[vals == best]
    order = np.lexsort(ties.T[::-1])
    return float(best), ties[order[0]].copy()


def _axis_points(lo: float, hi: float, resolution: float) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    n = max(1, int(round((hi - lo) / resolution)))
    return np.linspace(lo, hi, n + 1)


def _mesh(axes) -> np.ndarray:
    total = 1
    for a in axes:
        total *= len(a)
    if total > _MAX_GRID_POINTS:
        raise ValueError(f"grid of {total} points is too large; coarsen the resolution")
    grids = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([g.ravel() for g in grids])


def _certificate(spec: ProblemSpec, x: np.ndarray) -> float:
    A, b = spec.constraint_matrix()
    if A.shape[0] == 0:
        return 0.0
    return float(max(0.0, np.max(A @ x + b)))


def _grid_search(spec: ProblemSpec, resolution: float) -> OracleResult:
    lo, hi = spec.decision_set.hull_bounds()
    I = len(lo)
    incumbent = _best_feasible(spec, _mesh([_axis_points(l, h, resolution)
                                            for l, h in zip(lo, hi)]))
    if incumbent is None:
        raise InfeasibilityError(
            f"no feasible grid point at resolution {resolution}; "
            "the resolution may be too coarse or the problem infeasible")
    # Two local refinements around the incumbent.  The window spans a few
    # previous-stage cells (fewer in high dimension to bound the mesh), and
    # the incumbent stays in the candidate set, so each stage is monotone.
    cells = 2.5 if I <= 3 else (1.0 if I <= 5 else 0.5)
    res = resolution
    for _ in range(2):
        val, point = incumbent
        reach = cells * res
        res /= 10.0
        axes = [_axis_points(max(l, p - reach), min(h, p + reach), res)
                for l, h, p in zip(lo, hi, point)]
        local = _best_feasible(spec, np.vstack([_mesh(axes), point[None, :]]))
        if local is not None and local[0] <= val:
            incumbent = local
    val, point = incumbent
    return OracleResult(f_opt=val, argmin=point, grid_resolution=resolution,
                        certificate=_certificate(spec, point))


def _simplex_compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length summing to total,
    in increasing lexicographic order: the gaps between parts - 1 bars
    placed among total + parts - 1 slots, and the two ends."""
    n, slots = math.comb(total + parts - 1, parts - 1), total + parts - 1
    bars = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
                       dtype=float, count=n * (parts - 1)).reshape(n, parts - 1)
    out = np.diff(bars, axis=1, prepend=-1.0, append=float(slots))
    out -= 1.0
    return out


def _simplex_search(spec: ProblemSpec, resolution: float) -> OracleResult:
    pts = spec.decision_set.points
    m = pts.shape[0]
    if m > 8:
        raise ValueError("explicit-point oracle handles at most 8 points")
    steps = max(1, int(round(1.0 / resolution)))
    if math.comb(steps + m - 1, m - 1) > _MAX_GRID_POINTS:
        raise ValueError("simplex lattice too large; coarsen the resolution")
    weights = _simplex_compositions(steps, m) / steps
    lattice = weights @ pts
    A, b = spec.constraint_matrix()
    feas = np.ones(lattice.shape[0], dtype=bool)
    if A.shape[0] > 0:
        feas = np.all(lattice @ A.T + b <= FEASIBILITY_TOL, axis=1)
    if not np.any(feas):
        raise InfeasibilityError(
            f"no feasible simplex lattice point at resolution {resolution}")
    vals = np.full(lattice.shape[0], np.inf)
    vals[feas] = spec.objective.values(lattice[feas])
    k = int(np.argmin(vals))
    val = float(vals[k])
    wts = weights[k].copy()

    # local polish: greedy pairwise mass transfers at two finer step sizes
    for delta in (0.1 / steps, 0.01 / steps):
        improved = True
        guard = 0
        while improved and guard < 200:
            improved = False
            guard += 1
            for src in range(m):
                for dst in range(m):
                    # checked before every transfer: an accepted one lowers wts[src]
                    if dst == src or wts[src] < delta - 1e-15:
                        continue
                    trial = wts.copy()
                    trial[src] -= delta
                    trial[dst] += delta
                    x = trial @ pts
                    if A.shape[0] > 0 and np.max(A @ x + b) > FEASIBILITY_TOL:
                        continue
                    v = spec.objective.value(x)
                    if v < val - 1e-15:
                        val, wts, improved = v, trial, True
    point = wts @ pts
    return OracleResult(f_opt=val, argmin=point, grid_resolution=resolution,
                        certificate=_certificate(spec, point))


def solve_reference(spec: ProblemSpec, resolution: float) -> OracleResult:
    """Brute-force minimum of the hull-relaxed problem.

    Grid decision sets get a three-stage search over the hull box: a coarse
    feasible scan at the given resolution, then two local refinements at a
    tenth and a hundredth of it.  Explicit point sets are searched over
    convex-combination weights on a simplex lattice (at most 8 points).
    """
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    if isinstance(spec.decision_set, GridProduct):
        return _grid_search(spec, resolution)
    if isinstance(spec.decision_set, ExplicitPoints):
        return _simplex_search(spec, resolution)
    raise ValueError(f"unsupported decision set {type(spec.decision_set).__name__}")


def solve_reference_lp(spec: ProblemSpec) -> OracleResult:
    """Exact minimum for the all-affine case by feasible-vertex enumeration.

    Candidate vertices are intersections of `dimension` active hyperplanes
    drawn from the hull-box facets and the constraint boundaries.  Refuses
    dimensions above 6, where the enumeration blows up.
    """
    I = spec.dimension
    if I > 6:
        raise ValueError("vertex enumeration refuses dimension > 6")
    if not isinstance(spec.decision_set, GridProduct):
        raise ValueError("LP oracle needs a grid decision set (box hull)")
    for i, p in enumerate(spec.objective.pieces):
        if not isinstance(p, LinearPiece):
            raise ValueError(f"objective piece {i} is not linear")
    slope = np.array([p.slope for p in spec.objective.pieces])

    lo, hi = spec.decision_set.hull_bounds()
    A, b = spec.constraint_matrix()
    planes = []  # rows (normal, rhs) of normal . x = rhs
    for i in range(I):
        e = np.zeros(I)
        e[i] = 1.0
        planes.append((e, lo[i]))
        if hi[i] > lo[i]:
            planes.append((e.copy(), hi[i]))
    for j in range(A.shape[0]):
        planes.append((A[j], -b[j]))

    candidates = []
    for combo in itertools.combinations(range(len(planes)), I):
        M = np.array([planes[k][0] for k in combo])
        rhs = np.array([planes[k][1] for k in combo])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.max(np.abs(M @ x - rhs)) > 1e-8:
            continue  # nearly singular system
        if np.any(x < lo - FEASIBILITY_TOL) or np.any(x > hi + FEASIBILITY_TOL):
            continue
        if A.shape[0] > 0 and np.max(A @ x + b) > FEASIBILITY_TOL:
            continue
        candidates.append(x)

    if not candidates:
        raise InfeasibilityError("no feasible vertex (infeasible or degenerate problem)")
    cand = np.array(candidates)
    vals = cand @ slope
    best = np.min(vals)
    ties = cand[vals == best]
    order = np.lexsort(ties.T[::-1])
    point = ties[order[0]].copy()
    return OracleResult(f_opt=float(best), argmin=point, grid_resolution=0.0,
                        certificate=_certificate(spec, point))
