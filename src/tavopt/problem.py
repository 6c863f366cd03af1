"""Problem instances: discrete decision sets, separable convex objectives,
affine constraints, and the structural constants used by the solver.

A problem asks for a sequence of decisions drawn from a finite set whose
long-run average minimizes a convex objective subject to affine inequality
constraints on that average.  All data is validated and frozen at
construction; a :class:`ProblemSpec` is safe to share across concurrent runs.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

__all__ = [
    "LinearPiece",
    "QuadraticPiece",
    "PiecewiseLinearPiece",
    "PIECE_KINDS",
    "SeparableConvexObjective",
    "GridProduct",
    "ExplicitPoints",
    "DecisionSet",
    "ExtendedBox",
    "AffineConstraint",
    "ProblemSpec",
    "tight_box",
    "evaluate_objective",
    "evaluate_constraints",
    "lipschitz_bound",
    "squared_norm_bound",
    "EPS_C",
]

# Floor on the squared-norm constant for degenerate single-point problems,
# so that sqrt(2C)/V stays well defined.
EPS_C = 1e-12

_BOX_ATOL = 1e-9


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Objective pieces
# ---------------------------------------------------------------------------

# Every piece kind offers the same closed forms: argmin_shifted(c, lo, hi),
# the minimizer of piece(y) + c*y over [lo, hi] for a float c or elementwise
# for an array of c, the one Python form, which y_update and the dual
# formula take; kernel_params(lo, hi), the numbers (lo and hi first) from
# which run()'s compiled step loop (step_loop.c) takes the same minimizer,
# with the same bits, each step.  Its JSON form, {"kind": kind, <fields>},
# is read and written from its dataclass fields by tavopt.config.  A new
# kind is one class here plus its entry in PIECE_KINDS (and a branch in
# step_loop.c if its minimizer is neither of the kernel's two).
# LinearPiece is QuadraticPiece with its curvature fixed at 0 as a class
# constant: the zero-curvature branches are the one home of the linear
# minimizer, and its one field, slope, keeps the JSON form
# {"kind": "linear", "slope": s}.


@dataclass(frozen=True)
class QuadraticPiece:
    """Scalar piece a*y**2 + s*y with a >= 0."""

    kind: ClassVar[str] = "quadratic"
    curvature: float
    slope: float

    def __post_init__(self):
        if not (math.isfinite(self.curvature) and math.isfinite(self.slope)):
            raise ValueError(f"{self.kind} piece parameters must be finite")
        if self.curvature < 0.0:
            raise ValueError("non-convex piece: quadratic curvature must be >= 0")

    def values(self, ys: np.ndarray) -> np.ndarray:
        return self.curvature * ys * ys + self.slope * ys

    def max_abs_derivative(self, lo: float, hi: float) -> float:
        # derivative 2a*y + s is affine, so its extremes sit at the endpoints
        return max(abs(2.0 * self.curvature * lo + self.slope),
                   abs(2.0 * self.curvature * hi + self.slope))

    def kernel_params(self, lo: float, hi: float) -> tuple:
        # zero curvature is the kernel's linear case: a chain of one slope
        return lo, hi, self.curvature, self.slope

    def argmin_shifted(self, c, lo: float, hi: float) -> np.ndarray:
        if self.curvature == 0.0:
            return np.where(self.slope + c >= 0.0, lo, hi)
        # a subnormal curvature sends the vertex to +-inf, which the clip
        # maps to the box end, as step_loop.c's comparisons do
        with np.errstate(over="ignore"):
            vertex = -(self.slope + c) / (2.0 * self.curvature)
        # the clip method: np.clip's dispatch costs 4 us a call on one c
        return np.asarray(vertex).clip(lo, hi)


@dataclass(frozen=True)
class LinearPiece(QuadraticPiece):
    """Scalar piece s*y: the quadratic piece with zero curvature."""

    kind: ClassVar[str] = "linear"
    curvature: ClassVar[float] = 0.0
    slope: float


@dataclass(frozen=True)
class PiecewiseLinearPiece:
    """Convex piecewise-linear scalar piece.

    ``slopes[k]`` applies on the k-th segment; segments are separated by the
    strictly increasing interior ``breakpoints`` (so ``len(slopes) ==
    len(breakpoints) + 1``).  Convexity requires nondecreasing slopes.  The
    piece is anchored at value 0 at y = 0.
    """

    kind: ClassVar[str] = "piecewise_linear"
    breakpoints: tuple
    slopes: tuple

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        sls = tuple(float(s) for s in self.slopes)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "slopes", sls)
        if len(sls) != len(bps) + 1:
            raise ValueError("need one slope per segment: len(slopes) == len(breakpoints) + 1")
        if not all(math.isfinite(v) for v in bps + sls):
            raise ValueError("piecewise-linear parameters must be finite")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(s2 < s1 for s1, s2 in zip(sls, sls[1:])):
            raise ValueError("non-convex piece: slopes must be nondecreasing")
        # (slope, lower node, upper node) of each segment, for values' loop
        nodes = (-math.inf,) + bps + (math.inf,)
        object.__setattr__(self, "_segments", tuple(zip(sls, nodes, nodes[1:])))

    def _slope_right_of(self, y: float) -> float:
        # breakpoints strictly increase, so bisect counts those <= y
        return self.slopes[bisect_right(self.breakpoints, y)]

    def _slope_left_of(self, y: float) -> float:
        return self.slopes[bisect_left(self.breakpoints, y)]

    def values(self, ys: np.ndarray) -> np.ndarray:
        # the integral of the slope function from 0 to each y: each
        # segment's slope times its length inside [min(0, y), max(0, y)],
        # summed from the left
        ys = np.asarray(ys, dtype=float)
        nonneg = ys >= 0.0
        a, b = np.where(nonneg, 0.0, ys), np.where(nonneg, ys, 0.0)
        total = np.zeros(ys.shape)
        for s, node_lo, node_hi in self._segments:
            seg_lo = np.maximum(a, node_lo)
            seg_hi = np.minimum(b, node_hi)
            total = total + np.where(seg_hi > seg_lo, s * (seg_hi - seg_lo), 0.0)
        return np.where(nonneg, 1.0, -1.0) * total

    def max_abs_derivative(self, lo: float, hi: float) -> float:
        # slopes are monotone, so the extremes sit at the interval ends
        return max(abs(self._slope_right_of(lo)), abs(self._slope_left_of(hi)))

    def kernel_params(self, lo: float, hi: float) -> tuple:
        # zero curvature, then the slope right of lo and each breakpoint
        # inside (lo, hi) followed by the slope right of it
        chain = [u for b, s in zip(self.breakpoints, self.slopes[1:]) if lo < b < hi
                 for u in (b, s)]
        return (lo, hi, 0.0, self._slope_right_of(lo), *chain)

    def argmin_shifted(self, c, lo: float, hi: float) -> np.ndarray:
        # k is the first segment whose shifted slope is nonnegative (for
        # doubles s + c >= 0.0 exactly when s >= -c); its left end is the
        # minimizer: lo for the first segment, hi past the last one, and the
        # box end itself, with its bits, for a breakpoint outside (lo, hi),
        # which step_loop.c's chain skips
        bps = np.array(self.breakpoints)
        ends = np.concatenate(([lo], np.where(bps <= lo, lo, np.where(bps < hi, bps, hi)), [hi]))
        return ends[np.searchsorted(self.slopes, -c, side="left")]


PIECE_KINDS = {cls.kind: cls for cls in (LinearPiece, QuadraticPiece, PiecewiseLinearPiece)}


@dataclass(frozen=True)
class SeparableConvexObjective:
    """Sum of independent convex scalar pieces, one per coordinate."""

    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ValueError("objective needs at least one piece")
        for p in self.pieces:
            if not isinstance(p, tuple(PIECE_KINDS.values())):
                raise ValueError(f"unsupported objective piece {type(p).__name__}")

    @property
    def dimension(self) -> int:
        return len(self.pieces)

    def value(self, x) -> float:
        """Objective at one point: row 0 of values, with its bits."""
        return float(self.values(np.reshape(x, (1, -1)))[0])

    def values(self, points: np.ndarray) -> np.ndarray:
        """Objective at each row of an (n, dimension) array, the pieces
        summed from the left."""
        points = np.asarray(points, dtype=float)
        total = np.zeros(points.shape[0])
        for i, p in enumerate(self.pieces):
            total += p.values(points[:, i])
        return total

    def max_gradient_norm(self, lower: np.ndarray, upper: np.ndarray) -> float:
        """Supremum of the gradient norm over the box (coordinates decouple)."""
        # summed from the left, as the builtin sum did before Python 3.12
        total = 0.0
        for p, lo, hi in zip(self.pieces, lower, upper):
            total += p.max_abs_derivative(lo, hi) ** 2
        return math.sqrt(total)


# ---------------------------------------------------------------------------
# Decision sets and the extended box
# ---------------------------------------------------------------------------

# Every decision set offers its x-step, the point minimizing z . x, in two
# forms with the same bits, as each piece offers its y-step: linear_argmin,
# for one z or the rows of a batch, which x_update and the dual formula
# take; kernel_params(), the point count (0 for a grid) and the values from
# which run()'s compiled step loop takes it.


@dataclass(frozen=True)
class GridProduct:
    """Finite product set: one strictly increasing list of values per coordinate."""

    values: tuple

    def __post_init__(self):
        vals = tuple(tuple(float(v) for v in vs) for vs in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("decision set must have at least one coordinate")
        for i, vs in enumerate(vals):
            if not vs:
                raise ValueError(f"coordinate {i} has an empty value list")
            if not all(math.isfinite(v) for v in vs):
                raise ValueError(f"coordinate {i} has non-finite values")
            if any(b <= a for a, b in zip(vs, vs[1:])):
                raise ValueError(f"coordinate {i} values must be strictly increasing")

    @property
    def dimension(self) -> int:
        return len(self.values)

    def hull_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([vs[0] for vs in self.values])
        hi = np.array([vs[-1] for vs in self.values])
        return lo, hi

    def hull_vertices(self) -> np.ndarray:
        """Vertices of the convex hull (corners of the per-coordinate extremes)."""
        return ExtendedBox(*self.hull_bounds()).vertices()

    def linear_argmin(self, weights) -> np.ndarray:
        """Point of the set minimizing weights . x, for one weight vector or
        for each row of an (n, dimension) batch; ties pick the smallest value."""
        lo, hi = self.hull_bounds()
        return np.where(np.asarray(weights, dtype=float) >= 0.0, lo, hi)

    def kernel_params(self) -> tuple:
        # no points: the kernel's sign rule, from the lowest and highest values
        return 0, np.array(self.hull_bounds())


@dataclass(frozen=True)
class ExplicitPoints:
    """Finite decision set given as an explicit list of vectors."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError("points must form a nonempty 2-d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        # canonical lexicographic order makes tie-breaking deterministic
        order = np.lexsort(pts.T[::-1])
        pts = pts[order].copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    def hull_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points.min(axis=0), self.points.max(axis=0)

    def hull_vertices(self) -> np.ndarray:
        # every extreme point of the hull is one of the stored points
        return self.points

    def scores(self, weights) -> np.ndarray:
        """weights . p for every point p, for one weight vector (shape (N,))
        or for each row of an (n, dimension) batch (shape (n, N)).

        The sum runs in one fixed order, elementwise: s = w_0*p_0, then
        s = s + w_k*p_k for k = 1..I-1.  No matrix product is involved, so a
        batch row equals the single-vector score bit for bit, and both equal
        the same sum in Python floats and in run()'s compiled step loop.
        """
        w = np.asarray(weights, dtype=float)
        # w_k is a float, or an (n, 1) column broadcast against the points
        w = w.tolist() if w.ndim == 1 else w.T[..., None]
        cols = self.points.T
        s = w[0] * cols[0]
        for k in range(1, len(cols)):
            s += w[k] * cols[k]
        return s

    def linear_argmin(self, weights) -> np.ndarray:
        """Point of the set minimizing weights . x (the fixed-order scores),
        for one weight vector or for each row of an (n, dimension) batch."""
        # points are stored lexicographically sorted, so the first minimum
        # is the lexicographically smallest tie
        return self.points[self.scores(weights).argmin(axis=-1)].copy()

    def kernel_params(self) -> tuple:
        return len(self.points), self.points


DecisionSet = Union[GridProduct, ExplicitPoints]


@dataclass(frozen=True)
class ExtendedBox:
    """Closed hyper-rectangle over which the auxiliary minimization runs."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_float_vector(self.lower, "box lower")
        hi = _as_float_vector(self.upper, "box upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape:
            raise ValueError("box lower/upper must have the same dimension")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")

    @property
    def dimension(self) -> int:
        return int(self.lower.shape[0])

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - _BOX_ATOL) and np.all(x <= self.upper + _BOX_ATOL))

    def vertices(self) -> np.ndarray:
        if self.dimension > 16:
            raise ValueError("vertex enumeration limited to dimension <= 16")
        corners = itertools.product(*[(l, h) if l != h else (l,)
                                      for l, h in zip(self.lower, self.upper)])
        return np.array(list(corners), dtype=float)


def tight_box(decision_set: DecisionSet) -> ExtendedBox:
    """Smallest hyper-rectangle containing the decision set (the default box)."""
    lo, hi = decision_set.hull_bounds()
    return ExtendedBox(lo, hi)


# ---------------------------------------------------------------------------
# Constraints and the assembled problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineConstraint:
    """Inequality coeffs . x + offset <= 0."""

    coeffs: np.ndarray
    offset: float

    def __post_init__(self):
        c = _as_float_vector(self.coeffs, "constraint coeffs")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "offset", float(self.offset))
        if not math.isfinite(self.offset):
            raise ValueError("constraint offset must be finite")
        if not np.any(c != 0.0):
            raise ValueError("constraint needs at least one nonzero coefficient")

    def gradient_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable problem instance.

    Holds the decision set, the extended box, the separable convex objective
    and the affine constraints, all with mutually consistent dimensions.
    """

    decision_set: DecisionSet
    box: ExtendedBox
    objective: SeparableConvexObjective
    constraints: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        I = self.box.dimension
        if self.decision_set.dimension != I:
            raise ValueError("decision set dimension does not match box")
        if self.objective.dimension != I:
            raise ValueError("objective dimension does not match box")
        for j, g in enumerate(self.constraints):
            if not isinstance(g, AffineConstraint):
                raise ValueError(f"constraint {j} is not an AffineConstraint")
            if g.coeffs.shape[0] != I:
                raise ValueError(f"constraint {j} dimension does not match box")
        if not all(map(self.box.contains, self.decision_set.hull_bounds())):
            raise ValueError("decision set is not contained in the box")
        A = np.array([g.coeffs for g in self.constraints], dtype=float).reshape(-1, I)
        b = np.array([g.offset for g in self.constraints], dtype=float)
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "_matrix", (A, b))

    @property
    def dimension(self) -> int:
        return self.box.dimension

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    def constraint_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with constraint values A @ x + b, built once and read-only."""
        return self._matrix

    def constraint_values(self, points) -> np.ndarray:
        """g(x) = A x + b at one point (shape (J,)) or at each row of an
        (n, dimension) batch (shape (n, J)), as points @ A.T + b.  At one
        point this has the bits of A @ x + b; a row of a batch may not have
        the bits of the same point alone, so a caller keeps to one form."""
        A, b = self._matrix
        return points @ A.T + b

    def max_violation(self, points):
        """Largest constraint value at one point (a NumPy float) or at each row
        of a batch; -inf without constraints.  A running maximum over the
        columns of points @ A.T plus b_j, with no second (n, J) array: np.max
        along a last axis of three is 6x slower on a grid oracle block of
        5,440 rows."""
        A, b = self._matrix
        lhs = points @ A.T
        worst = np.full(lhs.shape[:-1], -np.inf)
        for j in range(len(b)):
            np.maximum(worst, lhs[..., j] + b[j], out=worst)
        return worst[()]


def _require_in_box(spec: ProblemSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dimension,):
        raise ValueError(f"point has shape {x.shape}, expected ({spec.dimension},)")
    if not spec.box.contains(x):
        raise ValueError(f"point {x.tolist()} lies outside the extended box")
    return x


def evaluate_objective(spec: ProblemSpec, x) -> float:
    """Objective value at a point of the extended box."""
    return spec.objective.value(_require_in_box(spec, x))


def evaluate_constraints(spec: ProblemSpec, x) -> np.ndarray:
    """All constraint values at a point of the extended box (g <= 0 is feasible)."""
    return spec.constraint_values(_require_in_box(spec, x))


def lipschitz_bound(spec: ProblemSpec) -> float:
    """Common Lipschitz constant of the objective and every constraint on the box.

    For the separable objective the supremum gradient norm decouples per
    coordinate and is attained at box endpoints; for an affine constraint it
    is the coefficient norm.
    """
    m = spec.objective.max_gradient_norm(spec.box.lower, spec.box.upper)
    for g in spec.constraints:
        m = max(m, g.gradient_norm())
    return m


def squared_norm_bound(spec: ProblemSpec) -> float:
    """Constant C with ||g(y)||^2 <= C and ||x - y||^2 <= C on the hull and box.

    Both suprema are maxima of convex functions, hence attained at vertices:
    the box vertices for ||g(y)||^2, and hull-vertex/box-vertex pairs for
    ||x - y||^2.  Floored at EPS_C for degenerate single-point problems.
    """
    box_verts = spec.box.vertices()
    # without constraints each row of gv is empty, with squared norm 0.0
    gv = spec.constraint_values(box_verts)
    sup_g = float(np.max(np.sum(gv * gv, axis=1)))
    hull_verts = spec.decision_set.hull_vertices()
    diff = hull_verts[:, None, :] - box_verts[None, :, :]
    sup_dist = float(np.max(np.sum(diff * diff, axis=2)))
    return max(sup_g, sup_dist, EPS_C)
