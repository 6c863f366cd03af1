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
# the minimizer of piece(y) + c*y over [lo, hi]; argmin_shifted_line, the
# Python line that run()'s generated step loop runs for it each step (the
# same operations inline, with the box's lo and hi as literals);
# argmin_shifted_batch, the same minimizer for an array of c values, equal
# element by element, from which the engine records y; max_abs_value(lo,
# hi), a bound on |piece| over [lo, hi].  Its JSON form, {"kind": kind,
# <fields>}, is read and written from its dataclass fields by
# tavopt.config.  A new kind is one class here plus its entry in
# PIECE_KINDS.  LinearPiece is QuadraticPiece with its curvature fixed at 0
# as a class constant: the zero-curvature branches are the one home of the
# linear minimizer, and its one field, slope, keeps the JSON form
# {"kind": "linear", "slope": s}.

def float_literal(value) -> str:
    """Source text that evaluates to the double value (finite), sign of
    zero included."""
    return f"({float(value)!r})"


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

    def value(self, y: float) -> float:
        return self.curvature * y * y + self.slope * y

    def values(self, ys: np.ndarray) -> np.ndarray:
        return self.curvature * ys * ys + self.slope * ys

    def max_abs_derivative(self, lo: float, hi: float) -> float:
        # derivative 2a*y + s is affine, so its extremes sit at the endpoints
        return max(abs(2.0 * self.curvature * lo + self.slope),
                   abs(2.0 * self.curvature * hi + self.slope))

    def argmin_shifted(self, c: float, lo: float, hi: float) -> float:
        if self.curvature == 0.0:
            return lo if self.slope + c >= 0.0 else hi
        vertex = -(self.slope + c) / (2.0 * self.curvature)
        if vertex < lo:
            return lo
        if vertex > hi:
            return hi
        return vertex

    def argmin_shifted_line(self, y: str, c: str, lo: float, hi: float) -> str:
        s, a = float_literal(self.slope), float_literal(self.curvature)
        lo, hi = float_literal(lo), float_literal(hi)
        if self.curvature == 0.0:
            return f"{y} = {lo} if {s} + ({c}) >= 0.0 else {hi}"
        # 2.0 * a stays an expression: its value can be inf, which has no
        # literal; Python floats overflow quietly, as argmin_shifted's do
        return (f"{y} = -({s} + ({c})) / (2.0 * {a}); "
                f"{y} = {lo} if {y} < {lo} else ({hi} if {y} > {hi} else {y})")

    def argmin_shifted_batch(self, c: np.ndarray, lo: float, hi: float) -> np.ndarray:
        if self.curvature == 0.0:
            return np.where(self.slope + c >= 0.0, lo, hi)
        # a subnormal curvature sends the vertex to +-inf, which the clip
        # maps to the box end just as the scalar form does
        with np.errstate(over="ignore"):
            vertex = -(self.slope + c) / (2.0 * self.curvature)
        return np.clip(vertex, lo, hi)

    def max_abs_value(self, lo: float, hi: float) -> float:
        cands = [self.value(lo), self.value(hi)]
        if self.curvature > 0.0:
            vertex = -self.slope / (2.0 * self.curvature)
            if lo <= vertex <= hi:
                cands.append(self.value(vertex))
        return max(abs(v) for v in cands)


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
        # (slope, lower node, upper node) of each segment, for value's loop
        nodes = (-math.inf,) + bps + (math.inf,)
        object.__setattr__(self, "_segments", tuple(zip(sls, nodes, nodes[1:])))

    def _slope_right_of(self, y: float) -> float:
        # breakpoints strictly increase, so bisect counts those <= y
        return self.slopes[bisect_right(self.breakpoints, y)]

    def _slope_left_of(self, y: float) -> float:
        return self.slopes[bisect_left(self.breakpoints, y)]

    def value(self, y: float) -> float:
        # integral of the slope function from 0 to y; each segment is
        # clipped to [a, b] as max(a, node_lo) and min(b, node_hi) would
        # (the first argument wins a tie, so signed zeros keep their bits)
        total = 0.0
        a, b = (0.0, y) if y >= 0.0 else (y, 0.0)
        for s, node_lo, node_hi in self._segments:
            seg_lo = node_lo if node_lo > a else a
            seg_hi = node_hi if node_hi < b else b
            if seg_hi > seg_lo:
                total += s * (seg_hi - seg_lo)
        return total if y >= 0.0 else -1.0 * total

    def values(self, ys: np.ndarray) -> np.ndarray:
        # value's integral, elementwise, with the same operations in the
        # same order, so each entry equals value(y) bit for bit
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

    def argmin_shifted(self, c: float, lo: float, hi: float) -> float:
        # shifted slopes are nondecreasing: stop at the first nonnegative one
        if self._slope_right_of(lo) + c >= 0.0:
            return lo
        for k, b in enumerate(self.breakpoints):
            if b >= hi:
                break
            if b > lo and self.slopes[k + 1] + c >= 0.0:
                return b
        return hi

    def argmin_shifted_line(self, y: str, c: str, lo: float, hi: float) -> str:
        # argmin_shifted unrolled for this box, with y holding c until the
        # last statement: lo if the slope right of lo plus c is nonnegative,
        # else the first interior breakpoint whose right slope plus c is, else
        # hi.  The breakpoints are tested last to first as flat statements:
        # one nested conditional expression over thousands of them would
        # exceed the parser's nesting limits
        lit = float_literal
        inner = [(b, s) for b, s in zip(self.breakpoints, self.slopes[1:]) if lo < b < hi]
        tests = [f"r = {lit(b)} if {lit(s)} + {y} >= 0.0 else r" for b, s in reversed(inner)]
        last = f"{y} = {lit(lo)} if {lit(self._slope_right_of(lo))} + {y} >= 0.0 else r"
        return "; ".join([f"{y} = {c}", f"r = {lit(hi)}", *tests, last])

    def argmin_shifted_batch(self, c: np.ndarray, lo: float, hi: float) -> np.ndarray:
        # k is the first segment whose shifted slope is nonnegative (for
        # doubles s + c >= 0.0 exactly when s >= -c); its left end is the
        # minimizer, lo for the first segment and hi past the last one
        k = np.searchsorted(self.slopes, -c, side="left")
        return np.clip(np.array((lo, *self.breakpoints, hi))[k], lo, hi)

    def max_abs_value(self, lo: float, hi: float) -> float:
        cands = [self.value(lo), self.value(hi)]
        cands.extend(self.value(b) for b in self.breakpoints if lo <= b <= hi)
        return max(abs(v) for v in cands)


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
        return float(sum(p.value(float(v)) for p, v in zip(self.pieces, x)))

    def values(self, points: np.ndarray) -> np.ndarray:
        """Objective at each row of an (n, dimension) array."""
        points = np.asarray(points, dtype=float)
        total = np.zeros(points.shape[0])
        for i, p in enumerate(self.pieces):
            total += p.values(points[:, i])
        return total

    def max_gradient_norm(self, lower: np.ndarray, upper: np.ndarray) -> float:
        """Supremum of the gradient norm over the box (coordinates decouple)."""
        return math.sqrt(sum(p.max_abs_derivative(lo, hi) ** 2
                             for p, lo, hi in zip(self.pieces, lower, upper)))

    def max_abs_value(self, lower: np.ndarray, upper: np.ndarray) -> float:
        """Upper bound on |objective| over the box: the sum of the piece bounds."""
        return sum(p.max_abs_value(float(lo), float(hi))
                   for p, lo, hi in zip(self.pieces, lower, upper))


# ---------------------------------------------------------------------------
# Decision sets and the extended box
# ---------------------------------------------------------------------------

# Every decision set offers its x-step, the point minimizing z . x, in the
# three forms the engine uses, with the same bits: linear_argmin, for one z
# or the rows of a batch; linear_argmin_columns(z), for I arrays z_i that
# broadcast together, as the I columns x_i; linear_argmin_lines(x, z), the
# lines run once before run()'s step loop (they see the set as
# decision_set) and the lines that set the names x from the floats named z.

# Explicit sets with at most this many score terms (points times coordinates)
# have their scores unrolled into the step loop; larger ones call
# linear_argmin, which sums the same terms in the same order in numpy.  The
# unrolled scores cost ~30 ns per term per step, the call ~2 us per
# coordinate plus ~2 us, almost regardless of the number of points.  In
# run() the two met at ~250 terms on 3-D sets and ~450 on 6-D sets (2-core
# Xeon, CPython 3.11, numpy 2.4); the lower crossover is taken.
_UNROLLED_SCORE_TERMS = 256


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

    def linear_argmin_columns(self, z) -> list:
        # x_i keeps z_i's shape, which the grid ascent's broadcasting relies on
        lo, hi = self.hull_bounds()
        return [np.where(zi >= 0.0, l, h) for zi, l, h in zip(z, lo, hi)]

    def linear_argmin_lines(self, x, z) -> tuple[list, list]:
        return [], [f"{xi} = {float_literal(vs[0])} if {zi} >= 0.0 else {float_literal(vs[-1])}"
                    for xi, zi, vs in zip(x, z, self.values)]


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
        the same sum in Python floats, which run()'s step loop unrolls.
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

    def linear_argmin_columns(self, z) -> list:
        # scored jointly: one linear_argmin row per entry of the broadcast shape
        Z = np.stack(np.broadcast_arrays(*z), axis=-1)
        X = self.linear_argmin(Z.reshape(-1, len(z)))
        return list(np.moveaxis(X.reshape(Z.shape), -1, 0))

    def linear_argmin_lines(self, x, z) -> tuple[list, list]:
        # scores, one point at a time, with best, s and x as scratch names;
        # above _UNROLLED_SCORE_TERMS a call of linear_argmin instead
        if self.points.size > _UNROLLED_SCORE_TERMS:
            return (["pick_x = decision_set.linear_argmin"],
                    [f"[{', '.join(x)}] = pick_x([{', '.join(z)}]).tolist()"])
        pts = self.points.tolist()
        names = [f"point{k}" for k in range(len(pts))]

        def score(p):
            return " + ".join(f"{zi} * {float_literal(v)}" for zi, v in zip(z, p))

        # the first minimum over the sorted points wins, as argmin's does
        lines = [f"best = {score(pts[0])}; x = point0"]
        for name, p in zip(names[1:], pts[1:]):
            lines += [f"s = {score(p)}", f"if s < best: best = s; x = {name}"]
        lines.append(f"[{', '.join(x)}] = x")
        return [f"[{', '.join(names)}] = map(tuple, decision_set.points.tolist())"], lines


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

    def contains(self, x, atol: float = _BOX_ATOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))

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
        lo, hi = self.decision_set.hull_bounds()
        if np.any(lo < self.box.lower - _BOX_ATOL) or np.any(hi > self.box.upper + _BOX_ATOL):
            raise ValueError("decision set is not contained in the box")

    @property
    def dimension(self) -> int:
        return self.box.dimension

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    def constraint_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with constraint values A @ x + b."""
        I = self.dimension
        if not self.constraints:
            return np.zeros((0, I)), np.zeros(0)
        A = np.array([g.coeffs for g in self.constraints], dtype=float)
        b = np.array([g.offset for g in self.constraints], dtype=float)
        return A, b


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
    x = _require_in_box(spec, x)
    A, b = spec.constraint_matrix()
    return A @ x + b


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
    A, b = spec.constraint_matrix()
    sup_g = 0.0
    if len(spec.constraints) > 0:
        gv = box_verts @ A.T + b
        sup_g = float(np.max(np.sum(gv * gv, axis=1)))
    hull_verts = spec.decision_set.hull_vertices()
    diff = hull_verts[:, None, :] - box_verts[None, :, :]
    sup_dist = float(np.max(np.sum(diff * diff, axis=2)))
    return max(sup_g, sup_dist, EPS_C)
