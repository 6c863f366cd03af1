"""Reference solvers of the hull-relaxed problem, independent of the engine.

solve_exact gives the optimum, its Lagrange multipliers and whether they
are unique, by a primal-dual interior-point method and a rank test on the
active rows; accuracy is measured against it, and the multiplier estimate
is its multipliers.  Two brute-force references cross-check it: the
grid oracle scans the hull of the decision set directly, and the LP oracle
enumerates polytope vertices.  None shares machinery with the iterative
engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .problem import ExplicitPoints, GridProduct, LinearPiece, PiecewiseLinearPiece, ProblemSpec

__all__ = [
    "OracleResult",
    "ExactSolution",
    "InfeasibilityError",
    "solve_exact",
    "solve_reference",
    "solve_reference_lp",
    "FEASIBILITY_TOL",
]

FEASIBILITY_TOL = 1e-9

# Points a brute-force scan may visit.  The scans hold one block at a time,
# so this bounds their time, not their memory: 3.4M grid points take about
# 0.2 s and 0.9M lattice points about 0.4 s (2-core Xeon).
_MAX_GRID_POINTS = 4_000_000
# Doubles in the widest array of one scan block: (rows, max(I, J)) on a
# grid, (rows, max(points, I, J)) on the lattice.  On the four demos at
# resolution 0.01 (5,440 or 8,192 rows a block) the grid oracle takes about
# 3.5 ms a call and, called in a loop, faults no page in; 2**12 takes 5.1 ms,
# and 2**15 faults pages in again (2-core Xeon).
_SCAN_BLOCK_ENTRIES = 2 ** 14

# Interior-point stop: each residual entry relative to the summed magnitudes
# of its terms, and the complementarity relative to the objective, below this.
_IPM_TOL = 1e-12
_IPM_MAX_ITER = 100
# Least depth, per unit of a row's largest coefficient, by which some hull
# point holds every constraint row in the final solve.
_IPM_MARGIN = 1e-11
# The uniqueness test: a row is active when its slack is below _ACTIVE_TOL
# per unit of its right-hand side (at least 1); with the active rows scaled
# to unit length, singular values below _RANK_TOL of the largest are zero,
# and a null vector moves a multiplier by more than sqrt(_RANK_TOL).
_ACTIVE_TOL = 1e-9
_RANK_TOL = 1e-9


class InfeasibilityError(RuntimeError):
    """No feasible point: the problem is infeasible (or, for the brute-force
    searches, the resolution too coarse)."""


@dataclass(frozen=True)
class OracleResult:
    f_opt: float
    argmin: np.ndarray
    grid_resolution: float
    certificate: float  # max positive constraint violation at argmin


@dataclass(frozen=True)
class ExactSolution:
    f_opt: float
    argmin: np.ndarray  # x* (= y*)
    lam: np.ndarray  # (w*, z*), a maximizer of the dual, in dual_function's order
    unique: bool  # False when the dual may have other maximizers


def _feasible(spec: ProblemSpec, points: np.ndarray):
    """Whether every constraint is at most FEASIBILITY_TOL, at one point or per row of a batch."""
    return spec.max_violation(points) <= FEASIBILITY_TOL


def _best_feasible(spec: ProblemSpec, points: np.ndarray):
    """(value, point) of the best feasible candidate, or None.

    Ties by value resolve to the lexicographically smallest point, the
    earliest row among equal ones; so does _scan across its blocks.
    """
    feas = _feasible(spec, points)
    if not np.any(feas):
        return None
    cand = np.compress(feas, points, axis=0)
    vals = spec.objective.values(cand)
    best = np.min(vals)
    ties = cand[vals == best]
    order = np.lexsort(ties.T[::-1])
    return float(best), ties[order[0]].copy()


def _blocks(n: int, width: int):
    """(start, stop) of the consecutive row blocks that cover rows 0..n-1,
    each of about _SCAN_BLOCK_ENTRIES / width rows.

    A block's matrix products give each row the bits that one product over
    all n rows gives it only if every block starts where one of the row
    groups of OpenBLAS's kernels would, hence at multiples of 64 rows, and
    if no block has one row unless n does: numpy takes a one-row product
    through gemv or dot, not gemm.  So a one-row tail joins the block
    before it.
    """
    rows = max(64, _SCAN_BLOCK_ENTRIES // width // 64 * 64)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def _axis_points(lo: float, hi: float, resolution: float) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    n = max(1, int(round((hi - lo) / resolution)))
    return np.linspace(lo, hi, n + 1)


def _scan(spec: ProblemSpec, axes, extra=None):
    """_best_feasible over the mesh of the axes in C order, then over the
    point extra if given, one block of rows at a time.

    np.unravel_index gives each mesh point the coordinates meshgrid would,
    and a block's best replaces the incumbent only when its value is lower,
    or equal at a lexicographically smaller point, so the result is that of
    one _best_feasible call over the whole mesh.
    """
    shape = tuple(len(a) for a in axes)
    total = math.prod(shape)
    if total > _MAX_GRID_POINTS:
        raise ValueError(f"grid of {total} points is too large; coarsen the resolution")
    best = None
    for start, stop in _blocks(total + (extra is not None), max(len(axes), spec.constraint_count)):
        index = np.unravel_index(np.arange(start, min(stop, total)), shape)
        points = np.column_stack([a[k] for a, k in zip(axes, index)])
        if stop > total:
            points = np.vstack([points, extra[None, :]])
        found = _best_feasible(spec, points)
        if found is not None and (best is None or found[0] < best[0]
                                  or found[0] == best[0] and found[1].tolist() < best[1].tolist()):
            best = found
    return best


def _certificate(spec: ProblemSpec, x: np.ndarray) -> float:
    return float(max(0.0, spec.max_violation(x)))


def _grid_search(spec: ProblemSpec, resolution: float) -> OracleResult:
    lo, hi = spec.decision_set.hull_bounds()
    I = len(lo)
    incumbent = _scan(spec, [_axis_points(l, h, resolution) for l, h in zip(lo, hi)])
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
        local = _scan(spec, axes, point)
        if local is not None and local[0] <= val:
            incumbent = local
    val, point = incumbent
    return OracleResult(f_opt=val, argmin=point, grid_resolution=resolution,
                        certificate=_certificate(spec, point))


def _simplex_compositions(total: int, parts: int, width: int):
    """All nonnegative integer vectors of the given length summing to total,
    in increasing lexicographic order, in the row blocks _blocks gives: the
    gaps between parts - 1 bars placed among total + parts - 1 slots, and
    the two ends.  One part places no bar and has one composition."""
    n, slots = math.comb(total + parts - 1, parts - 1), total + parts - 1
    bars = itertools.combinations(range(slots), parts - 1)
    for start, stop in _blocks(n, width):
        rows = stop - start
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(bars, rows)),
                            dtype=float, count=rows * (parts - 1)).reshape(rows, parts - 1)
        out = np.diff(block, axis=1, prepend=-1.0, append=float(slots))
        out -= 1.0
        yield out


def _simplex_search(spec: ProblemSpec, resolution: float) -> OracleResult:
    pts = spec.decision_set.points
    m = pts.shape[0]
    if m > 8:
        raise ValueError("explicit-point oracle handles at most 8 points")
    steps = max(1, int(round(1.0 / resolution)))
    if math.comb(steps + m - 1, m - 1) > _MAX_GRID_POINTS:
        raise ValueError("simplex lattice too large; coarsen the resolution")
    # the first least value over the lattice's blocks in order
    best = None
    for weights in _simplex_compositions(steps, m, max(m, spec.dimension, spec.constraint_count)):
        weights /= steps
        lattice = weights @ pts
        feas = np.flatnonzero(_feasible(spec, lattice))
        if not len(feas):
            continue
        vals = spec.objective.values(lattice[feas])
        k = int(np.argmin(vals))
        if best is None or vals[k] < best[0]:
            best = float(vals[k]), weights[feas[k]].copy()
    if best is None:
        raise InfeasibilityError(
            f"no feasible simplex lattice point at resolution {resolution}")
    val, wts = best

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
                    if not _feasible(spec, x):
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
    Each mesh and lattice is scanned in blocks of about _SCAN_BLOCK_ENTRIES
    doubles, with the result of one scan over all of it, and may hold at
    most _MAX_GRID_POINTS points.
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

    lo, hi = spec.decision_set.hull_bounds()
    A, b = spec.constraint_matrix()
    planes = []  # rows (normal, rhs) of normal . x = rhs
    for i in range(I):
        e = np.zeros(I)
        e[i] = 1.0
        planes.append((e, lo[i]))
        if hi[i] > lo[i]:
            planes.append((e.copy(), hi[i]))
    planes.extend(zip(A, -b))

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
        if np.any(x < lo - FEASIBILITY_TOL) or np.any(x > hi + FEASIBILITY_TOL):
            continue
        candidates.append(x)

    best = _best_feasible(spec, np.array(candidates).reshape(-1, I))
    if best is None:
        raise InfeasibilityError("no feasible vertex (infeasible or degenerate problem)")
    val, point = best
    return OracleResult(f_opt=val, argmin=point, grid_resolution=0.0,
                        certificate=_certificate(spec, point))


def _interior_point(Q, c, G, h, E, e):
    """(v, lam, nu) of min 0.5 v.Qv + c.v subject to Gv <= h (multipliers
    lam) and Ev = e (multipliers nu), by Mehrotra's predictor-corrector
    from an infeasible start: one KKT matrix per iteration, solved for the
    predictor and then for the corrector.  Only ds is eliminated from it:
    eliminating dlam too puts lam / s, whose range grows as the gap closes,
    into the rows of the dual residual, which its rounding then stalls."""
    n, m, p = len(c), len(h), len(e)
    v, s, lam, nu = np.zeros(n), np.ones(m), np.ones(m), np.zeros(p)
    aQ, aG, aE = np.abs(Q), np.abs(G), np.abs(E)
    K = np.block([[Q, G.T, E.T], [G, np.zeros((m, m + p))], [E, np.zeros((p, m + p))]])
    lam_block = (np.arange(n, n + m),) * 2  # the diagonal of K's (lam, lam) block
    for _ in range(_IPM_MAX_ITER):
        r_d = Q @ v + c + G.T @ lam + E.T @ nu
        r_p, r_e = G @ v + s - h, E @ v - e
        gap = lam @ s
        # each residual entry against the sum of its terms' magnitudes
        av = np.abs(v)
        if (_negligible(r_d, aQ @ av + np.abs(c) + aG.T @ np.abs(lam) + aE.T @ np.abs(nu))
                and _negligible(r_p, aG @ av + np.abs(h)) and _negligible(r_e, aE @ av + np.abs(e))
                and _negligible(gap, abs(v @ (0.5 * Q @ v + c)))):
            return v, lam, nu
        K[lam_block] = -s / lam

        def direction(r_c):
            # the Newton step towards lam * s = r_c's target, with ds eliminated
            step = np.linalg.solve(K, np.concatenate([-r_d, r_c / lam - r_p, -r_e]))
            dv = step[:n]
            return dv, -r_p - G @ dv, step[n:n + m], step[n + m:]

        def longest(ds, dl):
            # the largest step in (0, 1] that keeps s and lam nonnegative
            cur, dirs = np.concatenate([s, lam]), np.concatenate([ds, dl])
            with np.errstate(over="ignore"):  # a subnormal direction allows any step
                return min(1.0, np.min(-cur[dirs < 0.0] / dirs[dirs < 0.0], initial=np.inf))

        dv, ds, dl, dn = direction(lam * s)
        a = longest(ds, dl)
        sigma = ((s + a * ds) @ (lam + a * dl) / gap) ** 3 if gap > 0.0 else 0.0
        dv, ds, dl, dn = direction(lam * s + ds * dl - sigma * gap / max(m, 1))
        a = min(1.0, 0.99 * longest(ds, dl))
        v, s, lam, nu = v + a * dv, s + a * ds, lam + a * dl, nu + a * dn
    raise ValueError(f"interior-point solve did not converge in {_IPM_MAX_ITER} iterations")


def _negligible(residual, scale) -> bool:
    return bool(np.all(np.abs(residual) <= _IPM_TOL * np.maximum(1.0, scale)))


def _relaxation(spec: ProblemSpec, A, b, phase_one: bool = False):
    """(Q, c, G, h, E, e) of the hull-relaxed problem over v = (y, t, u),
    or of its phase-one problem over v = (y, u, s).

    x = x0 + M u is the hull point: u in [0, 1]^I with M = diag(hi - lo)
    for a grid's hull box, u on the simplex with M = P^T for explicit
    points P.  The rows of G are the constraints A y + b <= 0 first
    (A y + b <= s in phase one), then one per slope of each
    piecewise-linear piece, whose epigraph variable t lies on or above it,
    then the hull's.  The rows of E are x - y = 0 first, so that their
    multipliers are z, then the simplex's.  y is not held to the box: y = x
    lies in the hull, which the box contains.  Phase one minimizes s and
    has no pieces.
    """
    I, J = spec.dimension, len(b)
    ds = spec.decision_set
    if isinstance(ds, GridProduct):
        lo, hi = ds.hull_bounds()
        M, x0 = np.diag(hi - lo), lo
        hull_G, hull_h = np.vstack([-np.eye(I), np.eye(I)]), np.repeat([0.0, 1.0], I)
        simplex = np.zeros((0, I))
    else:
        M, x0 = ds.points.T, np.zeros(I)
        hull_G, hull_h = -np.eye(M.shape[1]), np.zeros(M.shape[1])
        simplex = np.ones((1, M.shape[1]))
    pwl = [] if phase_one else [i for i, p in enumerate(spec.objective.pieces)
                                if isinstance(p, PiecewiseLinearPiece)]
    T, U = len(pwl), M.shape[1]
    n = I + T + U + phase_one
    cols = slice(I + T, I + T + U)

    Q, c = np.zeros((n, n)), np.zeros(n)
    rows = [np.hstack([A, np.zeros((J, n - I))])]
    h = [-b]
    if phase_one:
        rows[0][:, -1], c[-1] = -1.0, 1.0
    else:
        for i, piece in enumerate(spec.objective.pieces):
            if not isinstance(piece, PiecewiseLinearPiece):
                Q[i, i], c[i] = 2.0 * piece.curvature, piece.slope
    for k, i in enumerate(pwl):
        piece = spec.objective.pieces[i]
        # each segment's line, through the segment's left end (the first
        # segment's through its right end, or through 0 without breakpoints)
        anchors = piece.breakpoints[:1] + piece.breakpoints or (0.0,)
        seg = np.zeros((len(piece.slopes), n))
        seg[:, i], seg[:, I + k] = piece.slopes, -1.0
        rows.append(seg)
        h.append(np.multiply(piece.slopes, anchors) - piece.values(np.array(anchors)))
        c[I + k] = 1.0
    rows.append(np.zeros((len(hull_h), n)))
    rows[-1][:, cols] = hull_G
    h.append(hull_h)

    E = np.zeros((I + len(simplex), n))
    E[:I, :I], E[:I, cols], E[I:, cols] = -np.eye(I), M, simplex
    return Q, c, np.vstack(rows), np.concatenate(h), E, np.concatenate([-x0, np.ones(len(simplex))])


def solve_exact(spec: ProblemSpec) -> ExactSolution:
    """Optimum, minimizer and multipliers of the hull-relaxed problem
    min sum_i f_i(y_i) subject to A y + b <= 0, y = x, x in the hull.

    One interior-point solve (see _relaxation for the formulation), after a
    phase-one solve when constraints cross the hull's box: the smallest s
    with A x + b <= s on the hull, rows scaled to max-norm 1, must be at
    most FEASIBILITY_TOL, or the spec raises InfeasibilityError; a positive
    s below it relaxes the constraints by s, as the brute-force references
    accept such points.  f_opt is the objective at y*.  lam holds the multipliers w* of the
    constraints and z* of y = x: a maximizer of the dual, since strong
    duality holds for this convex problem with affine constraints.  unique
    is _multipliers_unique's answer at the solution.
    """
    I, J = spec.dimension, spec.constraint_count
    A, b = spec.constraint_matrix()
    # each row's least and largest value on the hull's bounding box: a row
    # above FEASIBILITY_TOL all over it is infeasible, and one at most
    # FEASIBILITY_TOL all over it holds as the brute-force references count
    # it, so it is dropped with multiplier 0
    lo, hi = spec.decision_set.hull_bounds()
    least = np.minimum(A * lo, A * hi).sum(axis=1) + b
    if np.any(least > FEASIBILITY_TOL):
        raise InfeasibilityError(f"infeasible: constraint {int(np.argmax(least))} "
                                 "is violated on the whole hull")
    keep = np.flatnonzero(np.maximum(A * lo, A * hi).sum(axis=1) + b > FEASIBILITY_TOL)
    # the kept rows scaled to max-norm 1, so that the phase-one s is a
    # violation per unit coefficient and every row's residual counts alike
    norms = np.abs(A[keep]).max(axis=1)
    A, b = A[keep] / norms[:, None], b[keep] / norms
    Q, c, G, h, E, e = _relaxation(spec, A, b)
    if len(keep):
        s = _interior_point(*_relaxation(spec, A, b, phase_one=True))[0][-1]
        if s > FEASIBILITY_TOL:
            raise InfeasibilityError(
                f"infeasible: every hull point violates a constraint by at least {s:.3g} "
                "per unit of its largest coefficient")
        # relaxed, if need be, so that some hull point holds every row with
        # _IPM_MARGIN to spare: without such a point the multipliers can
        # grow without bound
        h[:len(keep)] += max(s + _IPM_MARGIN, 0.0)
    v, lam, nu = _interior_point(Q, c, G, h, E, e)
    w = np.zeros(J)
    w[keep] = lam[:len(keep)] / norms
    return ExactSolution(f_opt=spec.objective.value(v[:I]), argmin=v[:I],
                         lam=np.concatenate([w, nu[:I]]),
                         unique=_multipliers_unique(spec, keep, G, h, E, v))


def _multipliers_unique(spec: ProblemSpec, keep, G, h, E, v) -> bool:
    """Whether (w*, z*) are the only multipliers at the final solve's v,
    whose first rows of G are the constraints of keep.

    The multipliers of the rows active at v solve the Lagrangian's
    stationarity, a linear system over those rows' gradients: the rows of G
    with no slack, the box ends y* sits at (the dual's y-step runs over the
    box) and every row of E.  Two solutions differ by a null vector of its
    transpose, so (w*, z*) is unique when no null vector moves a w or a z
    (Kyparisis, Math. Programming 32, 1985).  The multipliers' signs may
    still bar such a vector, and a dropped constraint active at x* has a
    free w: False reads "possibly non-unique".
    """
    I = spec.dimension
    y = v[:I]
    A, b = spec.constraint_matrix()
    dropped = np.ones(len(b), dtype=bool)  # not np.setdiff1d, which imports numpy.ma
    dropped[keep] = False
    if np.any(A[dropped] @ y + b[dropped] >= -FEASIBILITY_TOL):
        return False
    ys = np.eye(len(v))[:I]
    G, h = np.vstack([G, -ys, ys]), np.concatenate([h, -spec.box.lower, spec.box.upper])
    active = np.flatnonzero(h - G @ v <= _ACTIVE_TOL * np.maximum(1.0, np.abs(h)))
    rows = np.vstack([G[active], E])
    u, sv, _ = np.linalg.svd(rows / np.linalg.norm(rows, axis=1)[:, None])
    null = u[:, np.count_nonzero(sv > _RANK_TOL * sv[0]):]
    moves_wz = np.concatenate([active < len(keep), np.arange(len(E)) < I])
    return not np.any(np.abs(null[moves_wz]) > _RANK_TOL ** 0.5)
