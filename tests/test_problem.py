import itertools
import json
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tavopt import (
    AffineConstraint,
    ExplicitPoints,
    ExtendedBox,
    GridProduct,
    LinearPiece,
    PiecewiseLinearPiece,
    ProblemSpec,
    QuadraticPiece,
    SeparableConvexObjective,
    SolverConfig,
    evaluate_constraints,
    evaluate_objective,
    lipschitz_bound,
    parse_problem_config,
    run,
    serialize_problem_config,
    squared_norm_bound,
    tight_box,
)
from tavopt.problem import EPS_C

from conftest import bits, build_instance

finite_floats = st.floats(-10.0, 10.0, allow_nan=False)


def scan_min(piece, c, lo, hi, n=4001):
    ys = np.linspace(lo, hi, n)
    vals = piece.values(ys) + c * ys
    return float(np.min(vals))


def shifted_value(piece, c, y):
    return piece.value(y) + c * y


def assert_line_agrees(piece, cs, lo, hi):
    """The step loop's line for the piece sets y to the bits of
    argmin_shifted at every c."""
    line = piece.argmin_shifted_line("y", "c", lo, hi)
    code = compile(line, "<line>", "exec")
    for c in cs:
        scope = {"c": c}
        exec(code, scope)
        assert bits(scope["y"]) == bits(piece.argmin_shifted(c, lo, hi)), (line, c)


def assert_batch_forms_agree(piece, c, lo, hi, slopes):
    """The batch minimizer and the step loop's line equal the scalar one
    element by element (on c, on the tie points c = -slope and on a sweep),
    and max_abs_value bounds the scanned |piece|."""
    cs = np.concatenate([[c], -np.asarray(slopes, dtype=float),
                         np.linspace(-12.0, 12.0, 49)])
    expected = np.array([piece.argmin_shifted(float(u), lo, hi) for u in cs])
    np.testing.assert_array_equal(piece.argmin_shifted_batch(cs, lo, hi), expected)
    assert_line_agrees(piece, cs.tolist(), lo, hi)
    scanned = float(np.max(np.abs(piece.values(np.linspace(lo, hi, 4001)))))
    assert piece.max_abs_value(lo, hi) >= scanned - 1e-12 * max(1.0, scanned)


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------

@given(slope=finite_floats, c=finite_floats,
       lo=st.floats(-5.0, 4.0), width=st.floats(0.01, 8.0))
def test_linear_piece_argmin_matches_scan(slope, c, lo, width):
    piece = LinearPiece(slope=slope)
    hi = lo + width
    y = piece.argmin_shifted(c, lo, hi)
    assert lo <= y <= hi
    assert shifted_value(piece, c, y) <= scan_min(piece, c, lo, hi) + 1e-9
    assert_batch_forms_agree(piece, c, lo, hi, [slope])


@given(curv=st.floats(0.0, 5.0), slope=finite_floats, c=finite_floats,
       lo=st.floats(-5.0, 4.0), width=st.floats(0.01, 8.0))
def test_quadratic_piece_argmin_matches_scan(curv, slope, c, lo, width):
    piece = QuadraticPiece(curvature=curv, slope=slope)
    hi = lo + width
    y = piece.argmin_shifted(c, lo, hi)
    assert lo <= y <= hi
    assert shifted_value(piece, c, y) <= scan_min(piece, c, lo, hi) + 1e-9
    assert_batch_forms_agree(piece, c, lo, hi, [slope])


def test_quadratic_batch_with_subnormal_curvature_matches_scalar():
    # the vertex overflows to +-inf before the clip; the batch form must not
    # warn, and must return what the scalar form returns
    piece = QuadraticPiece(curvature=5e-324, slope=1.0)
    cs = np.array([1.0, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = piece.argmin_shifted_batch(cs, 0.0, 3.0)
    np.testing.assert_array_equal(got, [piece.argmin_shifted(float(c), 0.0, 3.0) for c in cs])
    np.testing.assert_array_equal(got, [0.0, 3.0])


@pytest.mark.parametrize("piece", [
    QuadraticPiece(1e308, 0.5),    # 2 * a is inf, which has no literal
    QuadraticPiece(5e-324, 1.0),   # the vertex overflows to +-inf
    QuadraticPiece(0.0, 0.3),      # written as the linear form
    QuadraticPiece(1.0, -0.0),
    LinearPiece(-0.0),
    PiecewiseLinearPiece((0.5,), (-0.0, 1.0)),
    PiecewiseLinearPiece((), (-0.0,)),      # no breakpoints
    PiecewiseLinearPiece((), (0.5,)),
    PiecewiseLinearPiece((-3.0, 2.0), (-1.0, 0.3, 2.0)),  # none inside any box
    # 3000 breakpoints inside the box: the line stays flat enough to compile
    pytest.param(PiecewiseLinearPiece(tuple(np.linspace(-0.999, 0.999, 3000)),
                                      tuple(np.linspace(-2.5, 2.5, 3001))),
                 id="PiecewiseLinearPiece(3000 breakpoints)"),
], ids=repr)
def test_extreme_pieces_give_the_scalar_bits(piece):
    # the batch form and the step loop's line against argmin_shifted, bit
    # for bit, with signed zeros on both sides of the box's interior
    cs = [-2.0, -1.0, -0.5, -0.3, -0.0, 0.0, 0.3, 0.5, 1.0, 2.0, 5e-324, -5e-324]
    for lo, hi in ((-1.0, 1.0), (0.0, 1.0), (-1.0, -0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = piece.argmin_shifted_batch(np.array(cs), lo, hi)
        assert bits(got) == bits([piece.argmin_shifted(c, lo, hi) for c in cs])
        assert_line_agrees(piece, cs, lo, hi)


def test_linear_piece_is_the_zero_curvature_quadratic():
    # one field, so the JSON form and the constructor stay those of a
    # linear piece; a distinct class, which the LP oracle dispatches on
    assert [f.name for f in fields(LinearPiece)] == ["slope"]
    assert not isinstance(QuadraticPiece(0.0, 1.5), LinearPiece)
    with pytest.raises(ValueError, match="^linear piece parameters must be finite$"):
        LinearPiece(math.inf)
    spec = build_instance("polyhedral")
    slopes = [p.slope for p in spec.objective.pieces]
    text = serialize_problem_config(spec)
    assert json.loads(text)["objective"] == [{"kind": "linear", "slope": s} for s in slopes]
    parsed = parse_problem_config(text).objective.pieces
    assert [type(p) for p in parsed] == [LinearPiece] * 2
    assert list(parsed) == [LinearPiece(s) for s in slopes]
    # the same run as with the quadratic pieces of zero curvature
    quad = replace(spec, objective=SeparableConvexObjective(
        tuple(QuadraticPiece(0.0, s) for s in slopes)))
    cfg = SolverConfig(v=100.0, horizon=5000)
    lin_trace, quad_trace = run(spec, cfg), run(quad, cfg)
    for name in ("x", "y", "w", "z", "d"):
        assert bits(getattr(lin_trace, name)) == bits(getattr(quad_trace, name)), name


@st.composite
def pwl_pieces(draw):
    n_bp = draw(st.integers(0, 4))
    bps = sorted(draw(st.lists(st.floats(-4.0, 4.0), min_size=n_bp, max_size=n_bp,
                               unique=True)))
    s0 = draw(st.floats(-5.0, 5.0))
    deltas = draw(st.lists(st.floats(0.0, 3.0), min_size=n_bp, max_size=n_bp))
    slopes = [s0]
    for d in deltas:
        slopes.append(slopes[-1] + d)
    return PiecewiseLinearPiece(breakpoints=tuple(bps), slopes=tuple(slopes))


@settings(max_examples=200)
@given(piece=pwl_pieces(), c=finite_floats,
       lo=st.floats(-5.0, 4.0), width=st.floats(0.01, 8.0))
def test_pwl_piece_argmin_matches_scan(piece, c, lo, width):
    hi = lo + width
    y = piece.argmin_shifted(c, lo, hi)
    assert lo <= y <= hi
    assert shifted_value(piece, c, y) <= scan_min(piece, c, lo, hi) + 1e-9
    assert_batch_forms_agree(piece, c, lo, hi, piece.slopes)


@given(piece=pwl_pieces())
def test_pwl_vectorized_values_match_scalar(piece):
    ys = np.concatenate([np.linspace(-6.0, 6.0, 101), piece.breakpoints, [0.0, -0.0]])
    expected = np.array([piece.value(float(y)) for y in ys])
    np.testing.assert_array_equal(piece.values(ys), expected)


def test_pwl_hand_values():
    piece = PiecewiseLinearPiece(breakpoints=(0.0,), slopes=(-1.0, 2.0))
    assert piece.value(0.0) == 0.0
    assert piece.value(1.0) == 2.0
    assert piece.value(-1.0) == 1.0
    assert piece.max_abs_derivative(-1.0, 1.0) == 2.0
    # right slope applies when the interval starts exactly at the kink
    assert piece.argmin_shifted(0.0, 0.0, 1.0) == 0.0
    assert piece.max_abs_derivative(0.0, 1.0) == 2.0


@pytest.mark.parametrize("bad", [
    lambda: QuadraticPiece(curvature=-0.5, slope=0.0),
    lambda: PiecewiseLinearPiece(breakpoints=(0.0,), slopes=(2.0, 1.0)),
    lambda: PiecewiseLinearPiece(breakpoints=(1.0, 1.0), slopes=(0.0, 1.0, 2.0)),
    lambda: PiecewiseLinearPiece(breakpoints=(0.0,), slopes=(1.0,)),
])
def test_nonconvex_pieces_rejected(bad):
    with pytest.raises(ValueError):
        bad()


# ---------------------------------------------------------------------------
# Objective and constraint evaluation
# ---------------------------------------------------------------------------

def test_objective_examples():
    poly = build_instance("polyhedral")
    smooth = build_instance("smooth")
    assert evaluate_objective(poly, (0.5, 0.5)) == pytest.approx(1.25, abs=1e-12)
    assert evaluate_objective(smooth, (0.0, 0.0)) == 0.0
    assert evaluate_objective(smooth, (0.5, 0.5)) == pytest.approx(0.5, abs=1e-12)


def test_constraint_examples():
    poly = build_instance("polyhedral")
    g = evaluate_constraints(poly, (0.5, 0.5))
    assert g[0] == pytest.approx(0.0, abs=1e-12)
    g0 = evaluate_constraints(poly, (0.0, 0.0))
    assert g0[0] == pytest.approx(1.5, abs=1e-12)
    g3 = evaluate_constraints(poly, (3.0, 3.0))
    assert g3[1] == pytest.approx(-7.5, abs=1e-12)


def test_points_outside_box_rejected():
    poly = build_instance("polyhedral")
    with pytest.raises(ValueError):
        evaluate_objective(poly, (4.0, 0.0))
    with pytest.raises(ValueError):
        evaluate_constraints(poly, (-1.0, 0.0))


# ---------------------------------------------------------------------------
# Lipschitz constant
# ---------------------------------------------------------------------------

def test_lipschitz_examples():
    poly = build_instance("polyhedral")
    assert lipschitz_bound(poly) == pytest.approx(math.sqrt(5.0), abs=1e-12)

    grid = GridProduct(values=((0.0, 1.0),))
    flat = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(LinearPiece(0.0),)),
        constraints=(AffineConstraint(coeffs=(1.0,), offset=0.0),))
    assert lipschitz_bound(flat) == 1.0

    smooth = build_instance("smooth")
    assert lipschitz_bound(smooth) == pytest.approx(6.0 * math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("name", ["polyhedral", "smooth"])
def test_lipschitz_probe(name):
    spec = build_instance(name)
    m = lipschitz_bound(spec)
    rng = np.random.default_rng(7)
    xs = rng.uniform(spec.box.lower, spec.box.upper, size=(1000, spec.dimension))
    ys = rng.uniform(spec.box.lower, spec.box.upper, size=(1000, spec.dimension))
    dist = np.linalg.norm(xs - ys, axis=1)
    fx = spec.objective.values(xs)
    fy = spec.objective.values(ys)
    assert np.all(np.abs(fx - fy) <= m * dist + 1e-9)
    A, b = spec.constraint_matrix()
    gx = xs @ A.T + b
    gy = ys @ A.T + b
    assert np.all(np.abs(gx - gy) <= (m * dist + 1e-9)[:, None])


@pytest.mark.parametrize("name", ["polyhedral", "smooth"])
def test_convexity_probe(name):
    spec = build_instance(name)
    rng = np.random.default_rng(11)
    xs = rng.uniform(spec.box.lower, spec.box.upper, size=(1000, spec.dimension))
    ys = rng.uniform(spec.box.lower, spec.box.upper, size=(1000, spec.dimension))
    ts = rng.uniform(0.0, 1.0, size=1000)
    mid = ts[:, None] * xs + (1.0 - ts[:, None]) * ys
    f_mid = spec.objective.values(mid)
    f_cvx = ts * spec.objective.values(xs) + (1.0 - ts) * spec.objective.values(ys)
    assert np.all(f_mid <= f_cvx + 1e-9)
    A, b = spec.constraint_matrix()
    g_mid = mid @ A.T + b
    g_cvx = ts[:, None] * (xs @ A.T + b) + (1.0 - ts)[:, None] * (ys @ A.T + b)
    assert np.all(g_mid <= g_cvx + 1e-9)


def test_convexity_probe_pwl_objective():
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0),))
    piece = PiecewiseLinearPiece(breakpoints=(1.0, 2.0), slopes=(-2.0, 0.5, 3.0))
    spec = ProblemSpec(decision_set=grid, box=tight_box(grid),
                       objective=SeparableConvexObjective(pieces=(piece,)))
    m = lipschitz_bound(spec)
    assert m == 3.0
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 3.0, size=1000)
    ys = rng.uniform(0.0, 3.0, size=1000)
    ts = rng.uniform(0.0, 1.0, size=1000)
    f = piece.values
    assert np.all(f(ts * xs + (1 - ts) * ys) <= ts * f(xs) + (1 - ts) * f(ys) + 1e-9)
    assert np.all(np.abs(f(xs) - f(ys)) <= m * np.abs(xs - ys) + 1e-9)


# ---------------------------------------------------------------------------
# Squared-norm constant
# ---------------------------------------------------------------------------

def test_squared_norm_bound_no_constraints():
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0)))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(1.0))))
    assert squared_norm_bound(spec) == pytest.approx(18.0, abs=1e-12)


def test_squared_norm_bound_degenerate_floor():
    grid = GridProduct(values=((1.0,), (1.0,)))
    spec = ProblemSpec(
        decision_set=grid,
        box=ExtendedBox(lower=(1.0, 1.0), upper=(1.0, 1.0)),
        objective=SeparableConvexObjective(pieces=(LinearPiece(0.0), LinearPiece(0.0))))
    assert squared_norm_bound(spec) == EPS_C


def test_squared_norm_bound_matches_grid_sampling_oracle():
    spec = build_instance("polyhedral")
    c = squared_norm_bound(spec)
    assert c == pytest.approx(112.5, abs=1e-12)
    ys = np.linspace(0.0, 3.0, 201)
    mesh = np.column_stack([g.ravel() for g in np.meshgrid(ys, ys)])
    A, b = spec.constraint_matrix()
    g = mesh @ A.T + b
    sampled_sup_g = np.max(np.sum(g * g, axis=1))
    corners = np.array([[0.0, 0.0], [0.0, 3.0], [3.0, 0.0], [3.0, 3.0]])
    diff = corners[:, None, :] - mesh[None, :, :]
    sampled_sup_dist = np.max(np.sum(diff * diff, axis=2))
    assert abs(c - max(sampled_sup_g, sampled_sup_dist)) <= 1e-9


@pytest.mark.parametrize("name", ["polyhedral", "smooth-extra"])
def test_squared_norm_bound_probe(name):
    spec = build_instance(name)
    c = squared_norm_bound(spec)
    rng = np.random.default_rng(5)
    points = list(itertools.product(*spec.decision_set.values))
    xs = np.array([points[k] for k in rng.integers(0, len(points), size=1000)])
    ys = rng.uniform(spec.box.lower, spec.box.upper, size=(1000, spec.dimension))
    A, b = spec.constraint_matrix()
    g = ys @ A.T + b
    assert np.all(np.sum(g * g, axis=1) <= c + 1e-9)
    assert np.all(np.sum((xs - ys) ** 2, axis=1) <= c + 1e-9)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_grid_product_validation():
    with pytest.raises(ValueError):
        GridProduct(values=())
    with pytest.raises(ValueError):
        GridProduct(values=((),))
    with pytest.raises(ValueError):
        GridProduct(values=((1.0, 1.0),))
    with pytest.raises(ValueError):
        GridProduct(values=((2.0, 1.0),))


def fixed_order_score(w, p):
    s = w[0] * p[0]
    for wk, pk in zip(w[1:], p[1:]):
        s = s + wk * pk
    return s


def test_explicit_point_scores_are_one_fixed_order_sum():
    # tenths are not dyadic, so their products round, and the same terms
    # summed in another order (a BLAS gemv or gemm) can land a bit apart;
    # integer weights in tenths also make exact and near ties common
    rng = np.random.default_rng(20161010)
    for dim in range(1, 7):
        for _ in range(25):
            pts = ExplicitPoints(points=rng.integers(0, 11, size=(rng.integers(1, 13), dim)) / 10)
            weights = np.vstack([rng.integers(-10, 11, size=(32, dim)) / 10,
                                 rng.normal(size=(32, dim))])
            scores, picks = pts.scores(weights), pts.linear_argmin(weights)
            points = pts.points.tolist()
            for k, w in enumerate(weights.tolist()):
                expected = [fixed_order_score(w, p) for p in points]
                first_min = min(range(len(points)), key=expected.__getitem__)
                assert bits(scores[k]) == bits(pts.scores(weights[k])) == bits(expected)
                assert bits(picks[k]) == bits(pts.linear_argmin(weights[k])) \
                    == bits(points[first_min])


def _tenths_points(count):
    return ExplicitPoints(points=np.random.default_rng(count).integers(0, 4, size=(count, 3)) / 10)


@pytest.mark.parametrize("ds,unrolled", [
    (GridProduct(values=((-1.0, 0.0, 2.5), (-0.0, 3.0), (0.5,))), True),
    (_tenths_points(8), True),      # scored in the step loop's own lines
    (_tenths_points(100), False),   # 300 score terms: the lines call linear_argmin
], ids=["grid", "8x3-points", "100x3-points"])
def test_decision_set_forms_give_the_linear_argmin_bits(ds, unrolled):
    # z in tenths makes exact score ties common; signed zeros test the grid's
    # sign rule
    rng = np.random.default_rng(20161010)
    zs = np.vstack([rng.integers(-3, 4, size=(200, 3)) / 10, rng.normal(size=(50, 3)),
                    [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.1, 0.1, 0.1]]])
    expected = [bits(ds.linear_argmin(z)) for z in zs]
    # the step loop's lines, run as the loop runs them: the prelude once
    xs, names = ["x0", "x1", "x2"], ["z0", "z1", "z2"]
    prelude, lines = ds.linear_argmin_lines(xs, names)
    assert ("pick_x(" not in "\n".join(lines)) == unrolled
    scope = {"decision_set": ds}
    exec(compile("\n".join(prelude), "<prelude>", "exec"), scope)
    code = compile("\n".join(lines), "<lines>", "exec")
    for z, want in zip(zs.tolist(), expected):
        scope.update(zip(names, z))
        exec(code, scope)
        assert bits([scope[x] for x in xs]) == want, z
    # the columns on broadcast shapes, entry by entry
    z_cols = [zs[-7:, 0].reshape(7, 1, 1), zs[7:12, 1].reshape(1, 5, 1),
              zs[12:16, 2].reshape(1, 1, 4)]
    cols = ds.linear_argmin_columns(z_cols)
    if isinstance(ds, GridProduct):
        assert [c.shape for c in cols] == [z.shape for z in z_cols]
    cols = np.stack(np.broadcast_arrays(*cols), axis=-1)
    for idx in np.ndindex(7, 5, 4):
        z = [float(zc[tuple(min(k, n - 1) for k, n in zip(idx, zc.shape))]) for zc in z_cols]
        assert bits(cols[idx]) == bits(ds.linear_argmin(z)), z


def test_explicit_points_validation_and_ordering():
    with pytest.raises(ValueError):
        ExplicitPoints(points=np.zeros((0, 2)))
    pts = ExplicitPoints(points=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.5]])
    np.testing.assert_array_equal(pts.points[0], [0.0, 0.5])
    np.testing.assert_array_equal(pts.points[-1], [1.0, 0.0])


def test_box_validation():
    with pytest.raises(ValueError):
        ExtendedBox(lower=(1.0,), upper=(0.0,))
    with pytest.raises(ValueError):
        ExtendedBox(lower=(0.0, 0.0), upper=(1.0,))


def test_spec_requires_decision_set_in_box():
    grid = GridProduct(values=((0.0, 5.0),))
    with pytest.raises(ValueError):
        ProblemSpec(decision_set=grid,
                    box=ExtendedBox(lower=(0.0,), upper=(3.0,)),
                    objective=SeparableConvexObjective(pieces=(LinearPiece(1.0),)))


def test_constraint_validation():
    with pytest.raises(ValueError):
        AffineConstraint(coeffs=(0.0, 0.0), offset=1.0)
    with pytest.raises(ValueError):
        AffineConstraint(coeffs=(np.inf, 1.0), offset=0.0)


def test_spec_dimension_mismatches():
    grid = GridProduct(values=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        ProblemSpec(decision_set=grid, box=tight_box(grid),
                    objective=SeparableConvexObjective(pieces=(LinearPiece(1.0),)))
    with pytest.raises(ValueError):
        ProblemSpec(decision_set=grid, box=tight_box(grid),
                    objective=SeparableConvexObjective(
                        pieces=(LinearPiece(1.0), LinearPiece(1.0))),
                    constraints=(AffineConstraint(coeffs=(1.0,), offset=0.0),))
