import dataclasses
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from tavopt import (
    AffineConstraint,
    BoundSet,
    EstimationError,
    ExplicitPoints,
    ExtendedBox,
    GridProduct,
    InfeasibilityError,
    LinearPiece,
    MultiplierEstimate,
    PiecewiseLinearPiece,
    ProblemSpec,
    QuadraticPiece,
    SeparableConvexObjective,
    SolverConfig,
    convergence_bounds,
    drift_certificate,
    dual_function,
    dual_function_batch,
    dual_subgradient,
    error_series,
    estimate_multiplier,
    estimate_sharpness,
    fit_loglog_slope,
    iterations_to_accuracy,
    lipschitz_bound,
    optimality_error,
    phase_detect,
    run,
    run_cli,
    serialize_problem_config,
    solve_exact,
    solve_reference,
    squared_norm_bound,
    staggered_average,
    tight_box,
)
import tavopt.analysis
from tavopt.analysis import _project_dual, sample_multipliers
from tavopt.config import parse_problem_config
from tavopt.problem import EPS_C

from conftest import (GRID_PROBLEM, INSTANCE_NAMES, MAIN_HORIZON, MAIN_V, POINTS_PROBLEM_SEED_1,
                      bits, build_instance, generated_runs)

POLY_OPT = 1.25
SMOOTH_OPT = 0.5


# ---------------------------------------------------------------------------
# Dual function and subgradient
# ---------------------------------------------------------------------------

def test_dual_at_zero_is_box_minimum():
    smooth = build_instance("smooth")
    value, _, y_star = dual_function(smooth, np.zeros(2), np.zeros(2))
    assert value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(y_star, [0.0, 0.0], atol=1e-15)


def test_dual_rejects_multipliers_of_the_wrong_shape():
    spec = build_instance("polyhedral")
    with pytest.raises(ValueError, match=r"\(w, z\) have shapes \(3,\), \(2,\), expected"):
        dual_function(spec, np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="multipliers have width 3, expected 4"):
        dual_function_batch(spec, np.zeros((5, 3)))


def test_dual_rejects_negative_w():
    with pytest.raises(ValueError):
        dual_function(build_instance("polyhedral"), np.array([-0.1, 0.0]), np.zeros(2))


@pytest.mark.parametrize("name,f_opt", [("polyhedral", POLY_OPT), ("smooth", SMOOTH_OPT)])
def test_weak_duality_over_probes(name, f_opt, oracle_values):
    spec = build_instance(name)
    lam = sample_multipliers(spec, scale=2.0, count=100, seed=13)
    d, _, _ = dual_function_batch(spec, lam)
    assert np.all(d <= oracle_values[name] + 1e-6)
    assert np.all(d <= f_opt + 1e-6)


@pytest.mark.parametrize("name", ["polyhedral", "smooth-extra"])
def test_dual_concavity_subgradient_inequality(name):
    spec = build_instance(name)
    A, b = spec.constraint_matrix()
    lam1 = sample_multipliers(spec, scale=1.5, count=1000, seed=21)
    lam2 = sample_multipliers(spec, scale=1.5, count=1000, seed=22)
    d1, _, _ = dual_function_batch(spec, lam1)
    d2, x2, y2 = dual_function_batch(spec, lam2)
    subgrad = np.hstack([y2 @ A.T + b, x2 - y2])
    rhs = d2 + np.sum(subgrad * (lam1 - lam2), axis=1)
    assert np.all(d1 <= rhs + 1e-9)


def _pwl_instance():
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0)))
    pieces = (PiecewiseLinearPiece(breakpoints=(1.0, 2.0), slopes=(-2.0, 0.5, 3.0)),
              QuadraticPiece(1.0, -1.0))
    return ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=pieces),
        constraints=(AffineConstraint(coeffs=(-1.0, -1.0), offset=1.0),))


def _points_instance():
    # non-dyadic coordinates, so scores summed in another order round apart
    pts = ExplicitPoints(points=[[0.1, 0.7, 0.3], [0.3, 0.1, 0.7], [0.7, 0.3, 0.1],
                                 [0.3, 0.3, 0.3], [0.1, 0.1, 0.9], [0.7, 0.7, 0.0]])
    pieces = (PiecewiseLinearPiece(breakpoints=(0.2, 0.6), slopes=(-1.5, 0.1, 2.0)),
              QuadraticPiece(1.0, -0.7), LinearPiece(0.3))
    return ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=pieces),
        constraints=(AffineConstraint(coeffs=(-1.0, -0.7, -0.1), offset=0.9),))


SPEC_MAKERS = [lambda: build_instance("smooth-extra"), _pwl_instance, _points_instance]


@pytest.mark.parametrize("spec_maker", SPEC_MAKERS)
def test_batch_dual_matches_scalar(spec_maker):
    spec = spec_maker()
    lam = sample_multipliers(spec, scale=1.0, count=50, seed=5)
    d_batch, x_batch, y_batch = dual_function_batch(spec, lam)
    J = spec.constraint_count
    for k in range(50):
        d, x, y = dual_function(spec, lam[k, :J], lam[k, J:])
        assert d_batch[k] == d
        np.testing.assert_array_equal(x_batch[k], x)
        np.testing.assert_array_equal(y_batch[k], y)


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_batch_dual_equals_recorded_d(name, main_traces):
    trace, _ = main_traces[name]
    # the step loop's x and y are the batch dual's minimizers, bit for bit
    d, x, y = dual_function_batch(trace.spec, trace.lambda_path[:-1])
    assert bits(d) == bits(trace.d)
    assert bits(x) == bits(trace.x) and bits(y) == bits(trace.y)


@settings(max_examples=100, deadline=None)
@given(case=generated_runs())
def test_batch_dual_equals_recorded_d_on_generated_specs(case):
    spec, cfg = case
    trace = run(spec, cfg)
    d, x, y = dual_function_batch(spec, trace.lambda_path[:-1])
    assert bits(d) == bits(trace.d)
    assert bits(x) == bits(trace.x) and bits(y) == bits(trace.y)


@pytest.mark.parametrize("spec_maker", SPEC_MAKERS)
def test_batch_of_a_concatenation_is_the_concatenation(spec_maker):
    spec = spec_maker()
    lam = sample_multipliers(spec, scale=1.0, count=301, seed=8)
    whole = dual_function_batch(spec, lam)
    parts = [dual_function_batch(spec, block) for block in np.split(lam, [1, 100, 250])]
    for k in range(3):
        assert bits(whole[k]) == bits(np.concatenate([p[k] for p in parts]))


def test_batch_x_on_explicit_points_is_linear_argmin_of_each_row():
    # the batch scores every z row at once; each x row keeps the bits of
    # linear_argmin on that z alone; z in tenths, like the points, makes
    # exact and near score ties common
    spec = _points_instance()
    J = spec.constraint_count
    tenths = np.random.default_rng(9).integers(-3, 4, size=(200, J + spec.dimension)) / 10
    lam = np.vstack([sample_multipliers(spec, scale=1.0, count=200, seed=9),
                     _project_dual(tenths, J)])
    _, x, _ = dual_function_batch(spec, lam)
    for k in range(len(lam)):
        assert bits(x[k]) == bits(spec.decision_set.linear_argmin(lam[k, J:]))


def test_the_subgradient_has_the_dual_formulas_g():
    # dual_subgradient takes g at one point, the dual formula on the
    # columns of a batch: both are the constraint map's one sum, so g has
    # the bits the dual's value is summed with.  A one-point matrix product
    # and that sum differ in most of these draws
    rng = np.random.default_rng(35)
    for _ in range(300):
        I, J = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        grid = GridProduct(values=tuple(tuple(np.unique(rng.uniform(-2.0, 2.0, 3)))
                                        for _ in range(I)))
        spec = ProblemSpec(
            decision_set=grid, box=tight_box(grid),
            objective=SeparableConvexObjective(pieces=[
                QuadraticPiece(float(rng.uniform(0.1, 2.0)), float(rng.uniform(-1.0, 1.0)))
                for _ in range(I)]),
            constraints=[AffineConstraint(coeffs=rng.uniform(-2.0, 2.0, I),
                                          offset=float(rng.uniform(-1.0, 1.0))) for _ in range(J)])
        w, z = rng.uniform(0.0, 2.0, J), rng.standard_normal(I)
        d, x, y = dual_function(spec, w, z)
        sub = dual_subgradient(spec, w, z)
        g = sub[:J]
        # the multiplier as the last row of a batch
        lam = np.vstack([sample_multipliers(spec, 1.0, 5, seed=1), np.concatenate([w, z])])
        _, _, y_batch = dual_function_batch(spec, lam)
        assert bits(g) == bits(spec.constraint_values(y_batch)[-1])
        np.testing.assert_array_equal(sub[J:], x - y)
        # d = 0.0 + sum value_i(y_i) + sum w_j*g_j + sum z_i*(x_i - y_i)
        total = 0.0
        for piece, yi in zip(spec.objective.pieces, y):
            total += float(piece.values(np.array([yi]))[0])
        for wj, gj in zip(w.tolist(), g.tolist()):
            total += wj * gj
        for zi, xi, yi in zip(z.tolist(), x.tolist(), y.tolist()):
            total += zi * (xi - yi)
        assert total == d


def test_zero_problem_subgradient_is_zero():
    grid = GridProduct(values=((0.0,), (0.0,)))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(LinearPiece(0.0), LinearPiece(0.0))))
    sub = dual_subgradient(spec, np.zeros(0), np.zeros(2))
    np.testing.assert_array_equal(sub, np.zeros(2))


def test_subgradient_vanishes_at_estimated_maximizer():
    # the box minimum sits at a decision point, so the selected minimizers
    # coincide at the dual maximizer and the subgradient is exactly zero
    grid = GridProduct(values=((0.0, 1.0), (0.0, 1.0)))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(
            pieces=(QuadraticPiece(1.0, 1.0), QuadraticPiece(1.0, 1.0))))
    est = estimate_multiplier(spec)
    sub = dual_subgradient(spec, est.lam[:spec.constraint_count], est.lam[spec.constraint_count:])
    assert np.linalg.norm(sub) <= max(1e-9, 2.0 * est.residual)


# ---------------------------------------------------------------------------
# Multiplier estimation
# ---------------------------------------------------------------------------

def test_grid_estimate_reaches_linear_optimum(main_estimates):
    est = main_estimates["polyhedral"]
    assert est.residual <= 1e-3
    assert abs(est.d_value - POLY_OPT) <= 1e-3
    # (w1, w2, z1, z2), the two constraints' multipliers first
    np.testing.assert_allclose(est.lam, [2.0 / 3.0, 1.0 / 6.0, 0.0, 0.0], atol=2e-3)


def test_grid_estimate_reaches_quadratic_optimum(main_estimates):
    est = main_estimates["smooth"]
    assert abs(est.d_value - SMOOTH_OPT) <= 1e-3
    # (w1, w2, z1, z2), the two constraints' multipliers first
    np.testing.assert_allclose(est.lam[:2], [1.0 / 3.0, 1.0 / 3.0], atol=2e-3)


def test_nonbinding_constraint_gets_zero_multiplier():
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0)))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(
            pieces=(QuadraticPiece(1.0, 0.0), QuadraticPiece(1.0, 0.0))),
        constraints=(AffineConstraint(coeffs=(1.0, 0.0), offset=-10.0),))
    est = estimate_multiplier(spec)
    assert np.max(est.lam[:spec.constraint_count]) <= 1e-3


def _set_dim(spec, est=None) -> int:
    """The number of directions in which the local model's maximizer set
    leaves the estimate (0 when it is the only maximizer)."""
    return len(estimate_sharpness(spec, estimate_multiplier(spec) if est is None else est)
               .directions)


def test_nonuniqueness_flags(main_estimates):
    dims = {name: _set_dim(build_instance(name), est) for name, est in main_estimates.items()}
    assert dims == {"polyhedral": 0, "smooth": 0, "polyhedral-extra": 1, "smooth-extra": 1}


def test_a_quadratic_vertex_at_a_box_end_reads_as_a_direction():
    # a known conservative answer: on the grid {-1, 0, 1} with f = y^2 + 2y,
    # z* = 0 is the only maximizer, as d falls by 2|z| for z < 0 and z^2/4
    # for z > 0, but y* = -1 is the vertex and a box end, so the model
    # leaves that piece out and reads a direction along +z.  A model that
    # counts the one-sided curvature changes this test on purpose.  The
    # model is built at z = 0 itself: the exact solve stops about 7e-7 from
    # it, where x is no longer tied
    grid = GridProduct(values=((-1.0, 0.0, 1.0),))
    spec = ProblemSpec(decision_set=grid, box=tight_box(grid),
                       objective=SeparableConvexObjective(pieces=(QuadraticPiece(1.0, 2.0),)))
    d_star = dual_function(spec, [], [0.0])[0]
    assert d_star == -1.0
    for z in (-1e-3, 1e-3):
        assert dual_function(spec, [], [z])[0] < d_star
    est = MultiplierEstimate(lam=np.zeros(1), residual=0.0, d_value=d_star, f_opt=d_star)
    np.testing.assert_array_equal(estimate_sharpness(spec, est).directions, [[1.0]])


def _with_constraints(spec, constraints):
    return ProblemSpec(decision_set=spec.decision_set, box=spec.box, objective=spec.objective,
                       constraints=tuple(constraints))


def test_a_duplicated_active_constraint_makes_the_multiplier_nonunique():
    # figure 2's first constraint, active at x* = (0.5, 0.5), twice: its
    # multiplier 2/3 splits between the copies in any proportion
    spec = build_instance("polyhedral")
    twice = _with_constraints(spec, (spec.constraints[0], *spec.constraints))
    assert _set_dim(spec) == 0
    assert _set_dim(twice) == 1


@pytest.mark.parametrize("name", ["polyhedral", "polyhedral-extra"])
def test_scaling_a_constraint_keeps_the_flag_and_halves_its_multiplier(name, main_estimates):
    spec = build_instance(name)
    first = spec.constraints[0]
    doubled = AffineConstraint(coeffs=2.0 * first.coeffs, offset=2.0 * first.offset)
    scaled = _with_constraints(spec, (doubled, *spec.constraints[1:]))
    est = estimate_multiplier(scaled)
    dim = _set_dim(scaled, est)
    assert dim == _set_dim(spec, main_estimates[name]) == (name == "polyhedral-extra")
    if dim == 0:
        assert est.lam[0] == pytest.approx(main_estimates[name].lam[0] / 2.0, rel=1e-12)


def test_a_fixed_coordinate_makes_the_multiplier_nonunique():
    # x_2 takes the one value 1 and its box is [1, 1]: x_2 - y_2 is 0 at
    # every choice, so the dual does not depend on z_2
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0), (1.0,)))
    spec = ProblemSpec(decision_set=grid, box=tight_box(grid),
                       objective=SeparableConvexObjective(pieces=(LinearPiece(1.5),
                                                                  LinearPiece(1.0))),
                       constraints=(AffineConstraint(coeffs=(-2.0, -1.0), offset=1.5),))
    assert spec.box.lower[1] == spec.box.upper[1]
    assert _set_dim(spec) == 1


def test_an_active_dropped_constraint_makes_the_multiplier_nonunique():
    # min x1 + x2 on the hull [0, 3]^2 inside the box [-1, 4]^2: x* = (0, 0)
    # and lam* = (z1, z2) = (1, 1) is unique; x1 >= 0 holds on the whole
    # hull, so the solve drops it, but it is active at x*, and every
    # w in [0, 1] with z = (1 - w, 1) maximizes the dual
    grid = GridProduct(values=((0.0, 3.0), (0.0, 3.0)))
    spec = ProblemSpec(decision_set=grid, box=ExtendedBox((-1.0, -1.0), (4.0, 4.0)),
                       objective=SeparableConvexObjective(pieces=(LinearPiece(1.0),
                                                                  LinearPiece(1.0))))
    assert _set_dim(spec) == 0
    bounded = _with_constraints(spec, (AffineConstraint(coeffs=(-1.0, 0.0), offset=0.0),))
    est = estimate_multiplier(bounded)
    assert _set_dim(bounded, est) == 1
    for w in (0.0, 0.5, 1.0):
        assert dual_function(bounded, [w], [1.0 - w, 1.0])[0] == pytest.approx(est.f_opt, abs=1e-12)


def test_the_diagnose_grid_seeds_share_one_flag(bench_problem):
    # the benchmark's 15 diagnose-grid seeds relabel the axes and
    # constraints of one problem, whose multiplier is unique
    dims = {seed: _set_dim(bench_problem("diagnose-grid", seed))
            for seed in (1, 2, 6, 7, 11, *range(1301, 1306), *range(1801, 1806))}
    assert set(dims.values()) == {0}, dims


def _assert_d_value_is_the_dual_at_the_estimate(spec, est):
    assert type(est.residual) is float and type(est.d_value) is float
    w, z = est.lam[:spec.constraint_count], est.lam[spec.constraint_count:]
    assert bits(est.d_value) == bits(dual_function(spec, w, z)[0])


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_grid_estimate_d_value_is_the_dual_at_the_estimate(name, main_estimates):
    _assert_d_value_is_the_dual_at_the_estimate(build_instance(name), main_estimates[name])


def _assert_the_model_is_the_dual_near_lam(spec, est, model, t=1e-5):
    """g(s) = d* - d(lam* + s u) - (s support(-u) + s^2/2 u.H.u) at s = t
    and 2t, along 64 random unit u that keep w >= 0 and reach no kink of d
    from s = t/10^6 on: each minimizer of the dual stays put there, and a
    quadratic y stays inside its box, or at the end, where it is at lam*.
    A quadratic y counts as at an end within the model's tolerance,
    1e-9 max(1, |c_i|) with c = A^T w* - z*, as the model leaves out its
    curvature there.  Ties taken to within the tie tolerance leave g a constant of at most
    1e-8.  For g(2t) = g(t) to within 1e-13 the steps are the exact
    differences lam* + s u - lam* of the points d is taken at, and d is the
    Lagrangian at d's minimizers in exact arithmetic: the roundings of a
    float d grow with |lam*| (about 1.5e-13 at lam* = (128, 0, 128)), and
    the model's second-order term is the dual's to within 1e-13 / (1.5 t^2)."""
    I, J = spec.dimension, spec.constraint_count
    lo, hi = spec.box.lower, spec.box.upper
    u = np.random.default_rng(0).standard_normal((64, len(est.lam)))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u = u[np.all(est.lam[:J] + 2.0 * t * u[:, :J] >= 0.0, axis=1)]
    quadratic = np.array([isinstance(p, QuadraticPiece) and p.curvature > 0.0
                          for p in spec.objective.pieces])
    tol = 1e-9 * np.maximum(1.0, np.abs(est.lam[:J] @ spec.constraint_matrix()[0] - est.lam[J:]))
    runs, branches = [], []
    for s in (0.0, 1e-6 * t, t, 2.0 * t):
        lam = est.lam + s * u
        d, x, y = dual_function_batch(spec, lam)
        runs.append((lam, d, x, y))
        ends = (y - lo <= tol) * 1.0 - (hi - y <= tol)
        branches.append(np.hstack([x, np.where(quadratic, ends, y)]))
    same = (np.all(branches[1] == branches[2], axis=1) & np.all(branches[2] == branches[3], axis=1)
            & np.all((branches[0] == branches[1])[:, I:][:, quadratic], axis=1))
    u = u[same]
    first, second = model.support(-u), np.einsum("ij,jk,ik->i", u, model.hessian, u)
    gaps = np.array([est.d_value - d[same] - (s * first + 0.5 * s * s * second)
                     for s, (_, d, _, _) in ((t, runs[2]), (2.0 * t, runs[3]))])
    scale = 1.0 + abs(est.d_value)
    assert np.all(np.abs(gaps) <= 1e-8 * scale)
    # d* cancels in g(2t) - g(t)
    exact = []
    for lam, _, x, y in runs[2:]:
        steps = lam[same] - est.lam
        terms = model.support(-steps) + 0.5 * np.einsum("ij,jk,ik->i", steps, model.hessian, steps)
        exact.append([-_exact_lagrangian(spec, *row) - Fraction(term)
                      for *row, term in zip(lam[same], x[same], y[same], terms)])
    assert all(abs(float(g2 - g1)) <= 1e-13 * scale for g1, g2 in zip(*exact))


def _exact_lagrangian(spec, lam, x, y):
    """f(y) + w . (A y + b) + z . (x - y) in exact arithmetic.  A piecewise
    linear piece's f is its float value, at a y the caller holds fixed."""
    J = spec.constraint_count
    y = [Fraction(v) for v in y]
    f = sum(Fraction(p.curvature) * v * v + Fraction(p.slope) * v if isinstance(p, QuadraticPiece)
            else Fraction(float(p.values(np.array([float(v)]))[0]))
            for p, v in zip(spec.objective.pieces, y))
    g = sum(Fraction(w) * (sum(Fraction(a) * v for a, v in zip(c.coeffs, y)) + Fraction(c.offset))
            for w, c in zip(lam[:J], spec.constraints))
    return f + g + sum(Fraction(z) * (Fraction(a) - v) for z, a, v in zip(lam[J:], x, y))


# The smallest decay per unit distance that the deleted probed search read
# at distance 0.1 (256 random rays and four pattern searches), at 188e6e7.
# The model's polyhedral rate is exact where the probe only bounded it from
# above, and the probe's rate over 0.1 bounds the smooth rate, whose decay
# it read at that distance; where the probe read 0 the model has no rate.
PROBED_RATES = {"polyhedral": 0.40275004452611673, "smooth": 0.025000000030602213,
                "polyhedral-extra": -2.220446049250313e-15, "smooth-extra": 0.0}


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_model_rates_are_at_most_the_probed_rates_on_the_demos(name, main_estimates):
    spec, est, probed = build_instance(name), main_estimates[name], PROBED_RATES[name]
    model = estimate_sharpness(spec, est)
    assert (model.polyhedral is None) == (name != "polyhedral")
    assert (model.smooth is None) == (name != "smooth")
    assert model.polyhedral is None or model.polyhedral <= probed
    assert model.smooth is None or model.smooth <= probed / 0.1
    assert len(model.directions) == name.endswith("-extra")
    _assert_the_model_is_the_dual_near_lam(spec, est, model)


@pytest.mark.parametrize("problem,smooth,probed,distance", [
    (GRID_PROBLEM, 0.21358022145446837, 0.021426523605487795, 0.1),
    (POINTS_PROBLEM_SEED_1, 0.30654603512506673, 0.007688798725966522, 0.025)],
    ids=["grid", "points"])
def test_the_local_model_on_3d_problems(problem, smooth, probed, distance):
    # smooth rates only: the edges span 4 of the grid's 6 dual dimensions,
    # and on the points one segment, the three tied points and the ray of
    # w2 = 0 span 4 of 5.  There the probe's smallest decay was a probe that
    # w >= 0 cut to 0.025 from lam*, which the deleted search still divided
    # by 0.1: its second-order rate is the probed rate over 0.025
    spec = parse_problem_config(problem)
    est = estimate_multiplier(spec)
    model = estimate_sharpness(spec, est)
    assert model.polyhedral is None and len(model.directions) == 0
    assert model.smooth == pytest.approx(smooth, rel=1e-9)
    assert model.smooth <= probed / distance
    _assert_the_model_is_the_dual_near_lam(spec, est, model)


@settings(max_examples=60, deadline=None)
@given(case=generated_runs())
@example(case=(ProblemSpec(
    # lam* = (128, -4.8e-13, 128): a float d rounds by up to 1.5e-13 between
    # the steps, which the exact Lagrangian does not
    decision_set=GridProduct(values=((-1.0, 0.0), (0.0, 3.0))),
    box=ExtendedBox(np.array([-1.0, 0.0]), np.array([0.0, 3.0])),
    objective=SeparableConvexObjective(pieces=(LinearPiece(-1.0), LinearPiece(0.0))),
    constraints=(AffineConstraint(coeffs=(0.0078125, 1.0), offset=0.001953125),)),
    SolverConfig(v=1.0, horizon=1)))
@example(case=(ProblemSpec(
    # lam* = (8.1e4, 2.3e-14, 1.1e5)
    decision_set=GridProduct(values=((-0.5, 1.15625), (0.0, 2.6311934766412435))),
    box=ExtendedBox(np.array([-0.5, 0.0]), np.array([1.15625, 2.6311934766412435])),
    objective=SeparableConvexObjective(pieces=(LinearPiece(-0.8138760987910718),
                                               LinearPiece(0.873444773574815))),
    constraints=(AffineConstraint(coeffs=(1e-05, 1.30223086), offset=1e-11),)),
    SolverConfig(v=1.0, horizon=1)))
@example(case=(ProblemSpec(
    # y*_1 = -6.3e-15 is 1e-9 below its box end, within the model's
    # tolerance 2e-9 there: along -z_1 it leaves the end, and d curves
    decision_set=ExplicitPoints(points=((-1.0, 2.0), (0.0, 0.0))),
    box=ExtendedBox(np.array([-1.0, 0.0]), np.array([1e-9, 2.0])),
    objective=SeparableConvexObjective(pieces=(QuadraticPiece(1.0, 2.0), LinearPiece(2.0)))),
    SolverConfig(v=1.0, horizon=1)))
def test_the_local_model_matches_the_dual_on_generated_specs(case):
    spec, _ = case
    try:
        est = estimate_multiplier(spec)
    except (InfeasibilityError, EstimationError):
        return
    model = estimate_sharpness(spec, est)
    assert model.polyhedral is None or model.polyhedral > 0.0
    assert model.smooth is None or model.smooth > 0.0
    _assert_the_model_is_the_dual_near_lam(spec, est, model)


def test_hand_worked_local_models(main_estimates):
    # figure 2: z* = 0 ties both x_i on [0, 3] and c = -(1.5, 1) ties both
    # linear y_i on [0, 3], so the superdifferential is the parallelepiped
    # {(A y + b, x - y)} over x, y in [0, 3]^2 with volume 243, and 0 sits at
    # x = y = (1/2, 1/2), a sixth along each edge.  Its nearest facets are
    # those across an x edge, whose height is 243 over the 3-volume
    # sqrt(10206) of the other three edges
    model = estimate_sharpness(build_instance("polyhedral"), main_estimates["polyhedral"])
    assert model.polyhedral == pytest.approx(40.5 / math.sqrt(10206.0), rel=1e-12)
    # figure 3: the x ties span the z axes, and on w the hessian is
    # sum_i A[:, i] A[:, i]^T / 2 = [[2.5, 2], [2, 2.5]], least eigenvalue 1/2
    model = estimate_sharpness(build_instance("smooth"), main_estimates["smooth"])
    assert model.smooth == pytest.approx(0.25, rel=1e-12)
    # figure 5: the multipliers w1 = w2 = (1 - w3) / 3, z = 0 all maximize
    model = estimate_sharpness(build_instance("smooth-extra"), main_estimates["smooth-extra"])
    (direction,) = model.directions
    np.testing.assert_allclose(direction / direction[0], [1.0, 1.0, -3.0, 0.0, 0.0], atol=1e-9)


def test_relabelled_copies_of_one_problem_share_their_rates(bench_problem):
    # the 15 diagnose-grid seeds permute the axes and the constraints of one
    # problem: the model takes no rays, so its rates and radii agree
    models = [estimate_sharpness(spec, estimate_multiplier(spec))
              for spec in (bench_problem("diagnose-grid", seed) for seed in range(1, 16))]
    first = models[0]
    for model in models:
        assert model.polyhedral is None and len(model.directions) == 0
        assert model.smooth == pytest.approx(first.smooth, rel=1e-12, abs=0.0)
        radius = BoundSet(m=1.0, c=1.0, v=MAIN_V, l_smooth=model.smooth).radius("smooth")
        assert radius == pytest.approx(BoundSet(m=1.0, c=1.0, v=MAIN_V, l_smooth=first.smooth)
                                       .radius("smooth"), rel=1e-12, abs=0.0)


def test_the_model_directions_on_the_solve_trace_seeds(bench_problem):
    # seed 11's dual is flat at lam* along one direction; seeds 1 and 7
    # each have a w*_j = 0, whose ray must not read as a direction, and at
    # seed 28 z* = 0 ties all eight points
    dims = {seed: _set_dim(bench_problem("solve-trace", seed)) for seed in (1, 7, 11, 28)}
    assert dims == {1: 0, 7: 0, 11: 1, 28: 0}


def _many_tied_points():
    # the cube's corners and 16 points inside; f = sum (y - 1.5)^2 puts x*
    # at the cube's centre, so z* = 0 ties all 24 points, and both
    # constraints are slack (two rays w_j >= 0)
    corners = [[a, b, c] for a in (0.0, 3.0) for b in (0.0, 3.0) for c in (0.0, 3.0)]
    inside = np.round(np.random.default_rng(0).uniform(0.25, 2.75, (16, 3)), 2)
    pts = ExplicitPoints(points=np.vstack([corners, inside]))
    return ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(QuadraticPiece(1.0, -3.0),) * 3),
        constraints=(AffineConstraint(coeffs=(-1.0, -1.0, -1.0), offset=-1.0),
                     AffineConstraint(coeffs=(1.0, -1.0, 0.5), offset=-9.0)))


def _linear_grid_12d():
    # figure 2's form in 12-D: slopes -1 and sum x <= 18 with w* = 1 tie
    # every y_i and, at z* = 0, every x_i on [0, 3]
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0),) * 12)
    return ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(LinearPiece(-1.0),) * 12),
        constraints=(AffineConstraint(coeffs=(1.0,) * 12, offset=-18.0),))


@pytest.mark.parametrize("spec_maker,ties", [(_many_tied_points, (24, 0)),
                                             (_linear_grid_12d, (1, 24))],
                         ids=["24-points", "12d-grid"])
def test_a_model_with_too_many_facets_to_count_reports_no_rate(spec_maker, ties):
    # C(edges, rank - 1) candidate facets: about 2.4e8 four-edge subsets of
    # the 24 points' 276 pairwise differences and two rays, and
    # C(24, 12) = 2.7e6 on the grid, each worth gigabytes at once.  Past
    # _FACET_WORK the model takes no rate, within a bounded time and memory
    spec = spec_maker()
    est = estimate_multiplier(spec)
    model = _bounded_model(spec, est)
    assert (len(model.tied_points), len(model.generators)) == ties
    assert model.polyhedral is None and model.smooth is None
    _assert_the_model_is_the_dual_near_lam(spec, est, model)


def test_a_thousand_tied_points_keep_the_model_bounded():
    # no constraints and f = sum (y - 1.5)^2 over the cube's corners and 992
    # points inside: z* = 0 ties all 1000, whose 499500 pairwise differences
    # the model neither builds nor decomposes.  The points span the dual
    # space, so no direction leaves lam*
    corners = [[a, b, c] for a in (0.0, 3.0) for b in (0.0, 3.0) for c in (0.0, 3.0)]
    inside = np.random.default_rng(1).uniform(0.0, 3.0, (992, 3))
    pts = ExplicitPoints(points=np.vstack([corners, inside]))
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts), constraints=(),
        objective=SeparableConvexObjective(pieces=(QuadraticPiece(1.0, -3.0),) * 3))
    d_star, _, _ = dual_function(spec, np.zeros(0), np.zeros(3))
    est = MultiplierEstimate(lam=np.zeros(3), residual=0.0, d_value=d_star, f_opt=d_star)
    model = _bounded_model(spec, est)
    assert len(model.tied_points) == 1000 and len(model.directions) == 0
    assert model.polyhedral is None and model.smooth is None
    _assert_the_model_is_the_dual_near_lam(spec, est, model)


def _bounded_model(spec, est):
    """estimate_sharpness(spec, est), checked to take under 5 s and 20 MB."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        model = estimate_sharpness(spec, est)
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5.0 and peak < 20e6
    return model


def test_estimate_sharpness_makes_one_dual_evaluation(main_estimates, monkeypatch):
    rows = []

    def counted(spec, lam):
        rows.append(len(lam))
        return batch(spec, lam)

    batch = tavopt.analysis.dual_function_batch
    monkeypatch.setattr(tavopt.analysis, "dual_function_batch", counted)
    estimate_sharpness(build_instance("smooth"), main_estimates["smooth"])
    assert rows == [1]


def test_estimation_failure_raises(monkeypatch):
    # an optimum 0.1 above the dual's maximum leaves a residual of 0.1, and
    # one 0.1 below it breaks weak duality
    spec = build_instance("polyhedral")
    exact = solve_exact(spec)
    for shift, match in ((0.1, "residual"), (-0.1, "weak duality")):
        shifted = dataclasses.replace(exact, f_opt=exact.f_opt + shift)
        monkeypatch.setattr(tavopt.analysis, "solve_exact", lambda spec: shifted)
        with pytest.raises(EstimationError, match=match):
            estimate_multiplier(spec)


@pytest.mark.parametrize("name,lam", [("polyhedral", [2.0 / 3.0, 1.0 / 6.0, 0.0, 0.0]),
                                      ("smooth", [1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0])],
                         ids=["figure2", "figure3"])
def test_exact_multipliers_of_figures_2_and_3(name, lam):
    # the multipliers of figures 2 and 3, worked by hand: x* = (0.5, 0.5)
    # lies inside the hull, so z* = 0, and w* solves the gradient equation
    exact = solve_exact(build_instance(name))
    np.testing.assert_allclose(exact.lam, lam, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(exact.argmin, [0.5, 0.5], rtol=0.0, atol=1e-8)


def test_unknown_method_rejected(tmp_path):
    # the exact solve's multipliers are the one estimate: diagnose refuses
    # any other method, the tail average included
    problem = tmp_path / "problem.json"
    problem.write_text(serialize_problem_config(build_instance("polyhedral")))
    for method in ("tail-average", "newton"):
        assert run_cli(["diagnose", "--problem", str(problem), "--out", str(tmp_path / method),
                        "--method", method]) == 1
    with pytest.raises(TypeError):
        estimate_multiplier(build_instance("polyhedral"), "grid-dual-max")


def test_the_sharpness_search_takes_no_settings(main_estimates):
    # the model has no distance, ray count, seed or tolerance to set
    spec = build_instance("polyhedral")
    with pytest.raises(TypeError):
        estimate_multiplier(spec, seed=0)
    with pytest.raises(TypeError):
        estimate_sharpness(spec, main_estimates["polyhedral"], 0.1)


def test_grid_estimate_is_exact_on_the_diagnose_grid_problem():
    # the diagnose-grid problem of seed 7: the estimate's dual value is the
    # exact optimum
    est = estimate_multiplier(parse_problem_config(GRID_PROBLEM))
    assert est.d_value == pytest.approx(2.1227447, abs=1e-7)
    assert est.residual <= 1e-9


# ---------------------------------------------------------------------------
# Bound set
# ---------------------------------------------------------------------------

def test_bound_set_formulas():
    m, c, v = 2.0, 112.5, 100.0
    bounds = BoundSet(m=m, c=c, v=v, l_poly=0.5, l_smooth=0.25)
    assert bounds.step_bound == pytest.approx(math.sqrt(2 * c) / v, abs=0)
    assert bounds.b_poly == pytest.approx(max(0.5 / (2 * v), 2 * c / (v * 0.5)), abs=0)
    assert bounds.radius("polyhedral") == pytest.approx(bounds.b_poly + bounds.step_bound, abs=0)
    expected_bs = max(v ** -1.5,
                      (math.sqrt(v) + math.sqrt(v + 4 * 0.25 * c * v)) / (2 * 0.25 * v))
    assert bounds.b_smooth == pytest.approx(expected_bs, abs=0)
    assert bounds.radius("smooth") == pytest.approx(expected_bs + bounds.step_bound, abs=0)

    plain = BoundSet(m=m, c=c, v=v)
    assert plain.b_poly is None
    with pytest.raises(ValueError, match="no radius for smooth geometry"):
        plain.radius("smooth")


def test_bound_set_validation():
    with pytest.raises(ValueError):
        BoundSet(m=1.0, c=0.0, v=100.0)
    with pytest.raises(ValueError):
        BoundSet(m=1.0, c=1.0, v=0.5)
    with pytest.raises(ValueError):
        BoundSet(m=1.0, c=1.0, v=100.0, l_poly=0.0)
    with pytest.raises(ValueError, match="l_smooth must be positive"):
        BoundSet(m=1.0, c=1.0, v=100.0, l_smooth=0.0)


@pytest.mark.parametrize("v", [math.nan, math.inf])
def test_bound_set_refuses_a_v_that_is_not_finite(v):
    # v < 1.0 is false for both, so only the finiteness test catches them
    with pytest.raises(ValueError, match="v must be finite and >= 1"):
        BoundSet(m=1.0, c=1.0, v=v)


# ---------------------------------------------------------------------------
# Drift certificate
# ---------------------------------------------------------------------------

def test_drift_certificate_passes_on_reference_run(main_traces, main_estimates):
    trace, _ = main_traces["polyhedral"]
    est = main_estimates["polyhedral"]
    report = drift_certificate(trace, est.lam)
    assert report.passed
    assert report.max_slack <= report.tolerance


def test_drift_certificate_holds_for_arbitrary_probe(main_traces):
    trace, _ = main_traces["smooth"]
    rng = np.random.default_rng(17)
    for _ in range(3):
        probe = rng.standard_normal(4)
        probe[:2] = np.abs(probe[:2])
        report = drift_certificate(trace, probe)
        assert report.passed


def test_drift_certificate_degenerate_single_point():
    grid = GridProduct(values=((1.0,), (1.0,)))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(LinearPiece(0.0), LinearPiece(0.0))))
    v = 10.0
    trace = run(spec, SolverConfig(v=v, horizon=50))
    c = squared_norm_bound(spec)
    assert c == EPS_C
    report = drift_certificate(trace, np.zeros(2))
    # both sides agree up to exactly the 2C/V**2 allowance
    np.testing.assert_allclose(report.slack, -2.0 * c / v ** 2, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(case=generated_runs())
@example(case=(ProblemSpec(
    # g(0) = 1e-9: the oracle counts x = 0 feasible, and d(w) = 1e-9 w
    decision_set=ExplicitPoints(points=((0.0,),)), box=ExtendedBox((0.0,), (0.0,)),
    objective=SeparableConvexObjective(pieces=(LinearPiece(0.0),)),
    constraints=(AffineConstraint(coeffs=(1.0,), offset=1e-9),)),
    SolverConfig(v=1.0, horizon=1)))
def test_paper_inequalities_on_generated_specs(case):
    spec, cfg = case
    trace = run(spec, cfg)
    v, c, J = cfg.v, squared_norm_bound(spec), spec.constraint_count
    lam = trace.lambda_path
    assert np.all(lam[:, :J] >= 0.0)
    steps = np.linalg.norm(np.diff(lam, axis=0), axis=1)
    assert np.all(steps <= math.sqrt(2.0 * c) / v + 1e-9)
    # averaging identity: xbar - ybar == (V/T)(z(T) - z(0)) at every T
    T = trace.ts[:, None] + 1.0
    resid = (trace.xbar - trace.ybar) - v / T * (lam[1:, J:] - lam[0, J:])
    assert np.max(np.abs(resid)) <= 1e-9
    # constraint telescope: g(ybar) <= (V/T)(w(T) - w(0)) at every T, to the
    # rounding of the terms on both sides
    A, b = spec.constraint_matrix()
    g_ybar, rise = trace.ybar @ A.T + b, v / T * (lam[1:, :J] - lam[0, :J])
    scale = 1.0 + np.abs(b) + np.abs(trace.ybar) @ np.abs(A).T + v / T * (lam[1:, :J] + lam[0, :J])
    assert np.all(g_ybar <= rise + 1e-12 * T * scale)
    for probe in sample_multipliers(spec, 1.0, 4, seed=1):
        assert drift_certificate(trace, probe).passed
    # weak duality at the oracle's argmin x: d(lam) <= f(x) + w . g(x), the
    # Lagrangian at y = x, where g(x) may reach FEASIBILITY_TOL above 0
    try:
        ref = solve_reference(spec, 0.1)
    except (InfeasibilityError, ValueError):  # infeasible, or refused by the oracle
        return
    lams = np.vstack([lam, sample_multipliers(spec, 1.0, 16)])
    d, _, _ = dual_function_batch(spec, lams)
    bound = ref.f_opt + lams[:, :J] @ (A @ ref.argmin + b)
    assert np.all(d <= bound + 1e-9 * max(1.0, abs(ref.f_opt)))


# ---------------------------------------------------------------------------
# Phase detection
# ---------------------------------------------------------------------------

def test_phase_all_containing_region_hits_immediately(main_traces, main_estimates):
    trace, _ = main_traces["polyhedral"]
    est = main_estimates["polyhedral"]
    bounds = BoundSet(m=2.0, c=squared_norm_bound(trace.spec), v=MAIN_V, l_poly=1e-6)
    report = phase_detect(trace, est, bounds, "polyhedral")
    assert report.radius >= report.max_distance
    assert report.t_hit == 0
    assert report.absorbed


def test_phase_absorption_on_linear_instance(main_traces, main_estimates):
    trace, _ = main_traces["polyhedral"]
    spec = trace.spec
    est = main_estimates["polyhedral"]
    l_hat = estimate_sharpness(spec, est).polyhedral
    bounds = BoundSet(m=lipschitz_bound(spec), c=squared_norm_bound(spec),
                      v=MAIN_V, l_poly=l_hat)
    report = phase_detect(trace, est, bounds, "polyhedral")
    assert report.t_hit is not None
    assert report.absorbed
    assert report.violation_count == 0


def test_phase_region_never_entered():

    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=MAIN_V, horizon=64))
    est = MultiplierEstimate(lam=np.array([50.0, 50.0, 50.0, 50.0]),
                             residual=0.0, d_value=0.0, f_opt=0.0)
    bounds = BoundSet(m=2.0, c=1.0, v=MAIN_V, l_poly=100.0)
    report = phase_detect(trace, est, bounds, "polyhedral")
    assert report.t_hit is None and not report.absorbed
    assert report.violation_count == 0


def test_smooth_region_absorption(main_traces, main_estimates):
    trace, _ = main_traces["smooth"]
    spec = trace.spec
    est = main_estimates["smooth"]
    l_hat = estimate_sharpness(spec, est).smooth
    bounds = BoundSet(m=lipschitz_bound(spec), c=squared_norm_bound(spec),
                      v=MAIN_V, l_smooth=l_hat)
    report = phase_detect(trace, est, bounds, "smooth")
    assert report.t_hit is not None
    assert report.absorbed
    assert report.violation_count == 0


def test_transient_entry_grows_at_most_linearly(main_estimates):
    spec = build_instance("polyhedral")
    est = main_estimates["polyhedral"]
    l_hat = estimate_sharpness(spec, est).polyhedral
    c = squared_norm_bound(spec)
    m = lipschitz_bound(spec)
    vs = [25.0, 50.0, 100.0, 200.0]
    hits = []
    for v in vs:
        trace = run(spec, SolverConfig(v=v, horizon=8192))
        bounds = BoundSet(m=m, c=c, v=v, l_poly=l_hat)
        report = phase_detect(trace, est, bounds, "polyhedral")
        assert report.t_hit is not None
        hits.append(report.t_hit)
    assert fit_loglog_slope(vs, hits) <= 1.2


def test_steady_entry_growth_stays_subpolynomial_smooth(main_estimates):
    # entry times into the smooth region over a V sweep; growth order at
    # most V**1.5, checked as a log-log slope (degenerate immediate entries
    # floor at one iteration and fit as constant)
    spec = build_instance("smooth")
    est = main_estimates["smooth"]
    l_hat = estimate_sharpness(spec, est).smooth
    c = squared_norm_bound(spec)
    m = lipschitz_bound(spec)
    vs = [25.0, 50.0, 100.0, 200.0]
    hits = []
    for v in vs:
        trace = run(spec, SolverConfig(v=v, horizon=8192))
        bounds = BoundSet(m=m, c=c, v=v, l_smooth=l_hat)
        report = phase_detect(trace, est, bounds, "smooth")
        assert report.t_hit is not None
        hits.append(report.t_hit)
    assert fit_loglog_slope(vs, hits) <= 1.7


def test_phase_detect_argument_errors(main_traces, main_estimates):
    trace, _ = main_traces["polyhedral"]
    est = main_estimates["polyhedral"]
    bounds = BoundSet(m=2.0, c=112.5, v=MAIN_V, l_poly=0.5)
    with pytest.raises(ValueError):
        phase_detect(trace, est, bounds, "smooth")  # no smooth radius
    with pytest.raises(ValueError):
        phase_detect(trace, est, bounds, "spherical")


# ---------------------------------------------------------------------------
# Convergence bounds
# ---------------------------------------------------------------------------

def _logged_marks(horizon):
    marks = [1 << k for k in range(horizon.bit_length()) if (1 << k) <= horizon]
    if marks[-1] != horizon:
        marks.append(horizon)
    return marks


def test_general_bound_dominates_at_every_logged_horizon(main_traces, oracle_values):
    trace, _ = main_traces["smooth"]
    spec = trace.spec
    f_opt = oracle_values["smooth"]
    bounds = BoundSet(m=lipschitz_bound(spec), c=squared_norm_bound(spec), v=MAIN_V)
    A, b = spec.constraint_matrix()
    for t_end in _logged_marks(trace.horizon):
        obj_bound, vio_bound = convergence_bounds(trace, bounds, 0, t_end, "general")
        xbar = trace.xbar[t_end - 1]
        assert spec.objective.value(xbar) - f_opt <= obj_bound + 1e-9
        assert np.all(A @ xbar + b <= vio_bound + 1e-9)


def test_steady_state_bound_dominates_after_entry(main_traces, main_estimates,
                                                  oracle_values):
    trace, _ = main_traces["polyhedral"]
    spec = trace.spec
    est = main_estimates["polyhedral"]
    f_opt = oracle_values["polyhedral"]
    l_hat = estimate_sharpness(spec, est).polyhedral
    bounds = BoundSet(m=lipschitz_bound(spec), c=squared_norm_bound(spec),
                      v=MAIN_V, l_poly=l_hat)
    start = phase_detect(trace, est, bounds, "polyhedral").t_hit
    A, b = spec.constraint_matrix()
    for length in (1024, 16384, trace.horizon - start):
        obj_bound, vio_bound = convergence_bounds(
            trace, bounds, start, length, "polyhedral", lambda_star=est)
        avg = staggered_average(trace, start, length)
        assert spec.objective.value(avg) - f_opt <= obj_bound + 1e-9
        assert np.all(A @ avg + b <= vio_bound + 1e-9)


def test_general_bound_approaches_floor_at_long_horizons(main_traces):
    trace, _ = main_traces["polyhedral"]
    spec = trace.spec
    c = squared_norm_bound(spec)
    bounds = BoundSet(m=lipschitz_bound(spec), c=c, v=MAIN_V)
    obj_bound, _ = convergence_bounds(trace, bounds, 0, trace.horizon, "general")
    floor = c / MAIN_V
    assert abs(obj_bound - floor) <= 0.05 * floor


def test_convergence_bounds_argument_errors(main_traces, main_estimates):
    trace, _ = main_traces["polyhedral"]
    bounds = BoundSet(m=2.0, c=112.5, v=MAIN_V, l_poly=0.5)
    with pytest.raises(ValueError):
        convergence_bounds(trace, bounds, 0, trace.horizon + 1, "general")
    with pytest.raises(ValueError):
        convergence_bounds(trace, bounds, 0, 100, "polyhedral")  # missing estimate
    with pytest.raises(ValueError):
        convergence_bounds(trace, bounds, 0, 100, "smooth",
                           lambda_star=main_estimates["polyhedral"])  # no radius
    with pytest.raises(ValueError):
        convergence_bounds(trace, bounds, 0, 100, "sharp")


def test_bounds_of_another_v_are_refused(main_traces, main_estimates):
    # the radius and bounds depend on V: a BoundSet for V = 10 must not be
    # read against a run at V = 100
    trace, _ = main_traces["polyhedral"]
    est = main_estimates["polyhedral"]
    bounds = BoundSet(m=2.0, c=112.5, v=10.0, l_poly=0.5, l_smooth=0.5)
    message = "bounds are for V = 10.0, the run has V = 100.0"
    for geometry in ("polyhedral", "smooth"):
        with pytest.raises(ValueError, match=message):
            phase_detect(trace, est, bounds, geometry)
    for regime in ("general", "polyhedral", "smooth"):
        with pytest.raises(ValueError, match=message):
            convergence_bounds(trace, bounds, 0, 100, regime, lambda_star=est)


# ---------------------------------------------------------------------------
# Boundedness and drift of the dual trajectory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["polyhedral", "smooth"])
def test_dual_norm_plateaus(name, main_traces):
    trace, _ = main_traces[name]
    norms = np.linalg.norm(trace.lambda_path[:-1], axis=1)
    half = len(norms) // 2
    step = math.sqrt(2.0 * squared_norm_bound(trace.spec)) / MAIN_V
    assert np.max(norms[half:]) <= np.max(norms[:half]) + step


def test_outside_region_distance_shrinks(main_estimates):
    # with a large V the transient is long enough to watch the contraction
    spec = build_instance("polyhedral")
    est = main_estimates["polyhedral"]
    v = 1000.0
    trace = run(spec, SolverConfig(v=v, horizon=3000))
    l_hat = estimate_sharpness(spec, est).polyhedral
    b_poly = BoundSet(m=lipschitz_bound(spec), c=squared_norm_bound(spec),
                      v=v, l_poly=l_hat).b_poly
    lam = trace.lambda_path
    dist = np.linalg.norm(lam - est.lam, axis=1)
    qualifying = dist[:-1] >= 1.15 * b_poly + 2.0 * est.residual
    assert np.sum(qualifying) >= 5
    drift = dist[1:][qualifying] - dist[:-1][qualifying]
    assert np.max(drift) <= -0.5 * l_hat / (2.0 * v) + 1e-12


# ---------------------------------------------------------------------------
# Accuracy measurement helpers
# ---------------------------------------------------------------------------

def test_optimality_error_definition():
    spec = build_instance("polyhedral")
    assert optimality_error(spec, np.array([0.5, 0.5]), POLY_OPT) == pytest.approx(0.0, abs=1e-12)
    assert optimality_error(spec, np.array([0.0, 0.0]), POLY_OPT) == pytest.approx(1.5, abs=1e-12)
    assert optimality_error(spec, np.array([3.0, 3.0]), POLY_OPT) == pytest.approx(
        1.5 * 3 + 3 - POLY_OPT, abs=1e-12)


def test_error_series_and_first_hits(main_traces, oracle_values):
    trace, _ = main_traces["polyhedral"]
    f_opt = oracle_values["polyhedral"]
    plain, stag = error_series(trace, f_opt)
    assert plain.shape == stag.shape == (len(trace.ts),)
    assert plain[-1] <= 0.01
    hit_plain, hit_stag = iterations_to_accuracy(trace, f_opt, 0.01)
    assert hit_plain is not None and hit_stag is not None
    assert hit_stag <= hit_plain
    assert plain[hit_plain - 1] <= 0.01
    none_plain, none_stag = iterations_to_accuracy(trace, f_opt, 0.0)
    assert none_plain is None


def test_fit_loglog_slope_recovers_power_law():
    xs = np.array([25.0, 50.0, 100.0, 200.0])
    assert fit_loglog_slope(xs, 3.0 * xs ** 2) == pytest.approx(2.0, abs=1e-9)
    assert fit_loglog_slope(xs, np.ones(4)) == 0.0
