import numpy as np
import pytest

from tavopt import (
    AffineConstraint,
    ExplicitPoints,
    GridProduct,
    InfeasibilityError,
    LinearPiece,
    ProblemSpec,
    QuadraticPiece,
    SeparableConvexObjective,
    SolverConfig,
    dual_function,
    estimate_multiplier,
    parse_problem_config,
    run,
    solve_reference,
    solve_reference_lp,
    tight_box,
)

from tavopt.oracle import FEASIBILITY_TOL, _simplex_compositions

from conftest import POINTS_PROBLEM, build_instance


def test_grid_oracle_on_linear_instance():
    res = solve_reference(build_instance("polyhedral"), resolution=0.05)
    assert res.f_opt == pytest.approx(1.25, abs=1e-3)
    np.testing.assert_allclose(res.argmin, [0.5, 0.5], atol=1e-2)
    assert res.certificate <= 1e-9


def test_grid_oracle_on_quadratic_instance():
    res = solve_reference(build_instance("smooth"), resolution=0.05)
    assert res.f_opt == pytest.approx(0.5, abs=1e-3)
    np.testing.assert_allclose(res.argmin, [0.5, 0.5], atol=1e-2)


def test_grid_oracle_unconstrained_quadratic():
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0)))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(
            pieces=(QuadraticPiece(1.0, 0.0), QuadraticPiece(1.0, 0.0))))
    res = solve_reference(spec, resolution=0.05)
    assert res.f_opt == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(res.argmin, [0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("name", ["polyhedral", "smooth"])
@pytest.mark.parametrize("res", [0.7, 0.4, 0.07])
def test_grid_oracle_monotone_refinement(name, res):
    spec = build_instance(name)
    coarse = solve_reference(spec, resolution=res).f_opt
    finer = solve_reference(spec, resolution=res / 10.0).f_opt
    assert finer <= coarse + 1e-12


def test_grid_oracle_argmin_in_hull():
    spec = build_instance("smooth-extra")
    res = solve_reference(spec, resolution=0.05)
    lo, hi = spec.decision_set.hull_bounds()
    assert np.all(res.argmin >= lo - 1e-12) and np.all(res.argmin <= hi + 1e-12)


def test_grid_oracle_infeasible():
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0),))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0),)),
        constraints=(AffineConstraint(coeffs=(-1.0,), offset=10.0),))  # x >= 10
    with pytest.raises(InfeasibilityError):
        solve_reference(spec, resolution=0.1)


def test_lp_oracle_exact_on_linear_instance():
    res = solve_reference_lp(build_instance("polyhedral"))
    assert res.f_opt == pytest.approx(1.25, abs=1e-12)
    np.testing.assert_allclose(res.argmin, [0.5, 0.5], atol=1e-12)
    assert res.grid_resolution == 0.0


def test_lp_oracle_zero_objective():
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0)))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(LinearPiece(0.0), LinearPiece(0.0))))
    res = solve_reference_lp(spec)
    assert res.f_opt == 0.0
    assert res.certificate <= 1e-9


@pytest.mark.parametrize("name", ["polyhedral", "polyhedral-extra"])
def test_cross_oracle_agreement(name):
    spec = build_instance(name)
    resolution = 0.05
    grid = solve_reference(spec, resolution=resolution)
    lp = solve_reference_lp(spec)
    assert abs(grid.f_opt - lp.f_opt) <= 10.0 * resolution ** 2
    assert abs(grid.f_opt - lp.f_opt) <= 1e-3


def test_lp_oracle_refusals():
    with pytest.raises(ValueError):
        solve_reference_lp(build_instance("smooth"))  # quadratic pieces

    grid7 = GridProduct(values=tuple((0.0, 1.0) for _ in range(7)))
    spec7 = ProblemSpec(
        decision_set=grid7, box=tight_box(grid7),
        objective=SeparableConvexObjective(pieces=tuple(LinearPiece(1.0) for _ in range(7))))
    with pytest.raises(ValueError):
        solve_reference_lp(spec7)

    pts = ExplicitPoints(points=[[0.0, 1.0], [1.0, 0.0]])
    spec_pts = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(0.0))))
    with pytest.raises(ValueError):
        solve_reference_lp(spec_pts)


def test_lp_oracle_infeasible():
    grid = GridProduct(values=((0.0, 3.0),))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0),)),
        constraints=(AffineConstraint(coeffs=(-1.0,), offset=10.0),))
    with pytest.raises(InfeasibilityError):
        solve_reference_lp(spec)


def test_explicit_points_simplex_search():
    pts = ExplicitPoints(points=[[0.0, 1.0], [1.0, 0.0]])
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(0.0))),
        constraints=(AffineConstraint(coeffs=(0.0, 1.0), offset=-0.25),))  # x2 <= 0.25
    res = solve_reference(spec, resolution=0.01)
    assert res.f_opt == pytest.approx(0.75, abs=1e-2)
    np.testing.assert_allclose(res.argmin, [0.75, 0.25], atol=1e-2)


def test_explicit_points_polish_leaves_the_lattice():
    # x1**2 - 0.74*x1 + 0.1*x2 under x1 + x2 >= 0.5 is least at (0.42, 0.08),
    # between the points of the lattice at resolution 0.1
    pts = ExplicitPoints(points=[[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(QuadraticPiece(1.0, -0.74),
                                                   LinearPiece(0.1))),
        constraints=(AffineConstraint(coeffs=(-1.0, -1.0), offset=0.5),))
    res = solve_reference(spec, resolution=0.1)
    lattice = _simplex_compositions(10, 3) / 10 @ pts.points
    A, b = spec.constraint_matrix()
    feasible = lattice[np.all(lattice @ A.T + b <= FEASIBILITY_TOL, axis=1)]
    assert res.f_opt < np.min(spec.objective.values(feasible))
    assert np.all(A @ res.argmin + b <= FEASIBILITY_TOL)
    assert res.f_opt == spec.objective.value(res.argmin)
    np.testing.assert_allclose(res.argmin, [0.42, 0.08], atol=1e-9)


def test_explicit_points_single_point():
    pts = ExplicitPoints(points=[[1.0, 1.0]])
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(2.0), LinearPiece(1.0))))
    res = solve_reference(spec, resolution=0.1)
    assert res.f_opt == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("feasible", [True, False])
def test_explicit_points_single_point_through_the_lattice(feasible):
    # one point is a one-point lattice: its value, the point itself and its
    # violation, or no feasible point at all
    p = np.array([1.0, 2.0])
    pts = ExplicitPoints(points=[p])
    offset = -3.0 + 5e-10 if feasible else -2.0  # x1 + x2 <= 3 - 5e-10 or <= 2
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(QuadraticPiece(0.5, 2.0), LinearPiece(1.0))),
        constraints=(AffineConstraint(coeffs=(1.0, 1.0), offset=offset),))
    if not feasible:
        with pytest.raises(InfeasibilityError):
            solve_reference(spec, resolution=0.1)
        return
    res = solve_reference(spec, resolution=0.1)
    A, b = spec.constraint_matrix()
    assert res.f_opt == spec.objective.value(p)
    np.testing.assert_array_equal(res.argmin, p)
    assert res.certificate == float(np.max(A @ p + b)) > 0.0  # violated within tolerance


@pytest.mark.parametrize("resolution", [0.25, 0.1, 0.05])
def test_explicit_points_polish_stays_in_the_hull(resolution):
    # the polish must recheck a point's weight before every transfer out of
    # it: repeated transfers would drive the weight negative, and at 0.1 the
    # argmin would leave the hull and f_opt fall below the dual's maximum
    spec = parse_problem_config(POINTS_PROBLEM)
    pts = spec.decision_set.points
    res = solve_reference(spec, resolution=resolution)
    dirs = np.vstack([np.eye(3), -np.eye(3), np.random.default_rng(0).standard_normal((256, 3))])
    # a direction u with u . argmin < min over the points of u . p separates them
    assert np.all(dirs @ res.argmin >= np.min(pts @ dirs.T, axis=0))
    est = estimate_multiplier(spec, "grid-dual-max", seed=0)
    d, _, _ = dual_function(spec, est.lam[:est.j_dim], est.lam[est.j_dim:])
    assert d <= res.f_opt


def test_explicit_points_cap():
    rng = np.random.default_rng(0)
    pts = ExplicitPoints(points=rng.uniform(0.0, 1.0, size=(9, 2)))
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(1.0))))
    with pytest.raises(ValueError):
        solve_reference(spec, resolution=0.1)


def test_bad_resolution():
    for res in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="resolution must be positive"):
            solve_reference(build_instance("polyhedral"), resolution=res)


def test_sandwich_between_dual_trajectory_and_penalized_average(oracle_values):
    """d(lambda(t)) never exceeds the oracle optimum, and the optimum never
    exceeds the multiplier-penalized value of the averaged iterates."""
    spec = build_instance("polyhedral")
    f_opt = oracle_values["polyhedral"]
    trace = run(spec, SolverConfig(v=50.0, horizon=20000))
    assert float(np.max(trace.d)) - 1e-6 <= f_opt

    est = estimate_multiplier(spec, "grid-dual-max", v=50.0, seed=0)
    xbar = trace.xbar[-1]
    A, b = spec.constraint_matrix()
    penalty = float(est.lam[:est.j_dim] @ np.maximum(A @ xbar + b, 0.0))
    assert f_opt <= spec.objective.value(xbar) + penalty + 1e-3 + 10.0 * est.residual
