import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tavopt import (
    AffineConstraint,
    ExplicitPoints,
    ExtendedBox,
    GridProduct,
    InfeasibilityError,
    LinearPiece,
    PiecewiseLinearPiece,
    ProblemSpec,
    QuadraticPiece,
    SeparableConvexObjective,
    SolverConfig,
    dual_function,
    estimate_multiplier,
    parse_problem_config,
    run,
    run_cli,
    serialize_problem_config,
    solve_exact,
    solve_reference,
    solve_reference_lp,
    tight_box,
)

import tavopt.oracle
from tavopt.oracle import (_IPM_MARGIN, _MAX_GRID_POINTS, FEASIBILITY_TOL, _axis_points,
                           _best_feasible, _feasible, _simplex_compositions)

from conftest import (GRID_PROBLEM, POINTS_PROBLEM, POINTS_PROBLEM_SEED_1, POINTS_PROBLEM_SEED_11,
                      POINTS_PROBLEM_SEED_28, bits, build_instance, generated_runs)


def test_grid_oracle_on_linear_instance():
    res = solve_reference(build_instance("polyhedral"), resolution=0.05)
    assert res.f_opt == pytest.approx(1.25, abs=1e-3)
    np.testing.assert_allclose(res.argmin, [0.5, 0.5], atol=1e-2)
    assert res.certificate <= 1e-9


@pytest.mark.parametrize("problem,count", [("polyhedral", 301), ("polyhedral-extra", 301),
                                           (GRID_PROBLEM, 61)],
                         ids=["figure2", "figure4", "grid"])
def test_feasibility_mask_is_the_all_constraints_test(problem, count):
    # _feasible compares one column of the product at a time; on a mesh of
    # the hull (301 x 301 is the grid oracle's first mesh on the demos) it
    # must keep exactly the rows the all-constraints test of the sum keeps
    spec = build_instance(problem) if count == 301 else parse_problem_config(problem)
    lo, hi = spec.decision_set.hull_bounds()
    axes = [np.linspace(l, h, count) for l, h in zip(lo, hi)]
    points = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    A, b = spec.constraint_matrix()
    mask = np.all(points @ A.T + b <= FEASIBILITY_TOL, axis=1)
    assert np.array_equal(_feasible(spec, points), mask)
    # and at one point, as the explicit-point oracle's polish calls it
    for k in np.linspace(0, len(points) - 1, 97).astype(int):
        assert _feasible(spec, points[k]) == mask[k]


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


def _overflows(M, rhs, x):
    return not np.all(np.isfinite(x))


def _misses_its_planes(M, rhs, x):
    return np.all(np.isfinite(x)) and np.max(np.abs(M @ x - rhs)) > 1e-8


@pytest.mark.parametrize("slopes,coeffs,offset,solved", [
    # the vertices on the constraint and x_2 = 0 or 2 overflow, and are skipped
    ((1.0, 1.0), (1e-308, -1.0), 0.5, _overflows),
    # the optimal vertex, on the constraint and x_2 = 2, is solved with a
    # rounding residual above 1e-8 (its terms are near 3.4e9), and is kept
    ((1.0, -1.0), (-3e11, 1.7e9), 0.0, _misses_its_planes),
], ids=["overflow", "rounding"])
def test_lp_oracle_on_badly_scaled_constraints(monkeypatch, slopes, coeffs, offset, solved):
    grid = GridProduct(values=((0.0, 1.0, 2.0),) * 2)
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=tuple(map(LinearPiece, slopes))),
        constraints=(AffineConstraint(coeffs=coeffs, offset=offset),))
    solve, solves = np.linalg.solve, []

    def recorded_solve(M, rhs):
        x = solve(M, rhs)
        with np.errstate(invalid="ignore"):  # M @ x at an inf vertex
            solves.append(solved(M, rhs, x))
        return x

    monkeypatch.setattr(np.linalg, "solve", recorded_solve)
    lp = solve_reference_lp(spec)
    monkeypatch.undo()
    assert any(solves)
    assert abs(lp.f_opt - solve_exact(spec).f_opt) <= 1e-9


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
    lattice = np.vstack(list(_simplex_compositions(10, 3, 3))) / 10 @ pts.points
    A, b = spec.constraint_matrix()
    feasible = lattice[np.all(lattice @ A.T + b <= FEASIBILITY_TOL, axis=1)]
    assert res.f_opt < np.min(spec.objective.values(feasible))
    assert np.all(A @ res.argmin + b <= FEASIBILITY_TOL)
    assert res.f_opt == spec.objective.value(res.argmin)
    np.testing.assert_allclose(res.argmin, [0.42, 0.08], atol=1e-9)


@pytest.mark.parametrize("total,parts", [(0, 1), (5, 1), (0, 3), (1, 2), (4, 3), (6, 4), (3, 6),
                                         (64, 2), (65, 2), (10, 4), (3, 8)])
def test_simplex_compositions_are_every_composition_in_order(total, parts, monkeypatch):
    # in blocks of 64 rows, the fewest there are: 65 compositions make one
    # block (a one-row tail joins the block before it), 66 make 64 + 2
    monkeypatch.setattr(tavopt.oracle, "_SCAN_BLOCK_ENTRIES", 64)
    expected = sorted(p for p in itertools.product(range(total + 1), repeat=parts)
                      if sum(p) == total)
    blocks = list(_simplex_compositions(total, parts, parts))
    *full, last = [len(b) for b in blocks]
    assert all(size == 64 for size in full) and (last > 1 or len(expected) == 1) and last <= 65
    got = np.vstack(blocks)
    assert got.shape == (len(expected), parts) and got.dtype == float
    assert got.tolist() == [list(p) for p in expected]


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
    est = estimate_multiplier(spec)
    d, _, _ = dual_function(spec, est.lam[:spec.constraint_count], est.lam[spec.constraint_count:])
    assert d <= res.f_opt


def test_explicit_points_cap():
    rng = np.random.default_rng(0)
    pts = ExplicitPoints(points=rng.uniform(0.0, 1.0, size=(9, 2)))
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(1.0))))
    with pytest.raises(ValueError):
        solve_reference(spec, resolution=0.1)


def test_lattices_past_the_point_cap_are_refused(monkeypatch):
    # a 3001 x 3001 grid and the 8-point simplex lattice of step 1/1000 both
    # hold more than 4M points; each is refused before its first block
    def no_block(n, width):
        raise AssertionError(f"a block of {n} points was built past the cap")

    monkeypatch.setattr(tavopt.oracle, "_blocks", no_block)
    with pytest.raises(ValueError, match="grid of 9006001 points is too large"):
        solve_reference(build_instance("polyhedral"), resolution=1e-3)
    pts = ExplicitPoints(points=np.random.default_rng(0).uniform(0.0, 1.0, size=(8, 2)))
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(1.0))))
    with pytest.raises(ValueError, match="simplex lattice too large"):
        solve_reference(spec, resolution=1e-3)


def _one_shot_grid_search(spec, resolution):
    """(f_opt, argmin) of the grid oracle with each stage's whole mesh in one
    _best_feasible call: meshgrid in C order, the incumbent appended last."""
    def best_on_mesh(axes, *extra):
        mesh = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
        return _best_feasible(spec, np.vstack([mesh, *extra]))

    lo, hi = spec.decision_set.hull_bounds()
    incumbent = best_on_mesh([_axis_points(l, h, resolution) for l, h in zip(lo, hi)])
    if incumbent is None:
        raise InfeasibilityError("no feasible grid point")
    cells = 2.5 if len(lo) <= 3 else (1.0 if len(lo) <= 5 else 0.5)
    res = resolution
    for _ in range(2):
        val, point = incumbent
        reach = cells * res
        res /= 10.0
        local = best_on_mesh([_axis_points(max(l, p - reach), min(h, p + reach), res)
                              for l, h, p in zip(lo, hi, point)], point[None, :])
        if local is not None and local[0] <= val:
            incumbent = local
    return incumbent


_TIE_VALUES = (0.0, 0.0, 0.0, 0.3, 0.5, -0.5, 1.0, -1.0)


@st.composite
def _tied_grid_specs(draw):
    """Grid specs on one or two axes whose optima often tie: coordinates on
    a coarse lattice, and slopes and coefficients mostly zero."""
    I = draw(st.integers(1, 2))
    coord = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    small = st.sampled_from(_TIE_VALUES)
    grid = GridProduct(values=tuple(
        tuple(sorted(draw(st.lists(coord, min_size=1, max_size=3, unique=True))))
        for _ in range(I)))
    piece = st.one_of(
        st.builds(LinearPiece, small),
        st.builds(QuadraticPiece, st.sampled_from([0.0, 0.5]), small),
        st.builds(lambda s, step: PiecewiseLinearPiece(breakpoints=(0.5,), slopes=(s, s + step)),
                  small, st.sampled_from([0.0, 0.5])))
    constraint = st.builds(AffineConstraint, st.lists(small, min_size=I, max_size=I).filter(any),
                           st.sampled_from([-1.0, -0.35, 0.0, 0.2, 0.45]))
    return ProblemSpec(decision_set=grid, box=tight_box(grid),
                       objective=SeparableConvexObjective(pieces=[draw(piece) for _ in range(I)]),
                       constraints=draw(st.lists(constraint, max_size=2)))


def _flat_spec(values, coeffs, offset, slopes):
    grid = GridProduct(values=values)
    return ProblemSpec(decision_set=grid, box=tight_box(grid),
                       objective=SeparableConvexObjective(pieces=tuple(map(LinearPiece, slopes))),
                       constraints=(AffineConstraint(coeffs=coeffs, offset=offset),))


@settings(max_examples=300, deadline=None)
# the second refinement's incumbent (0.95, 0.5) ties with mesh points a few
# blocks before it and is lexicographically smaller than each of them
@example(spec=_flat_spec(((0.0, 0.5, 3.0), (0.5, 1.5)), (-1.0, 1.0), 0.45, (0.0, 1.0)),
         resolution=0.25, entries=64)
# a flat objective: every feasible point ties, across every block boundary
@example(spec=_flat_spec(((-1.0, 3.0), (0.0, 2.0)), (1.0, 1.0), -1.0, (0.0, 0.0)),
         resolution=0.1, entries=64)
@given(spec=_tied_grid_specs(), resolution=st.sampled_from([0.5, 0.25, 0.1]),
       entries=st.sampled_from([64, 256, tavopt.oracle._SCAN_BLOCK_ENTRIES]))
def test_the_blocked_grid_scan_is_the_one_shot_scan(spec, resolution, entries):
    """f_opt, argmin and certificate keep the bits of one scan over each
    whole mesh, in blocks of 64 rows up to the module's size (the coarse
    meshes here are smaller than one block of that size)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tavopt.oracle, "_SCAN_BLOCK_ENTRIES", entries)
        try:
            res = solve_reference(spec, resolution)
        except InfeasibilityError:
            with pytest.raises(InfeasibilityError):
                _one_shot_grid_search(spec, resolution)
            return
    f_opt, argmin = _one_shot_grid_search(spec, resolution)
    assert bits(res.f_opt) == bits(f_opt) and bits(res.argmin) == bits(argmin)
    assert bits(res.certificate) == bits(max(0.0, spec.max_violation(argmin)))


# four points and a flat objective: every feasible lattice point ties
_FLAT_POINTS_PROBLEM = (
    '{"dimension": 2, "decision_set": {"points": [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], '
    '[1.0, 1.0]]}, "objective": [{"kind": "linear", "slope": 0.0}, {"kind": "linear", '
    '"slope": 0.0}], "constraints": [{"coeffs": [1.0, 1.0], "offset": 1.5, "sense": "<="}]}')


@pytest.mark.parametrize("problem,resolution", [(POINTS_PROBLEM, 0.1), (POINTS_PROBLEM, 0.05),
                                                (POINTS_PROBLEM_SEED_1, 0.1),
                                                (POINTS_PROBLEM_SEED_11, 0.1),
                                                (_FLAT_POINTS_PROBLEM, 0.05)],
                         ids=["seed7-0.1", "seed7-0.05", "seed1-0.1", "seed11-0.1", "flat"])
def test_the_blocked_lattice_search_is_the_one_shot_search(problem, resolution, monkeypatch):
    # the first least lattice point over all blocks, in 64-row blocks and in
    # one block holding the whole lattice; on the flat problem that is the
    # first feasible composition, (0, 0, 1/2, 1/2)
    spec = parse_problem_config(problem)
    results = []
    for entries in (64, 10 ** 9):
        monkeypatch.setattr(tavopt.oracle, "_SCAN_BLOCK_ENTRIES", entries)
        results.append(solve_reference(spec, resolution))
    blocked, whole = results
    assert bits(blocked.f_opt) == bits(whole.f_opt) and bits(blocked.argmin) == bits(whole.argmin)
    if problem == _FLAT_POINTS_PROBLEM:
        assert blocked.argmin.tolist() == [1.0, 0.5]


@pytest.mark.parametrize("problem,resolution,points", [(GRID_PROBLEM, 0.02, 151 ** 3),
                                                       (POINTS_PROBLEM, 0.05, math.comb(27, 7))],
                         ids=["grid", "lattice"])
def test_the_brute_force_scans_run_in_bounded_memory(problem, resolution, points):
    # 3,442,951 points of the {0..3}^3 grid and 888,030 of the 8-point
    # lattice, both under the cap: in one piece they peaked at 228.5 MB
    # and 170.6 MB
    assert points <= _MAX_GRID_POINTS
    spec = parse_problem_config(problem)
    tracemalloc.start()
    try:
        solve_reference(spec, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


class _Cloud:
    """A decision set the oracles do not know: only its dimension and hull."""

    dimension = 2

    def hull_bounds(self):
        return np.zeros(2), np.ones(2)


def test_the_grid_oracle_refuses_an_unknown_decision_set():
    spec = ProblemSpec(
        decision_set=_Cloud(), box=ExtendedBox(lower=(0.0, 0.0), upper=(1.0, 1.0)),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(1.0))))
    with pytest.raises(ValueError, match="unsupported decision set _Cloud"):
        solve_reference(spec, resolution=0.1)


def test_the_interior_point_cap_exits_1(monkeypatch, tmp_path, capsys):
    # one iteration cannot meet the tolerances on figure 2, so the exact
    # solve gives up and diagnose reports it as a config error
    monkeypatch.setattr(tavopt.oracle, "_IPM_MAX_ITER", 1)
    problem = tmp_path / "problem.json"
    problem.write_text(serialize_problem_config(build_instance("polyhedral")))
    assert run_cli(["diagnose", "--problem", str(problem), "--out", str(tmp_path / "o"),
                    "--horizon", "64"]) == 1
    assert "did not converge in 1 iterations" in capsys.readouterr().err


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

    est = estimate_multiplier(spec)
    xbar = trace.xbar[-1]
    A, b = spec.constraint_matrix()
    penalty = float(est.lam[:spec.constraint_count] @ np.maximum(A @ xbar + b, 0.0))
    assert f_opt <= spec.objective.value(xbar) + penalty + 1e-3 + 10.0 * est.residual


# ---------------------------------------------------------------------------
# Exact solve
# ---------------------------------------------------------------------------

def _gap(spec, exact):
    J = spec.constraint_count
    return exact.f_opt - dual_function(spec, exact.lam[:J], exact.lam[J:])[0]


@pytest.mark.parametrize("name,f_opt", [("polyhedral", 1.25), ("smooth", 0.5),
                                        ("polyhedral-extra", 1.25), ("smooth-extra", 0.5)])
def test_exact_optimum_of_the_demos(name, f_opt):
    spec = build_instance(name)
    exact = solve_exact(spec)
    assert exact.f_opt == pytest.approx(f_opt, abs=1e-9)
    np.testing.assert_allclose(exact.argmin, [0.5, 0.5], rtol=0.0, atol=1e-8)
    assert abs(_gap(spec, exact)) <= 1e-9


@pytest.mark.parametrize("problem,f_opt", [(GRID_PROBLEM, 2.1227447012),
                                           (POINTS_PROBLEM, 1.7068431002)],
                         ids=["diagnose-grid", "solve-trace"])
def test_exact_optimum_of_the_benchmark_problems(problem, f_opt):
    # both lie below every brute-force value, and the engine's dual at the
    # multipliers closes the gap
    spec = parse_problem_config(problem)
    exact = solve_exact(spec)
    assert exact.f_opt == pytest.approx(f_opt, abs=1e-9)
    assert abs(_gap(spec, exact)) <= 1e-9
    assert exact.f_opt <= solve_reference(spec, resolution=0.25).f_opt
    A, b = spec.constraint_matrix()
    assert np.max(A @ exact.argmin + b) <= 1e-9
    assert np.all(exact.lam[:spec.constraint_count] >= 0.0)


@pytest.mark.parametrize("workload", ["solve-trace", "diagnose-grid"])
def test_exact_solve_on_the_benchmark_generators(workload, bench_problem):
    # seeds 0-59 of both problem generators: the solve converges and the
    # engine's dual at lam* meets f_opt
    for seed in range(60):
        spec = bench_problem(workload, seed)
        exact = solve_exact(spec)
        assert abs(_gap(spec, exact)) <= 1e-9 * max(1.0, abs(exact.f_opt)), seed


@pytest.mark.parametrize("problem,seed,unique", [(POINTS_PROBLEM_SEED_11, 11, False),
                                                 (POINTS_PROBLEM_SEED_28, 28, True)],
                         ids=["11", "28"])
def test_exact_solve_where_the_reduced_newton_system_stalled(problem, seed, unique,
                                                             bench_problem):
    # with dlam eliminated into the v block, the dual residual stalled above
    # the tolerance until the iteration cap: in phase one on seed 11, in the
    # final solve on seed 28.  Seed 11's dual is flat at lam* (decay 4e-15
    # at distance 0.1), so its multiplier is not unique.
    spec = parse_problem_config(problem)
    assert (serialize_problem_config(spec)
            == serialize_problem_config(bench_problem("solve-trace", seed)))
    exact = solve_exact(spec)
    assert abs(_gap(spec, exact)) <= 1e-9 * max(1.0, abs(exact.f_opt))
    assert exact.unique == unique
    assert exact.f_opt <= solve_reference(spec, resolution=0.25).f_opt


# no hull point holds both x_1 <= 0 and x_2 <= 0: the least violation is
# 1.6e-10, so the final solve relaxes both rows by that much and w* grows
# to 6e3, a relaxation price of 1e-6, seventeen times the margin's
_NEARLY_INFEASIBLE = (
    ProblemSpec(decision_set=ExplicitPoints(points=np.array([[0.0, -0.0625, 1e-5],
                                                              [0.0, 1e-6, 0.0]])),
                box=ExtendedBox(np.array([0.0, -0.0625, 0.0]), np.array([0.0, 1e-6, 1e-5])),
                objective=SeparableConvexObjective((LinearPiece(0.0), LinearPiece(1.0),
                                                    LinearPiece(0.0))),
                constraints=(AffineConstraint(np.array([0.0, 0.0, 1.0]), 0.0),
                             AffineConstraint(np.array([0.0, 1.0, 0.0]), 0.0))),
    SolverConfig(v=1.0, horizon=1))


@settings(max_examples=100, deadline=None)
@example(case=_NEARLY_INFEASIBLE)
@given(case=generated_runs())
def test_exact_solve_on_generated_specs(case):
    """Weak duality and a closed gap at lam*, and f_opt at most the
    brute-force value, whose point may violate a constraint by up to
    FEASIBILITY_TOL; lam* prices that violation.

    Where no hull point holds every constraint strictly, solve_exact
    relaxes each row by the phase-one violation s <= FEASIBILITY_TOL plus
    _IPM_MARGIN, per unit of its largest coefficient.  f_opt is then the
    relaxed optimum, below the dual at lam* by the relaxation's price,
    which complementary slackness makes lam* . max(A y* + b, 0); the gap
    must equal it to within the tolerance."""
    spec, _ = case
    try:
        exact = solve_exact(spec)
    except InfeasibilityError:
        return
    w = exact.lam[:spec.constraint_count]
    A, b = spec.constraint_matrix()
    scale = float(w @ np.abs(A).max(axis=1, initial=0.0))
    tol = 1e-8 * max(1.0, abs(exact.f_opt)) + 1e-10 * scale
    relaxation = float(w @ np.maximum(A @ exact.argmin + b, 0.0))
    assert relaxation <= (FEASIBILITY_TOL + _IPM_MARGIN) * scale + tol
    assert abs(_gap(spec, exact) + relaxation) <= tol
    assert np.all(w >= 0.0)
    try:
        ref = solve_reference(spec, resolution=0.25)
    except InfeasibilityError:
        return
    price = float(w @ np.maximum(A @ ref.argmin + b, 0.0))
    assert exact.f_opt <= ref.f_opt + price + tol


@settings(max_examples=60, deadline=None)
@given(case=generated_runs())
def test_both_solvers_refuse_infeasible_specs(case):
    # one more constraint asks for x_0 >= 1 past the hull's top
    spec, _ = case
    top = spec.decision_set.hull_bounds()[1][0]
    coeffs = np.zeros(spec.dimension)
    coeffs[0] = -1.0
    spec = ProblemSpec(decision_set=spec.decision_set, box=spec.box, objective=spec.objective,
                       constraints=spec.constraints + (AffineConstraint(coeffs, top + 1.0),))
    with pytest.raises(InfeasibilityError):
        solve_exact(spec)
    with pytest.raises(InfeasibilityError):
        solve_reference(spec, resolution=0.25)


def test_exact_solve_refuses_a_hull_that_misses_the_constraints_jointly():
    # each constraint alone holds somewhere on [0, 3]^2, not both together,
    # so the phase-one solve decides
    grid = GridProduct(values=((0.0, 3.0), (0.0, 3.0)))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(1.0))),
        constraints=(AffineConstraint(coeffs=(1.0, 1.0), offset=-1.0),     # x1 + x2 <= 1
                     AffineConstraint(coeffs=(-1.0, -1.0), offset=2.0)))   # x1 + x2 >= 2
    with pytest.raises(InfeasibilityError, match="at least 0.5"):
        solve_exact(spec)


def test_exact_solve_when_the_constraints_leave_almost_no_interior():
    # the first and third constraints hold only for x1 in [-8e-79, 0]: the
    # final solve's relaxation keeps the multipliers bounded (without it
    # they grow to 1.5e13 and the solve stops at f = -1.16); the optimum is
    # at x = (0, 2.105474185783068 / 2.94746216), where the second binds
    pts = ExplicitPoints(points=[[-1.0, 2.58508902e-05], [-1.0, 0.454650237], [0.0, 0.0],
                                 [-0.815894331, 2.29753937], [1.30549676, 0.273591806]])
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(-3.0), LinearPiece(-3.0))),
        constraints=(AffineConstraint(coeffs=(1.7559403, 4.25609995e-13), offset=0.0),
                     AffineConstraint(coeffs=(-1.51296612e-86, 2.94746216),
                                      offset=-2.105474185783068),
                     AffineConstraint(coeffs=(-0.82068731, 4.83069078e-296),
                                      offset=-6.545157868296244e-79)))
    exact = solve_exact(spec)
    assert exact.f_opt == pytest.approx(-3.0 * 2.105474185783068 / 2.94746216, abs=1e-9)
    assert abs(_gap(spec, exact)) <= 1e-9
