import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tavopt import (
    AffineConstraint,
    BoundSet,
    EstimationError,
    ExplicitPoints,
    GridProduct,
    InfeasibilityError,
    LinearPiece,
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
    solve_reference,
    squared_norm_bound,
    staggered_average,
    tight_box,
)
import tavopt.analysis
from tavopt.analysis import (NONUNIQUE_DECAY_TOL, default_search_region, minimal_decay_rate,
                             sample_multipliers)
from tavopt.config import parse_problem_config
from tavopt.engine import _dual_columns
from tavopt.problem import EPS_C

from conftest import (INSTANCE_NAMES, MAIN_HORIZON, MAIN_V, bits, build_instance,
                      generated_runs)

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
    d, x, y = dual_function_batch(trace.spec, trace.lambda_path[:-1])
    assert bits(d) == bits(trace.d)
    assert bits(x) == bits(trace.x) and np.array_equal(y, trace.y)


@settings(max_examples=100, deadline=None)
@given(case=generated_runs())
def test_batch_dual_equals_recorded_d_on_generated_specs(case):
    spec, cfg = case
    trace = run(spec, cfg)
    d, _, _ = dual_function_batch(spec, trace.lambda_path[:-1])
    assert bits(d) == bits(trace.d)


@pytest.mark.parametrize("spec_maker", SPEC_MAKERS)
def test_batch_of_a_concatenation_is_the_concatenation(spec_maker):
    spec = spec_maker()
    lam = sample_multipliers(spec, scale=1.0, count=301, seed=8)
    whole = dual_function_batch(spec, lam)
    parts = [dual_function_batch(spec, block) for block in np.split(lam, [1, 100, 250])]
    for k in range(3):
        assert bits(whole[k]) == bits(np.concatenate([p[k] for p in parts]))


def _six_dim_instance():
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0),) * 3)
    return ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(
            pieces=(QuadraticPiece(0.75, 0.0), LinearPiece(1.25), QuadraticPiece(1.5, -0.5))),
        constraints=tuple(AffineConstraint(coeffs=c, offset=o) for c, o in (
            ((-1.0, -2.5, -0.5), 1.9), ((-3.0, -0.5, -1.0), 2.4), ((-0.5, -1.5, -2.0), 1.7))))


@pytest.mark.parametrize("spec_maker,points", [(_six_dim_instance, 5),
                                               (lambda: build_instance("smooth-extra"), 9)])
def test_broadcast_grid_equals_batch_rows(spec_maker, points):
    # the grid ascent's product grid, one broadcast view per axis, against
    # the same grid written out row by row
    spec = spec_maker()
    J, dims = spec.constraint_count, spec.constraint_count + spec.dimension
    axes = [np.linspace(0.0, 1.5, points) if k < J else np.linspace(-2.0, 2.0, points)
            for k in range(dims)]
    views = [ax.reshape([points if m == k else 1 for m in range(dims)])
             for k, ax in enumerate(axes)]
    d, _, _ = _dual_columns(spec, views[:J], views[J:])
    assert d.shape == (points,) * dims
    rows = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    assert bits(d.ravel()) == bits(dual_function_batch(spec, rows)[0])


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
    est = estimate_multiplier(spec, "grid-dual-max", seed=3)
    sub = dual_subgradient(spec, est.lam[:est.j_dim], est.lam[est.j_dim:])
    assert np.linalg.norm(sub) <= max(1e-9, 2.0 * est.residual)


# ---------------------------------------------------------------------------
# Multiplier estimation
# ---------------------------------------------------------------------------

def test_grid_estimate_reaches_linear_optimum(main_estimates):
    est = main_estimates["polyhedral"]
    assert est.residual <= 1e-3
    assert abs(est.d_value - POLY_OPT) <= 1e-3
    np.testing.assert_allclose(est.lam[:est.j_dim], [2.0 / 3.0, 1.0 / 6.0], atol=2e-3)
    np.testing.assert_allclose(est.lam[est.j_dim:], [0.0, 0.0], atol=2e-3)


def test_grid_estimate_reaches_quadratic_optimum(main_estimates):
    est = main_estimates["smooth"]
    assert abs(est.d_value - SMOOTH_OPT) <= 1e-3
    np.testing.assert_allclose(est.lam[:est.j_dim], [1.0 / 3.0, 1.0 / 3.0], atol=2e-3)


def test_nonbinding_constraint_gets_zero_multiplier():
    grid = GridProduct(values=((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0)))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(
            pieces=(QuadraticPiece(1.0, 0.0), QuadraticPiece(1.0, 0.0))),
        constraints=(AffineConstraint(coeffs=(1.0, 0.0), offset=-10.0),))
    est = estimate_multiplier(spec, "grid-dual-max", seed=0)
    assert np.max(est.lam[:est.j_dim]) <= 1e-3


def test_nonuniqueness_flags(main_estimates):
    assert not main_estimates["polyhedral"].possibly_nonunique
    assert not main_estimates["smooth"].possibly_nonunique
    assert main_estimates["polyhedral-extra"].possibly_nonunique
    assert main_estimates["smooth-extra"].possibly_nonunique


def _assert_d_value_is_the_dual_at_the_estimate(spec, est):
    assert type(est.residual) is float and type(est.d_value) is float
    w, z = est.lam[:est.j_dim], est.lam[est.j_dim:]
    assert bits(est.d_value) == bits(dual_function(spec, w, z)[0])


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_grid_estimate_d_value_is_the_dual_at_the_estimate(name, main_estimates):
    _assert_d_value_is_the_dual_at_the_estimate(build_instance(name), main_estimates[name])


def test_tail_average_agrees_with_grid(main_estimates):
    spec = build_instance("polyhedral")
    tail = estimate_multiplier(spec, "tail-average", v=MAIN_V, seed=0)
    grid = main_estimates["polyhedral"]
    slack = 10.0 * max(tail.residual, grid.residual, 1e-6)
    assert abs(tail.d_value - grid.d_value) <= slack
    _assert_d_value_is_the_dual_at_the_estimate(spec, tail)


def _assert_joint_decay_search_is_the_min(spec, lam, distances, extra):
    # the searches of all distances run side by side; each must move as it
    # would in a call of its own
    joint = minimal_decay_rate(spec, lam, spec.constraint_count, distances=distances,
                               n_probes=64, seed=3, extra_directions=extra)
    alone = [minimal_decay_rate(spec, lam, spec.constraint_count, distances=(rho,),
                                n_probes=64, seed=3, extra_directions=extra)
             for rho in distances]
    assert bits(joint) == bits(min(alone))


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_decay_search_over_distances_is_the_min_of_single_searches(name, main_estimates):
    lam = main_estimates[name].lam
    extra = [np.cos(np.arange(1.0, len(lam) + 1.0))] if name.endswith("-extra") else None
    _assert_joint_decay_search_is_the_min(build_instance(name), lam, (0.1, 0.05), extra)


@settings(max_examples=40, deadline=None)
@given(case=generated_runs(), distances=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
       with_extra=st.booleans())
def test_decay_search_over_distances_on_generated_specs(case, distances, with_extra):
    spec, cfg = case
    lam = run(spec, cfg).lambda_path[-1]
    extra = [np.cos(np.arange(1.0, len(lam) + 1.0))] if with_extra else None
    _assert_joint_decay_search_is_the_min(spec, lam, tuple(distances), extra)


@pytest.mark.parametrize("decision_set", [None, ExplicitPoints(points=[
    [0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [1.0, 1.0], [0.1, 2.7]])], ids=["grid", "points"])
def test_tail_average_of_chained_runs_is_the_one_run_tail(decision_set, monkeypatch):
    # 1003 steps: a tail of 201 after head runs of 201, 201, 201 and 199;
    # the threshold is lifted so that this short run returns its estimate
    monkeypatch.setattr(tavopt.analysis, "_RESIDUAL_THRESHOLD", math.inf)
    spec = build_instance("polyhedral")
    if decision_set is not None:
        spec = ProblemSpec(decision_set=decision_set, box=tight_box(decision_set),
                           objective=spec.objective, constraints=spec.constraints)
    est = estimate_multiplier(spec, "tail-average", v=MAIN_V, seed=0, tail_horizon=1003)
    rows = run(spec, SolverConfig(v=10.0 * MAIN_V, horizon=1003)).lambda_path[802:-1]
    lam, J = rows.mean(axis=0), spec.constraint_count
    lam[:J] = np.maximum(0.0, lam[:J])
    assert bits(est.lam) == bits(lam)
    residual, d_value = tavopt.analysis._residual_probes(
        spec, lam, default_search_region(spec), 0, extra=rows)  # every row below 512
    assert bits([est.residual, est.d_value]) == bits([residual, d_value])


def test_estimation_failure_raises():
    spec = build_instance("polyhedral")
    with pytest.raises(EstimationError):
        estimate_multiplier(spec, "tail-average", v=MAIN_V, seed=0, tail_horizon=200)


def test_residual_probes_at_the_exact_multiplier():
    # at the polyhedral demo's dual maximizer no probe rises above d, which
    # is the optimum
    spec = build_instance("polyhedral")
    lam = np.array([2.0 / 3.0, 1.0 / 6.0, 0.0, 0.0])
    residual, d_value = tavopt.analysis._residual_probes(spec, lam, default_search_region(spec), 0)
    assert d_value == pytest.approx(POLY_OPT, abs=1e-12)
    assert residual <= 1e-9


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        estimate_multiplier(build_instance("polyhedral"), "newton")


# a 3-D explicit-point problem (the solve-trace benchmark input of seed 1)
# whose estimate sits on a flat face that only the second, shifted grid
# ascent reveals
SHIFTED_ASCENT_PROBLEM = """{"dimension": 3,
 "decision_set": {"points": [[0.5, 2.25, 0.75], [0.75, 2.25, 2.25], [1.0, 2.75, 2.5],
                             [2.0, 2.5, 2.25], [2.0, 2.75, 0.75], [2.5, 0.25, 2.5],
                             [2.5, 1.25, 2.25], [3.0, 2.5, 1.25]]},
 "objective": [{"kind": "quadratic", "curvature": 1.0, "slope": -0.75},
               {"kind": "piecewise_linear", "breakpoints": [1.0, 2.0],
                "slopes": [-1.0, 0.25, 1.5]},
               {"kind": "linear", "slope": 0.5}],
 "constraints": [{"coeffs": [1.5, 1.0, 1.5], "offset": 7.137, "sense": ">="},
                 {"coeffs": [1.5, 1.5, 1.0], "offset": 6.882, "sense": ">="}]}"""


def test_shifted_grid_ascent_finds_a_flat_face_the_probes_miss():
    # estimate_multiplier adds the direction to a second grid ascent's
    # endpoint to its flat-face search; without it, the same search
    # (distances, probes and seed as in estimate_multiplier) finds the
    # dual decaying at every probed direction, so dropping that ascent
    # would flip the flag
    spec = parse_problem_config(SHIFTED_ASCENT_PROBLEM)
    est = estimate_multiplier(spec, "grid-dual-max", seed=0)
    assert est.possibly_nonunique
    alone = minimal_decay_rate(spec, np.asarray(est.lam), est.j_dim, distances=(0.1, 0.05),
                               seed=0, n_probes=512)
    assert alone >= NONUNIQUE_DECAY_TOL


@pytest.mark.parametrize("dims", range(1, 9))
def test_vecdot_keeps_the_per_row_ddot_bits(dims):
    # minimal_decay_rate normalises its proposals by np.sqrt(np.vecdot(u, u));
    # its rates keep their bits only while each row's vecdot is the ddot
    # u @ u, whose root is np.linalg.norm(u)
    rng = np.random.default_rng(dims)
    u = rng.standard_normal((4096, dims)) * 10.0 ** rng.uniform(-3.0, 3.0, (4096, 1))
    assert bits(np.vecdot(u, u)) == bits([row @ row for row in u])
    head = u[:256]
    assert bits(np.sqrt(np.vecdot(head, head))) == bits([np.linalg.norm(row) for row in head])


# ---------------------------------------------------------------------------
# Bound set
# ---------------------------------------------------------------------------

def test_bound_set_formulas():
    m, c, v = 2.0, 112.5, 100.0
    bounds = BoundSet(m=m, c=c, v=v, l_poly=0.5, l_smooth=0.25)
    assert bounds.step_bound == pytest.approx(math.sqrt(2 * c) / v, abs=0)
    assert bounds.b_poly == pytest.approx(max(0.5 / (2 * v), 2 * c / (v * 0.5)), abs=0)
    assert bounds.radius_poly == pytest.approx(bounds.b_poly + bounds.step_bound, abs=0)
    expected_bs = max(v ** -1.5,
                      (math.sqrt(v) + math.sqrt(v + 4 * 0.25 * c * v)) / (2 * 0.25 * v))
    assert bounds.b_smooth == pytest.approx(expected_bs, abs=0)
    assert bounds.radius_smooth == pytest.approx(expected_bs + bounds.step_bound, abs=0)

    plain = BoundSet(m=m, c=c, v=v)
    assert plain.b_poly is None and plain.radius_smooth is None


def test_bound_set_validation():
    with pytest.raises(ValueError):
        BoundSet(m=1.0, c=0.0, v=100.0)
    with pytest.raises(ValueError):
        BoundSet(m=1.0, c=1.0, v=0.5)
    with pytest.raises(ValueError):
        BoundSet(m=1.0, c=1.0, v=100.0, l_poly=0.0)


# ---------------------------------------------------------------------------
# Drift certificate
# ---------------------------------------------------------------------------

def test_drift_certificate_passes_on_reference_run(main_traces, main_estimates):
    trace, _ = main_traces["polyhedral"]
    est = main_estimates["polyhedral"]
    spec = trace.spec
    report = drift_certificate(trace, est.lam, MAIN_V, squared_norm_bound(spec))
    assert report.passed
    assert report.max_slack <= report.tolerance


def test_drift_certificate_holds_for_arbitrary_probe(main_traces):
    trace, _ = main_traces["smooth"]
    rng = np.random.default_rng(17)
    c = squared_norm_bound(trace.spec)
    for _ in range(3):
        probe = rng.standard_normal(4)
        probe[:2] = np.abs(probe[:2])
        report = drift_certificate(trace, probe, MAIN_V, c)
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
    report = drift_certificate(trace, np.zeros(2), v, c)
    # both sides agree up to exactly the 2C/V**2 allowance
    np.testing.assert_allclose(report.slack, -2.0 * c / v ** 2, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(case=generated_runs())
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
        assert drift_certificate(trace, probe, v, c).passed
    # weak duality against the oracle's upper bound on the hull optimum
    try:
        f_opt = solve_reference(spec, 0.1).f_opt
    except (InfeasibilityError, ValueError):  # infeasible, or refused by the oracle
        return
    d, _, _ = dual_function_batch(spec, np.vstack([lam, sample_multipliers(spec, 1.0, 16)]))
    assert np.max(d) <= f_opt + 1e-9 * max(1.0, abs(f_opt))


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
    l_hat = estimate_sharpness(spec, est, seed=0)["polyhedral"]
    bounds = BoundSet(m=lipschitz_bound(spec), c=squared_norm_bound(spec),
                      v=MAIN_V, l_poly=l_hat)
    report = phase_detect(trace, est, bounds, "polyhedral")
    assert report.t_hit is not None
    assert report.absorbed
    assert report.violation_count == 0


def test_phase_region_never_entered():
    from tavopt import MultiplierEstimate

    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=MAIN_V, horizon=64))
    est = MultiplierEstimate(lam=np.array([50.0, 50.0, 50.0, 50.0]), j_dim=2,
                             method="grid-dual-max", residual=0.0, d_value=0.0)
    bounds = BoundSet(m=2.0, c=1.0, v=MAIN_V, l_poly=100.0)
    report = phase_detect(trace, est, bounds, "polyhedral")
    assert report.t_hit is None and not report.absorbed
    assert report.violation_count == 0


def test_smooth_region_absorption(main_traces, main_estimates):
    trace, _ = main_traces["smooth"]
    spec = trace.spec
    est = main_estimates["smooth"]
    l_hat = estimate_sharpness(spec, est, seed=0)["smooth"]
    bounds = BoundSet(m=lipschitz_bound(spec), c=squared_norm_bound(spec),
                      v=MAIN_V, l_smooth=l_hat)
    report = phase_detect(trace, est, bounds, "smooth")
    assert report.t_hit is not None
    assert report.absorbed
    assert report.violation_count == 0


def test_transient_entry_grows_at_most_linearly(main_estimates):
    spec = build_instance("polyhedral")
    est = main_estimates["polyhedral"]
    l_hat = estimate_sharpness(spec, est, seed=0)["polyhedral"]
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
    l_hat = estimate_sharpness(spec, est, seed=0)["smooth"]
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
    l_hat = estimate_sharpness(spec, est, seed=0)["polyhedral"]
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
    l_hat = estimate_sharpness(spec, est, seed=0)["polyhedral"]
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
