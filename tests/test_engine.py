import math

import numpy as np
import pytest

from tavopt import (
    AffineConstraint,
    DualState,
    ExplicitPoints,
    GridProduct,
    LinearPiece,
    NumericError,
    ProblemSpec,
    QuadraticPiece,
    SeparableConvexObjective,
    SolverConfig,
    dual_update,
    evaluate_constraints,
    run,
    squared_norm_bound,
    staggered_average,
    tight_box,
    write_trace_csv,
    x_update,
    y_update,
)

from conftest import build_instance


def constant_instance():
    grid = GridProduct(values=((1.0,), (2.0,)))
    return ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(1.0))))


# ---------------------------------------------------------------------------
# x-update
# ---------------------------------------------------------------------------

def test_x_update_examples():
    poly = build_instance("polyhedral")
    np.testing.assert_array_equal(x_update(poly, (1.0, -1.0)), [0.0, 3.0])
    np.testing.assert_array_equal(x_update(poly, (0.0, 0.0)), [0.0, 0.0])

    pts = ExplicitPoints(points=[[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(1.0))))
    np.testing.assert_array_equal(x_update(spec, (1.0, 1.0)), [0.0, 1.0])


@pytest.mark.parametrize("name", ["polyhedral", "smooth"])
def test_x_update_minimizes_over_all_points(name):
    spec = build_instance(name)
    rng = np.random.default_rng(2)
    points = np.array(list(spec.decision_set.iter_points()))
    for z in rng.standard_normal((200, spec.dimension)):
        x = x_update(spec, z)
        assert float(z @ x) <= float(np.min(points @ z)) + 1e-12


def test_x_update_explicit_minimizes():
    rng = np.random.default_rng(3)
    pts = ExplicitPoints(points=rng.uniform(-2.0, 2.0, size=(17, 3)))
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(
            pieces=(LinearPiece(0.0), LinearPiece(0.0), LinearPiece(0.0))))
    for z in rng.standard_normal((100, 3)):
        x = x_update(spec, z)
        assert float(z @ x) <= float(np.min(pts.points @ z)) + 1e-12


# ---------------------------------------------------------------------------
# y-update
# ---------------------------------------------------------------------------

def test_y_update_examples():
    smooth = build_instance("smooth")
    np.testing.assert_allclose(
        y_update(smooth, (0.0, 0.0), (1.0, 1.0)), [0.5, 0.5], atol=1e-15)

    poly = build_instance("polyhedral")
    np.testing.assert_array_equal(y_update(poly, (0.0, 0.0), (0.0, 0.0)), [0.0, 0.0])

    grid = GridProduct(values=((0.0, 3.0), (0.0, 3.0)))
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(
            pieces=(QuadraticPiece(1.0, 0.0), LinearPiece(0.0))),
        constraints=(AffineConstraint(coeffs=(1.0, 0.0), offset=-1.0),))
    np.testing.assert_array_equal(y_update(spec, (2.0,), (0.0, 0.0)), [0.0, 0.0])


def test_y_update_rejects_negative_w():
    poly = build_instance("polyhedral")
    with pytest.raises(ValueError):
        y_update(poly, (-0.1, 0.0), (0.0, 0.0))


@pytest.mark.parametrize("name", ["polyhedral", "smooth", "smooth-extra"])
def test_y_update_minimizes_inner_objective(name):
    spec = build_instance(name)
    rng = np.random.default_rng(4)
    A, b = spec.constraint_matrix()
    for _ in range(100):
        w = np.abs(rng.standard_normal(spec.constraint_count))
        z = rng.standard_normal(spec.dimension)
        y = y_update(spec, w, z)

        def inner(pts):
            return (spec.objective.values(pts) + (pts @ A.T + b) @ w - pts @ z)

        got = inner(y[None, :])[0]
        for i in range(spec.dimension):
            scan = np.repeat(y[None, :], 2001, axis=0)
            scan[:, i] = np.linspace(spec.box.lower[i], spec.box.upper[i], 2001)
            assert got <= np.min(inner(scan)) + 1e-9


# ---------------------------------------------------------------------------
# dual update
# ---------------------------------------------------------------------------

def test_dual_update_examples():
    s = DualState(w=np.array([0.0]), z=np.zeros(2))
    s2 = dual_update(s, np.zeros(2), np.zeros(2), np.array([-1.0]), 1.0)
    np.testing.assert_array_equal(s2.w, [0.0])
    assert s2.t == 1

    s = DualState(w=np.zeros(0), z=np.array([0.0, 0.0]))
    s2 = dual_update(s, np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.zeros(0), 2.0)
    np.testing.assert_allclose(s2.z, [0.25, -0.25], atol=0)

    s = DualState(w=np.array([1.0]), z=np.zeros(1))
    s2 = dual_update(s, np.zeros(1), np.zeros(1), np.array([0.5]), 10.0)
    np.testing.assert_allclose(s2.w, [1.05], atol=0)


def test_dual_state_rejects_negative_w():
    with pytest.raises(ValueError):
        DualState(w=np.array([-1e-9]), z=np.zeros(1))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_single_step_returns_x_update_at_zero():
    poly = build_instance("polyhedral")
    trace = run(poly, SolverConfig(v=100.0, horizon=1))
    np.testing.assert_array_equal(trace.xbar[-1], x_update(poly, np.zeros(2)))
    assert len(trace.ts) == 1


def test_run_deterministic():
    spec = build_instance("smooth")
    cfg = SolverConfig(v=50.0, horizon=5000)
    t1 = run(spec, cfg)
    t2 = run(spec, cfg)
    for name in ("x", "y", "w", "z", "d", "xbar", "ybar", "xbar_frame"):
        np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))
    np.testing.assert_array_equal(t1.w_final, t2.w_final)
    np.testing.assert_array_equal(t1.z_final, t2.z_final)


def test_run_matches_composed_updates_exactly():
    # exact binary arithmetic on this instance, so the comparison is bitwise
    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=4.0, horizon=64))
    state = DualState(w=np.zeros(2), z=np.zeros(2))
    for t in range(64):
        x = x_update(spec, state.z)
        y = y_update(spec, state.w, state.z)
        np.testing.assert_array_equal(trace.x[t], x)
        np.testing.assert_array_equal(trace.y[t], y)
        np.testing.assert_array_equal(trace.w[t], state.w)
        np.testing.assert_array_equal(trace.z[t], state.z)
        g = evaluate_constraints(spec, y)
        state = dual_update(state, x, y, g, 4.0)
    np.testing.assert_array_equal(trace.w_final, state.w)
    np.testing.assert_array_equal(trace.z_final, state.z)


@pytest.mark.parametrize("name", ["polyhedral", "smooth"])
def test_run_invariants(name):
    spec = build_instance(name)
    v = 50.0
    trace = run(spec, SolverConfig(v=v, horizon=20000))
    c = squared_norm_bound(spec)

    assert np.all(trace.w >= 0.0) and np.all(trace.w_final >= 0.0)

    lam = np.vstack([trace.lambda_rows(), trace.lambda_final])
    steps = np.linalg.norm(np.diff(lam, axis=0), axis=1)
    assert np.all(steps <= math.sqrt(2.0 * c) / v + 1e-9)

    # averaging identity: xbar - ybar == (V/T)(z(T) - z(0)) at every T
    z_next = np.vstack([trace.z[1:], trace.z_final])
    T = trace.ts[:, None] + 1.0
    resid = (trace.xbar - trace.ybar) - v / T * (z_next - trace.z[0])
    assert np.max(np.abs(resid)) <= 1e-9

    # constraint telescope: g(ybar(T)) <= (V/T)(w(T) - w(0))
    A, b = spec.constraint_matrix()
    w_next = np.vstack([trace.w[1:], trace.w_final])
    g_ybar = trace.ybar @ A.T + b
    assert np.max(g_ybar - v / T * (w_next - trace.w[0])) <= 1e-9


def test_running_average_matches_recomputation():
    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=25.0, horizon=4096))
    for t in (0, 1, 99, 4095):
        np.testing.assert_allclose(trace.xbar[t], trace.x[:t + 1].mean(axis=0),
                                   atol=1e-12)
        np.testing.assert_allclose(trace.ybar[t], trace.y[:t + 1].mean(axis=0),
                                   atol=1e-12)


def test_staggered_average_examples():
    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=25.0, horizon=2048))
    np.testing.assert_allclose(staggered_average(trace, 0, 512), trace.xbar[511],
                               atol=1e-12)
    window = staggered_average(trace, 300, 700)
    np.testing.assert_allclose(window, trace.x[300:1000].mean(axis=0), atol=1e-12)

    const = run(constant_instance(), SolverConfig(v=10.0, horizon=64))
    np.testing.assert_array_equal(staggered_average(const, 17, 31), [1.0, 2.0])


def test_staggered_average_range_errors():
    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=25.0, horizon=128))
    with pytest.raises(ValueError):
        staggered_average(trace, 100, 100)
    with pytest.raises(ValueError):
        staggered_average(trace, -1, 10)
    with pytest.raises(ValueError):
        staggered_average(trace, 0, 0)
    thinned = run(spec, SolverConfig(v=25.0, horizon=128, record_every=4))
    with pytest.raises(ValueError):
        staggered_average(thinned, 0, 10)


def test_frame_averages_follow_restart_schedule():
    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=25.0, horizon=300, restart_base=2))
    np.testing.assert_array_equal(trace.restart_times, [1, 2, 4, 8, 16, 32, 64, 128, 256])
    for t in (0, 1, 5, 200, 299):
        start = trace.frame_start[t]
        np.testing.assert_allclose(trace.xbar_frame[t],
                                   trace.x[start:t + 1].mean(axis=0), atol=1e-12)
    # frame id counts restarts so far
    assert trace.frame_id[0] == 0
    assert trace.frame_id[1] == 1
    assert trace.frame_id[299] == 9
    # a thinned trace derives the same frames at its logged iterations
    thin = run(spec, SolverConfig(v=25.0, horizon=300, restart_base=2, record_every=7))
    np.testing.assert_array_equal(thin.frame_id, trace.frame_id[thin.ts])
    np.testing.assert_array_equal(thin.frame_start, trace.frame_start[thin.ts])


def test_no_restarts_when_base_none():
    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=25.0, horizon=100, restart_base=None))
    assert len(trace.restart_times) == 0
    np.testing.assert_allclose(trace.xbar_frame, trace.xbar, atol=0)
    np.testing.assert_array_equal(trace.frame_id, np.zeros(100))
    np.testing.assert_array_equal(trace.frame_start, np.zeros(100))


def test_thinned_trace_matches_full_at_logged_points():
    spec = build_instance("smooth")
    full = run(spec, SolverConfig(v=50.0, horizon=1000))
    thin = run(spec, SolverConfig(v=50.0, horizon=1000, record_every=7))
    assert thin.ts[-1] == 999
    idx = thin.ts
    np.testing.assert_array_equal(thin.x, full.x[idx])
    np.testing.assert_array_equal(thin.xbar, full.xbar[idx])
    np.testing.assert_array_equal(thin.xbar_frame, full.xbar_frame[idx])
    np.testing.assert_array_equal(thin.w_final, full.w_final)


def test_numeric_failure_reports_iteration():
    spec = build_instance("polyhedral")
    cfg = SolverConfig(v=1.0, horizon=4, initial_w=(1e308, 1e308))
    with pytest.raises(NumericError) as err:
        run(spec, cfg)
    assert err.value.iteration == 0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(v=0.5, horizon=10)
    with pytest.raises(ValueError):
        SolverConfig(v=1.0, horizon=0)
    with pytest.raises(ValueError):
        SolverConfig(v=1.0, horizon=10, restart_base=1)
    with pytest.raises(ValueError):
        SolverConfig(v=1.0, horizon=10, record_every=0)
    with pytest.raises(ValueError):
        SolverConfig(v=1.0, horizon=10, initial_w=(-1.0,))
    with pytest.raises(ValueError):
        run(build_instance("polyhedral"), SolverConfig(v=1.0, horizon=2, initial_w=(0.0,)))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_trace_csv_roundtrip(tmp_path):
    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=7.0, horizon=50))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "t", "x_1", "x_2", "y_1", "y_2", "w_1", "w_2", "z_1", "z_2", "d_lambda",
        "xbar_1", "xbar_2", "f_xbar", "g_1_xbar", "g_2_xbar",
        "frame_id", "xbar_frame_1", "xbar_frame_2"]
    assert len(lines) == 51
    row = lines[23].split(",")
    t = int(row[0])
    assert t == 22
    assert float(row[1]) == trace.x[t, 0]
    assert float(row[10]) == trace.xbar[t, 0]
    assert float(row[9]) == trace.d[t]

    path2 = tmp_path / "again.csv"
    write_trace_csv(trace, path2)
    assert path.read_bytes() == path2.read_bytes()
