import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from tavopt import (
    AffineConstraint,
    DualState,
    ExplicitPoints,
    ExtendedBox,
    GridProduct,
    LinearPiece,
    NumericError,
    PiecewiseLinearPiece,
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

from tavopt.engine import prefix_sums, window_mean

from conftest import bits, build_instance, generated_runs


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

    # a subnormal curvature sends the vertex to +-inf before the clip
    tiny = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=(QuadraticPiece(5e-324, 0.0), LinearPiece(0.0))))
    np.testing.assert_array_equal(y_update(tiny, (), (1.0, -1.0)), [3.0, 0.0])


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

    lam = trace.lambda_path
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


def test_prefix_sums_match_fsum_on_wide_magnitudes():
    # magnitudes 1e-3..1e3 on an offset of 5: a window deep in the prefix is
    # the difference of two large running sums, which a plain cumsum gets
    # wrong by about 1e-12 of the window's mean |value|
    rng = np.random.default_rng(3)
    n = 100_000
    a = 5.0 + rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 2))
    sums = prefix_sums(a)
    plain = np.concatenate([np.zeros((1, 2)), np.cumsum(a, axis=0)])
    windows = [(start, start + length) for length in (1, 3, 10)
               for start in (n // 2, n - 20, n - length)] + [(0, n)]
    worst_plain = 0.0
    for start, stop in windows:
        mean = window_mean(sums, start, stop)
        plain_mean = (plain[stop] - plain[start]) / (stop - start)
        for i in range(2):
            col = a[start:stop, i]
            exact = math.fsum(col) / len(col)
            scale = math.fsum(np.abs(col)) / len(col)
            assert abs(mean[i] - exact) <= 1e-15 * scale
            worst_plain = max(worst_plain, abs(plain_mean[i] - exact) / scale)
    assert worst_plain > 1e-15  # the data does break uncompensated sums


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
    with pytest.raises(ValueError):
        staggered_average(trace, 0, np.array([3, 0]))
    with pytest.raises(ValueError):
        staggered_average(trace, 100, np.array([3, 30]))


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


def test_no_restarts_when_base_none():
    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=25.0, horizon=100, restart_base=None))
    assert len(trace.restart_times) == 0
    np.testing.assert_allclose(trace.xbar_frame, trace.xbar, atol=0)
    np.testing.assert_array_equal(trace.frame_id, np.zeros(100))
    np.testing.assert_array_equal(trace.frame_start, np.zeros(100))


def test_numeric_failure_reports_iteration():
    spec = build_instance("polyhedral")
    cfg = SolverConfig(v=1.0, horizon=4, initial_w=(1e308, 1e308))
    with pytest.raises(NumericError) as err:
        run(spec, cfg)
    assert err.value.iteration == 0


def test_numeric_failure_stops_at_first_recorded_row():
    # the blow-up at t = 0 is reported without running the rest of the horizon
    spec = build_instance("polyhedral")
    cfg = SolverConfig(v=1.0, horizon=10**6, initial_w=(1e308, 1e308))
    with pytest.raises(NumericError) as err:
        run(spec, cfg)
    assert err.value.iteration == 0


# a frame starting with the smallest subnormal after a prefix summing to
# about 2.4: its average must not lose that value to earlier rounding errors
SUBNORMAL_FRAME = (
    ProblemSpec(decision_set=ExplicitPoints(points=[[0.0, 0.0, 0.0], [5e-324, 1.0, 0.0],
                                                    [0.414424499, -0.5, 0.0], [2.0, 0.0, 0.0]]),
                box=ExtendedBox([0.0, -0.5, 0.0], [2.0, 1.0, 0.0]),
                objective=SeparableConvexObjective(pieces=[LinearPiece(0.0)] * 3),
                constraints=[AffineConstraint(coeffs=[0.0, 0.0, 1.0], offset=0.0)]),
    SolverConfig(v=1.0, horizon=9, restart_base=2))


@settings(max_examples=150, deadline=None)
@given(case=generated_runs())
@example(case=SUBNORMAL_FRAME)
def test_run_matches_public_updates_on_generated_specs(case):
    spec, cfg = case
    trace = run(spec, cfg)
    A, b = spec.constraint_matrix()
    T, V = cfg.horizon, cfg.v
    for k, t in enumerate(trace.ts):
        x, y, w, z = (getattr(trace, name)[k].tolist() for name in ("x", "y", "w", "z"))
        assert bits(trace.x[k]) == bits(x_update(spec, trace.z[k]))
        assert bits(trace.y[k]) == bits(y_update(spec, trace.w[k], trace.z[k]))
        if t == T - 1:
            w_next, z_next = trace.w_final, trace.z_final
        else:
            w_next, z_next = trace.w[k + 1], trace.z[k + 1]
        g = []
        for j in range(spec.constraint_count):
            gj = float(b[j])  # summed in the loop's order
            for i in range(spec.dimension):
                gj += float(A[j, i]) * y[i]
            g.append(gj)
        assert bits(w_next) == bits([max(0.0, wj + gj / V) for wj, gj in zip(w, g)])
        assert bits(z_next) == bits([zi + (xi - yi) / V for xi, yi, zi in zip(x, y, z)])
    # averages against exact means; the compensated sums' error is relative
    # to the mean |x|
    for t in range(T):
        start, p = 0, 1
        while cfg.restart_base is not None and p <= t:
            start, p = p, p * cfg.restart_base
        for avg, col, first in ((trace.xbar, trace.x, 0), (trace.ybar, trace.y, 0),
                                (trace.xbar_frame, trace.x, start)):
            window = col[first:t + 1]
            for i in range(spec.dimension):
                mean = math.fsum(window[:, i]) / len(window)
                scale = math.fsum(np.abs(window[:, i])) / len(window)
                assert abs(avg[t, i] - mean) <= 1e-12 * scale


def test_staggered_windows_restart_their_sums():
    # every window of SUBNORMAL_FRAME, one of which holds 5e-324 after a
    # prefix summing to about 2.4, against its exact mean; one call with an
    # array of lengths gives the same bits as one call per length
    spec, cfg = SUBNORMAL_FRAME
    trace = run(spec, cfg)
    T = cfg.horizon
    for start in range(T):
        counts = np.arange(1, T - start + 1)
        averages = staggered_average(trace, start, counts)
        for count, avg in zip(counts.tolist(), averages):
            assert bits(avg) == bits(staggered_average(trace, start, count))
            window = trace.x[start:start + count]
            for i in range(spec.dimension):
                mean = math.fsum(window[:, i]) / count
                scale = math.fsum(np.abs(window[:, i])) / count
                assert abs(avg[i] - mean) <= 1e-12 * scale


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(v=0.5, horizon=10)
    with pytest.raises(ValueError):
        SolverConfig(v=1.0, horizon=0)
    with pytest.raises(ValueError):
        SolverConfig(v=1.0, horizon=10, restart_base=1)
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

    # explicit points in 3-D with one piece of each kind, a row subset that
    # spans more than one block of write_table, every cell checked
    pts = ExplicitPoints(points=[[0.0, 0.25, 3.0], [0.5, 2.75, 1.0], [1.25, 0.0, 2.5],
                                 [2.0, 1.5, 0.0], [3.0, 3.0, 0.75], [0.1, 1.0, 0.3]])
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(
            QuadraticPiece(curvature=1.25, slope=-0.5),
            PiecewiseLinearPiece(breakpoints=(1.0, 2.0), slopes=(-0.75, 0.5, 1.5)),
            LinearPiece(0.75))),
        constraints=(AffineConstraint(coeffs=(-1.0, -0.5, -1.5), offset=2.1),
                     AffineConstraint(coeffs=(-0.5, -2.0, -1.0), offset=1.7)))
    trace = run(spec, SolverConfig(v=30.0, horizon=3001))
    rows = np.append(np.arange(0, 3000, 2), 3000)
    path = tmp_path / "points.csv"
    write_trace_csv(trace, path, rows=rows)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert len(lines) == len(rows) + 1
    A, b = spec.constraint_matrix()
    exact = {"x": trace.x, "y": trace.y, "w": trace.w, "z": trace.z,
             "xbar": trace.xbar, "xbar_frame": trace.xbar_frame}
    for line, k in zip(lines[1:], rows.tolist()):
        cells = dict(zip(header, line.split(",")))
        assert len(cells) == len(header) == len(line.split(","))
        assert int(cells["t"]) == trace.ts[k] == k
        assert int(cells["frame_id"]) == trace.frame_id[k]
        for name, values in exact.items():
            for i, value in enumerate(values[k]):
                assert float(cells[f"{name}_{i + 1}"]) == value
        assert float(cells["d_lambda"]) == trace.d[k]
        assert float(cells["f_xbar"]) == spec.objective.value(trace.xbar[k])
        for j in range(len(b)):
            terms = [float(b[j])] + [float(A[j, i] * trace.xbar[k, i]) for i in range(3)]
            g = float(cells[f"g_{j + 1}_xbar"])
            assert abs(g - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms))
