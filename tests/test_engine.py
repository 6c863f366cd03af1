import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from tavopt import (
    AffineConstraint,
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

import tavopt.engine
from tavopt.engine import _TABLE_BLOCK_ROWS, _step_loop_source, running_mean, write_table
from tavopt.problem import _UNROLLED_SCORE_TERMS

from conftest import bits, build_instance, doubling_schedule, generated_runs


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
    points = np.array(list(itertools.product(*spec.decision_set.values)))
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
    w, z = dual_update([0.0], np.zeros(2), np.zeros(2), np.zeros(2), np.array([-1.0]), 1.0)
    np.testing.assert_array_equal(w, [0.0])

    w, z = dual_update(np.zeros(0), np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                       np.array([0.5, 0.5]), np.zeros(0), 2.0)
    np.testing.assert_allclose(z, [0.25, -0.25], atol=0)

    w, z = dual_update(np.array([1.0]), np.zeros(1), np.zeros(1), np.zeros(1), np.array([0.5]), 10.0)
    np.testing.assert_allclose(w, [1.05], atol=0)


def test_dual_update_rejects_negative_w():
    with pytest.raises(ValueError, match="w components must be nonnegative"):
        dual_update(np.array([-1e-9]), np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), 1.0)


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
    w, z = np.zeros(2), np.zeros(2)
    for t in range(64):
        x = x_update(spec, z)
        y = y_update(spec, w, z)
        np.testing.assert_array_equal(trace.x[t], x)
        np.testing.assert_array_equal(trace.y[t], y)
        np.testing.assert_array_equal(trace.w[t], w)
        np.testing.assert_array_equal(trace.z[t], z)
        g = evaluate_constraints(spec, y)
        w, z = dual_update(w, z, x, y, g, 4.0)
    np.testing.assert_array_equal(trace.w_final, w)
    np.testing.assert_array_equal(trace.z_final, z)


def _tenths_points_instance(count):
    # non-dyadic points, so scores summed in another order round apart
    rng = np.random.default_rng(count)
    pts = ExplicitPoints(points=rng.integers(0, 31, size=(count, 3)) / 10)
    return ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(
            QuadraticPiece(0.7, -0.3), PiecewiseLinearPiece((0.9, 1.7), (-1.1, 0.2, 1.3)),
            LinearPiece(0.4))),
        constraints=(AffineConstraint(coeffs=(-0.3, -0.7, -0.1), offset=1.1),
                     AffineConstraint(coeffs=(-0.9, -0.1, -0.6), offset=1.3)))


@pytest.mark.parametrize("count,unrolled", [(8, True), (100, False)])
def test_run_matches_composed_updates_on_both_sides_of_the_unroll(count, unrolled):
    # 8 points in 3-D are scored in the step loop's own lines, 100 by the
    # linear_argmin call; both equal the public updates bit for bit
    spec = _tenths_points_instance(count)
    A, b = spec.constraint_matrix()
    cfg = SolverConfig(v=3.0, horizon=200)
    assert (count * 3 <= _UNROLLED_SCORE_TERMS) == unrolled
    assert ("pick_x(" not in _step_loop_source(spec, cfg)) == unrolled
    trace = run(spec, cfg)
    w, z = np.zeros(2), np.zeros(3)
    for t in range(cfg.horizon):
        x = x_update(spec, z)
        y = y_update(spec, w, z)
        assert bits(trace.x[t]) == bits(x) and bits(trace.y[t]) == bits(y)
        assert bits(trace.w[t]) == bits(w) and bits(trace.z[t]) == bits(z)
        g = []
        for j in range(2):
            gj = float(b[j])  # summed in the loop's order
            for i in range(3):
                gj += float(A[j, i]) * float(y[i])
            g.append(gj)
        w, z = dual_update(w, z, x, y, g, cfg.v)
    assert len(set(map(bytes, trace.x))) > 1  # the run visits several points
    assert bits(trace.w_final) == bits(w) and bits(trace.z_final) == bits(z)


@pytest.mark.parametrize("points,expected", [
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0]),
    ([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]], [0.5, 0.5]),
])
def test_unrolled_scores_break_exact_ties_lexicographically(points, expected):
    # at z = (1, 1) the tied points score exactly equal; the lexicographically
    # smallest of them wins, in the step loop as in x_update
    pts = ExplicitPoints(points=points)
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(1.0))))
    cfg = SolverConfig(v=1.0, horizon=1, initial_z=(1.0, 1.0))
    assert "pick_x(" not in _step_loop_source(spec, cfg)
    trace = run(spec, cfg)
    assert bits(trace.x[0]) == bits(expected) == bits(x_update(spec, (1.0, 1.0)))


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


def test_running_mean_matches_fsum_on_wide_magnitudes():
    # magnitudes 1e-3..1e3 on an offset of 5: a window deep in the array,
    # taken as the difference of two large plain running sums, is wrong by
    # about 1e-12 of the window's mean |value|; the running mean of the
    # window's own slice, as staggered_average and xbar_frame take it, is not
    rng = np.random.default_rng(3)
    n = 100_000
    a = 5.0 + rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 2))
    whole = running_mean(a)
    plain = np.concatenate([np.zeros((1, 2)), np.cumsum(a, axis=0)])
    windows = [(start, start + length) for length in (1, 3, 10)
               for start in (n // 2, n - 20, n - length)] + [(0, n)]
    worst_plain = 0.0
    for start, stop in windows:
        mean = running_mean(a[start:stop])[-1]
        plain_mean = (plain[stop] - plain[start]) / (stop - start)
        for i in range(2):
            col = a[start:stop, i]
            exact = math.fsum(col) / len(col)
            scale = math.fsum(np.abs(col)) / len(col)
            assert abs(mean[i] - exact) <= 1e-15 * scale
            worst_plain = max(worst_plain, abs(plain_mean[i] - exact) / scale)
    assert worst_plain > 1e-15  # the data does break uncompensated sums
    # whole prefixes, from the one running mean of all rows
    for k in (1, 2, 10, 1000, n // 2 + 1, n):
        for i in range(2):
            col = a[:k, i]
            scale = math.fsum(np.abs(col)) / k
            assert abs(whole[k - 1, i] - math.fsum(col) / k) <= 1e-15 * scale


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
    trace = run(spec, SolverConfig(v=25.0, horizon=300))
    np.testing.assert_array_equal(trace.restart_times, [1, 2, 4, 8, 16, 32, 64, 128, 256])
    for t in (0, 1, 5, 200, 299):
        start = trace.frame_start[t]
        np.testing.assert_allclose(trace.xbar_frame[t],
                                   trace.x[start:t + 1].mean(axis=0), atol=1e-12)
    # frame id counts restarts so far
    assert trace.frame_id[0] == 0
    assert trace.frame_id[1] == 1
    assert trace.frame_id[299] == 9


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025, 4097])
def test_restart_times_double_below_the_horizon(horizon):
    trace = run(build_instance("polyhedral"), SolverConfig(v=25.0, horizon=horizon))
    assert trace.restart_times.dtype == np.int64
    np.testing.assert_array_equal(trace.restart_times, doubling_schedule(horizon))


@pytest.mark.parametrize("spec", [build_instance("smooth-extra"), _tenths_points_instance(8)],
                         ids=["grid", "points"])
def test_the_dual_path_is_one_buffer(spec):
    # w, z, w_final and z_final are views of lambda_path, whose last row is
    # the state after the last step; x sits in the same buffer, after (w, z)
    trace = run(spec, SolverConfig(v=7.0, horizon=300))
    for name in ("w", "z", "w_final", "z_final"):
        assert np.shares_memory(trace.lambda_path, getattr(trace, name)), name
    assert trace.x.base is trace.lambda_path.base is not None
    assert np.may_share_memory(trace.x, trace.lambda_path)
    assert trace.x.strides == trace.lambda_path.strides
    stacked = np.vstack([np.hstack([trace.w, trace.z]),
                         np.concatenate([trace.w_final, trace.z_final])])
    assert trace.lambda_path.shape == stacked.shape
    assert bits(trace.lambda_path) == bits(stacked)


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


TRACE_ARRAYS = ("x", "y", "w", "z", "d", "w_final", "z_final")


@pytest.mark.parametrize("spec,horizon", [
    (build_instance("smooth-extra"), 9000),
    (_tenths_points_instance(8), 5000),     # scored in the step loop's lines
    (_tenths_points_instance(100), 3000),   # scored by linear_argmin
], ids=["demo", "8-points", "100-points"])
def test_trace_does_not_depend_on_the_chunk_length(monkeypatch, spec, horizon):
    cfg = SolverConfig(v=7.0, horizon=horizon)
    traces = [run(spec, cfg)]
    for rows in (1, 3):
        monkeypatch.setattr(tavopt.engine, "_CHUNK_ROWS", rows)
        traces.append(run(spec, cfg))
    for name in TRACE_ARRAYS:
        assert bits(getattr(traces[1], name)) == bits(getattr(traces[0], name)), name
        assert bits(getattr(traces[2], name)) == bits(getattr(traces[0], name)), name


@pytest.mark.parametrize("rows", [None, 3])
def test_numeric_failure_past_the_first_chunk_reports_its_iteration(monkeypatch, rows):
    # x = y = 0, z = 0 and g = b = 2**505 at every step, so with V = 1
    # w(t) = (6384 + t) * 2**505 and d(t) = w(t) * b, both exact, until d
    # reaches 2**1024 = inf at t = 16384 - 6384 = 10000, past the first chunk
    if rows is not None:
        monkeypatch.setattr(tavopt.engine, "_CHUNK_ROWS", rows)
    grid = GridProduct(values=((0.0, 1.0),))
    spec = ProblemSpec(decision_set=grid, box=tight_box(grid),
                       objective=SeparableConvexObjective(pieces=(LinearPiece(0.0),)),
                       constraints=(AffineConstraint(coeffs=(1.0,), offset=2.0 ** 505),))
    assert tavopt.engine._CHUNK_ROWS < 10000
    cfg = SolverConfig(v=1.0, horizon=10**6, initial_w=(6384 * 2.0 ** 505,))
    with pytest.raises(NumericError) as err:
        run(spec, cfg)
    assert err.value.iteration == 10000
    trace = run(spec, SolverConfig(v=1.0, horizon=10000, initial_w=cfg.initial_w))
    assert trace.d[-1] == 16383 * 2.0 ** 1010


# a frame starting with the smallest subnormal after a prefix summing to
# about 2.4: its average must not lose that value to earlier rounding errors
SUBNORMAL_FRAME = (
    ProblemSpec(decision_set=ExplicitPoints(points=[[0.0, 0.0, 0.0], [5e-324, 1.0, 0.0],
                                                    [0.414424499, -0.5, 0.0], [2.0, 0.0, 0.0]]),
                box=ExtendedBox([0.0, -0.5, 0.0], [2.0, 1.0, 0.0]),
                objective=SeparableConvexObjective(pieces=[LinearPiece(0.0)] * 3),
                constraints=[AffineConstraint(coeffs=[0.0, 0.0, 1.0], offset=0.0)]),
    SolverConfig(v=1.0, horizon=9))


# pieces whose step-loop lines meet overflow, subnormals and signed zeros
EXTREME_PIECES = (
    ProblemSpec(decision_set=GridProduct(values=((-1.0, 1.0),) * 5),
                box=ExtendedBox([-1.0] * 5, [1.0] * 5),
                objective=SeparableConvexObjective(pieces=[
                    QuadraticPiece(1e308, 0.5), QuadraticPiece(5e-324, -0.25),
                    QuadraticPiece(0.0, 0.3), QuadraticPiece(1.0, -0.0), LinearPiece(-0.0)]),
                constraints=[AffineConstraint(coeffs=[0.5, 1.0, -1.0, 0.25, 1.0], offset=-0.5)]),
    SolverConfig(v=2.0, horizon=40))


@settings(max_examples=150, deadline=None)
@given(case=generated_runs())
@example(case=SUBNORMAL_FRAME)
@example(case=EXTREME_PIECES)
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
        # d from the updates' own values, summed as run() sums it
        d = 0.0
        for piece, yi in zip(spec.objective.pieces, y):
            d += piece.value(yi)
        for wj, gj in zip(w, g):
            d += wj * gj
        for xi, yi, zi in zip(x, y, z):
            d += zi * (xi - yi)
        assert bits(trace.d[k]) == bits(d)
    # averages against exact means; the compensated sums' error is relative
    # to the mean |x|
    for t in range(T):
        start, p = 0, 1
        while p <= t:
            start, p = p, 2 * p
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


def reference_write_table(path, header, columns):
    """write_table as it was before orjson: repr of every .tolist() value."""
    blocks = [c.reshape(len(c), 1) if c.ndim == 1 else c for c in map(np.asarray, columns)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(blocks[0]), _TABLE_BLOCK_ROWS):
            cells = [list(map(repr, col))
                     for block in blocks for col in block[lo:lo + _TABLE_BLOCK_ROWS].T.tolist()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def assert_same_table(tmp_path, columns):
    header = [f"c{k}" for k in range(sum(1 if c.ndim == 1 else c.shape[1] for c in columns))]
    write_table(tmp_path / "new.csv", header, columns)
    reference_write_table(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# the formatter's edge cases: where repr switches to exponent form, the
# non-finite values, signed zeros, the smallest subnormal and int64 extremes
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               np.nextafter(1e-4, 0.0), 1e-4, -1e-4, np.nextafter(1e16, 0.0), 1e16, -1e16,
               1e300, 0.1, 1.0, 2.0 ** 53, 123.456]


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257])
def test_write_table_matches_repr_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    floats = np.resize(np.array(EDGE_FLOATS), (n, 3))
    floats[:, 1] = rng.permutation(floats[:, 1])
    ints = np.resize(np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 7]), n)
    # floats sits inside one float run, between 1-D float columns, so its
    # edge values (in every column, the last included) are not at the run's
    # first columns; a zero-width block sits inside that run too; two int64
    # columns are adjacent
    assert_same_table(tmp_path, [
        np.arange(n), rng.standard_normal(n), floats, rng.standard_normal(n), np.empty((n, 0)),
        rng.standard_normal((n, 2)), ints, ints[::-1],
        np.resize(np.array([np.iinfo(np.uint64).max, 0], dtype=np.uint64), n),
        rng.standard_normal(n) > 0.0,  # bool
        rng.standard_normal(n).astype(np.float32),
        rng.standard_normal(n).astype(">f8"),  # big-endian: orjson misreads it
        np.empty((n, 0)), rng.standard_normal(n)])


def test_write_table_matches_repr_writer_on_random_doubles(tmp_path):
    rng = np.random.default_rng(11)
    # random bit patterns: nans, infinities, subnormals and every exponent range
    bit_patterns = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64)
    # magnitudes across repr's switch to exponent form at 1e16
    log_uniform = 10.0 ** rng.uniform(-6.0, 18.0, size=100_000)
    log_uniform[::2] *= -1.0
    assert_same_table(tmp_path, [bit_patterns, log_uniform])


def test_write_table_rejects_columns_of_other_lengths(tmp_path):
    with pytest.raises(ValueError, match="column 2 has 4 rows, column 0 has 5"):
        write_table(tmp_path / "bad.csv", ["a", "b", "c"],
                    [np.arange(5), np.zeros((5, 1)), np.zeros(4)])
    assert not (tmp_path / "bad.csv").exists()
