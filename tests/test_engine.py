import ctypes
import itertools
import logging
import math
import os
import shutil
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from tavopt.engine import _TABLE_BLOCK_ROWS, _join_rows, running_mean, write_table

from conftest import bits, build_instance, doubling_schedule, generated_runs


@pytest.fixture
def each_path(monkeypatch):
    """The two forms of the compiled helpers, running_mean and write_table's
    row join (_join_rows), for a test to loop over: first the compiled ones,
    then, with _kernel patched to None until the test ends, the Python forms
    that run without a compiler."""
    def paths():
        assert tavopt.engine._kernel() is not None
        yield "compiled"
        monkeypatch.setattr(tavopt.engine, "_kernel", lambda: None)
        yield "python"
    return paths()


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

    # a nan g(y) clamps to 0, as run()'s step loop and composed steps clamp it
    w, z = dual_update([1.0], [0.0], [0.0], [0.0], [math.nan], 1.0)
    np.testing.assert_array_equal(w, [0.0])


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


@pytest.mark.parametrize("count", [8, 100, 1000])
def test_run_matches_composed_updates_on_explicit_sets(count):
    # the step loop scores every point of a set of any size; its picks and
    # states equal the public updates bit for bit
    spec = _tenths_points_instance(count)
    A, b = spec.constraint_matrix()
    cfg = SolverConfig(v=3.0, horizon=200)
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
    # smallest of them wins, in the step loop's scores as in x_update
    pts = ExplicitPoints(points=points)
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(1.0), LinearPiece(1.0))))
    cfg = SolverConfig(v=1.0, horizon=1, initial_z=(1.0, 1.0))
    trace = run(spec, cfg)
    assert bits(trace.x[0]) == bits(expected) == bits(x_update(spec, (1.0, 1.0)))


def test_a_nan_score_is_the_minimum_as_in_argmin():
    # at z = (1e300, -1e300) the first point scores 0 + -inf = -inf and the
    # second inf + -inf = nan, which numpy's argmin, and so x_update, takes
    # as the minimum; there x = y, so the state never changes and d stays 0
    pts = ExplicitPoints(points=[[0.0, 1e10], [1e10, 1e10]])
    spec = ProblemSpec(
        decision_set=pts, box=tight_box(pts),
        objective=SeparableConvexObjective(pieces=(LinearPiece(0.0), LinearPiece(0.0))))
    cfg = SolverConfig(v=1.0, horizon=3, initial_z=(1e300, -1e300))
    with np.errstate(over="ignore", invalid="ignore"):
        assert bits(x_update(spec, cfg.initial_z)) == bits([1e10, 1e10])
    trace = run(spec, cfg)
    assert bits(trace.x) == bits([[1e10, 1e10]] * 3)
    assert bits(trace.z_final) == bits(cfg.initial_z) and bits(trace.d) == bits([0.0] * 3)


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


def test_running_mean_matches_fsum_on_wide_magnitudes(each_path):
    # magnitudes 1e-3..1e3 on an offset of 5: a window deep in the array,
    # taken as the difference of two large plain running sums, is wrong by
    # about 1e-12 of the window's mean |value|; the running mean of the
    # window's own slice, as staggered_average and xbar_frame take it, is not
    rng = np.random.default_rng(3)
    n = 100_000
    a = 5.0 + rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 2))
    plain = np.concatenate([np.zeros((1, 2)), np.cumsum(a, axis=0)])
    windows = [(start, start + length) for length in (1, 3, 10)
               for start in (n // 2, n - 20, n - length)] + [(0, n)]
    for path in each_path:
        whole = running_mean(a)
        worst_plain = 0.0
        for start, stop in windows:
            mean = running_mean(a[start:stop])[-1]
            plain_mean = (plain[stop] - plain[start]) / (stop - start)
            for i in range(2):
                col = a[start:stop, i]
                exact = math.fsum(col) / len(col)
                scale = math.fsum(np.abs(col)) / len(col)
                assert abs(mean[i] - exact) <= 1e-15 * scale, path
                worst_plain = max(worst_plain, abs(plain_mean[i] - exact) / scale)
        assert worst_plain > 1e-15  # the data does break uncompensated sums
        # whole prefixes, from the one running mean of all rows
        for k in (1, 2, 10, 1000, n // 2 + 1, n):
            for i in range(2):
                col = a[:k, i]
                scale = math.fsum(np.abs(col)) / k
                assert abs(whole[k - 1, i] - math.fsum(col) / k) <= 1e-15 * scale, path


def _numpy_running_mean(a):
    # warnings are errors here, so this also shows the NumPy form is as
    # quiet as the compiled one where a sum overflows
    with mock.patch.object(tavopt.engine, "_kernel", lambda: None):
        return running_mean(a)


def assert_same_doubles(got, expected):
    """Equal shapes and bits, every NaN compared only as a NaN."""
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert bits(np.where(nan, 0.0, got)) == bits(np.where(nan, 0.0, expected))


# signed zeros, subnormals, the extremes and the non-finite values
SPECIAL_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308, math.inf, -math.inf, math.nan, 1.0, -1.0, 1e-300]


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 40), cols=st.integers(1, 11),
       values=st.lists(st.one_of(st.sampled_from(SPECIAL_DOUBLES), st.floats()),
                       min_size=1, max_size=64),
       seed=st.integers(0, 2 ** 32 - 1))
def test_compiled_running_mean_has_the_bits_of_the_numpy_form(rows, cols, values, seed):
    # values drawn from a pool of specials and any doubles, placed at
    # random; more than 8 columns takes the kernel's column blocks
    a = np.random.default_rng(seed).choice(np.array(values), (rows, cols))
    assert tavopt.engine._kernel() is not None
    for view in (a, a[::-1, ::-1], np.asfortranarray(a), a[rows // 2:]):
        assert_same_doubles(running_mean(view), _numpy_running_mean(view))


def test_compiled_running_mean_on_run_buffers():
    # the trace's columns are strided views of run()'s one row buffer
    trace = run(SUBNORMAL_FRAME[0], SolverConfig(v=1.0, horizon=3000))
    big = run(EXTREME_PIECES[0], SolverConfig(v=2.0, horizon=3000))
    assert tavopt.engine._kernel() is not None
    for a in (trace.x, trace.y, trace.lambda_path, big.x, big.y, big.z, big.lambda_path[:, 1:],
              trace.x[::7], trace.x[:0], trace.x[:1], trace.x[1:2], trace.x[1237:], big.y[2047:]):
        assert_same_doubles(running_mean(a), _numpy_running_mean(a))
    with mock.patch.object(tavopt.engine, "_kernel", lambda: None):
        composed = run(SUBNORMAL_FRAME[0], SolverConfig(v=1.0, horizon=3000))
        expected = {name: getattr(composed, name) for name in ("xbar", "ybar", "xbar_frame")}
        windows = staggered_average(composed, 1000, np.array([1, 17, 2000]))
    for name, values in expected.items():
        assert_same_doubles(getattr(trace, name), values)
    assert_same_doubles(staggered_average(trace, 1000, np.array([1, 17, 2000])), windows)


def test_staggered_average_examples(each_path):
    spec = build_instance("polyhedral")
    trace = run(spec, SolverConfig(v=25.0, horizon=2048))
    window = staggered_average(trace, 300, 700)
    np.testing.assert_allclose(window, trace.x[300:1000].mean(axis=0), atol=1e-12)

    const = run(constant_instance(), SolverConfig(v=10.0, horizon=64))
    np.testing.assert_array_equal(staggered_average(const, 17, 31), [1.0, 2.0])

    # the window from 0 is the plain average, bit for bit, in both forms:
    # row k of the running mean reads only rows 0..k
    counts = np.array([1, 2, 17, 511, 512, 2047, 2048])
    for _ in each_path:
        trace = run(spec, SolverConfig(v=25.0, horizon=2048))
        assert bits(staggered_average(trace, 0, counts)) == bits(trace.xbar[counts - 1])
        assert bits(staggered_average(trace, 0, 512)) == bits(trace.xbar[511])
        assert bits(staggered_average(trace, 0, counts[:3])) == bits(trace.xbar[counts[:3] - 1])


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
    # the state after the last step; x and y sit in the same buffer, after
    # (w, z)
    trace = run(spec, SolverConfig(v=7.0, horizon=300))
    for name in ("w", "z", "w_final", "z_final"):
        assert np.shares_memory(trace.lambda_path, getattr(trace, name)), name
    for name in ("x", "y"):
        col = getattr(trace, name)
        assert col.base is trace.lambda_path.base is not None, name
        assert np.may_share_memory(col, trace.lambda_path), name
        assert col.strides == trace.lambda_path.strides, name
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
    (_tenths_points_instance(8), 5000),
    (_tenths_points_instance(100), 3000),
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


def _blow_up_case():
    # x = y = 0, z = 0 and g = b = 2**505 at every step, so with V = 1
    # w(t) = (6384 + t) * 2**505 and d(t) = w(t) * b, both exact, until d
    # reaches 2**1024 = inf at t = 16384 - 6384 = 10000
    grid = GridProduct(values=((0.0, 1.0),))
    spec = ProblemSpec(decision_set=grid, box=tight_box(grid),
                       objective=SeparableConvexObjective(pieces=(LinearPiece(0.0),)),
                       constraints=(AffineConstraint(coeffs=(1.0,), offset=2.0 ** 505),))
    return spec, SolverConfig(v=1.0, horizon=10**6, initial_w=(6384 * 2.0 ** 505,))


@pytest.mark.parametrize("rows", [None, 3])
def test_numeric_failure_past_the_first_chunk_reports_its_iteration(monkeypatch, rows):
    if rows is not None:
        monkeypatch.setattr(tavopt.engine, "_CHUNK_ROWS", rows)
    spec, cfg = _blow_up_case()
    assert tavopt.engine._CHUNK_ROWS < 10000  # t = 10000 lies past the first chunk
    with pytest.raises(NumericError) as err:
        run(spec, cfg)
    assert err.value.iteration == 10000
    trace = run(spec, SolverConfig(v=1.0, horizon=10000, initial_w=cfg.initial_w))
    assert trace.d[-1] == 16383 * 2.0 ** 1010


@st.composite
def extreme_runs(draw):
    """A spec and config with data near the largest doubles: coefficients,
    offsets, slopes and grid values up to 1e300, initial multipliers near
    +-1e308 and V from 1 to 1e300."""
    I, J = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    big = st.floats(-1e300, 1e300) | st.sampled_from([-1e300, -1.0, 0.0, 1.0, 1e300])
    edge = st.floats(-1.7e308, 1.7e308) | st.sampled_from([-1.7e308, -1e308, 0.0, 1e308, 1.7e308])
    coord = st.floats(-1e3, 1e3) | st.sampled_from([-1e300, 1e300])
    values = [tuple(sorted(draw(st.lists(coord, min_size=1, max_size=3, unique=True))))
              for _ in range(I)]
    grid = GridProduct(values=values)
    pieces = [draw(st.builds(LinearPiece, big)
                   | st.builds(QuadraticPiece, st.floats(0.0, 1e300), big)
                   | st.builds(PiecewiseLinearPiece, st.just((0.0,)),
                               st.tuples(big, big).map(sorted)))
              for _ in range(I)]
    constraints = [AffineConstraint(coeffs=draw(st.lists(big, min_size=I, max_size=I).filter(any)),
                                    offset=draw(big)) for _ in range(J)]
    spec = ProblemSpec(decision_set=grid, box=tight_box(grid),
                       objective=SeparableConvexObjective(pieces=pieces), constraints=constraints)
    cfg = SolverConfig(v=draw(st.floats(1.0, 1e300) | st.sampled_from([1.0, 1e300])),
                       horizon=draw(st.integers(1, 6)),
                       initial_w=[abs(u) for u in draw(st.lists(edge, min_size=J, max_size=J))],
                       initial_z=draw(st.lists(edge, min_size=I, max_size=I)))
    return spec, cfg


@settings(max_examples=300, deadline=None)
@given(case=extreme_runs())
def test_a_run_either_raises_or_ends_at_a_finite_multiplier(case):
    # run() checks d only: a final multiplier that overflows would have made
    # d of the last row non-finite first, so a run that returns ends finite
    spec, cfg = case
    assert tavopt.engine._kernel() is not None
    for kernel in (tavopt.engine._kernel(), None):
        with mock.patch.object(tavopt.engine, "_kernel", lambda: kernel):
            try:
                trace = run(spec, cfg)
            except NumericError:
                continue
        assert np.all(np.isfinite(trace.lambda_path))


# a frame starting with the smallest subnormal after a prefix summing to
# about 2.4: its average must not lose that value to earlier rounding errors
SUBNORMAL_FRAME = (
    ProblemSpec(decision_set=ExplicitPoints(points=[[0.0, 0.0, 0.0], [5e-324, 1.0, 0.0],
                                                    [0.414424499, -0.5, 0.0], [2.0, 0.0, 0.0]]),
                box=ExtendedBox([0.0, -0.5, 0.0], [2.0, 1.0, 0.0]),
                objective=SeparableConvexObjective(pieces=[LinearPiece(0.0)] * 3),
                constraints=[AffineConstraint(coeffs=[0.0, 0.0, 1.0], offset=0.0)]),
    SolverConfig(v=1.0, horizon=9))


# pieces whose minimizers meet overflow, subnormals and signed zeros
EXTREME_PIECES = (
    ProblemSpec(decision_set=GridProduct(values=((-1.0, 1.0),) * 5),
                box=ExtendedBox([-1.0] * 5, [1.0] * 5),
                objective=SeparableConvexObjective(pieces=[
                    QuadraticPiece(1e308, 0.5), QuadraticPiece(5e-324, -0.25),
                    QuadraticPiece(0.0, 0.3), QuadraticPiece(1.0, -0.0), LinearPiece(-0.0)]),
                constraints=[AffineConstraint(coeffs=[0.5, 1.0, -1.0, 0.25, 1.0], offset=-0.5)]),
    SolverConfig(v=2.0, horizon=40))


# piecewise-linear pieces on boxes with signed-zero ends: -0.0 slopes, no
# breakpoint inside the box, and 3000 breakpoints inside it
PIECEWISE_EDGES = (
    ProblemSpec(decision_set=GridProduct(values=((-1.0, 1.0), (0.0, 1.0), (-1.0, -0.0),
                                                 (-1.0, 1.0), (-1.0, 1.0))),
                box=ExtendedBox([-1.0, 0.0, -1.0, -1.0, -1.0], [1.0, 1.0, -0.0, 1.0, 1.0]),
                objective=SeparableConvexObjective(pieces=[
                    PiecewiseLinearPiece((0.5,), (-0.0, 1.0)), PiecewiseLinearPiece((), (-0.0,)),
                    PiecewiseLinearPiece((), (0.5,)),
                    PiecewiseLinearPiece((-3.0, 2.0), (-1.0, 0.3, 2.0)),
                    PiecewiseLinearPiece(tuple(np.linspace(-0.999, 0.999, 3000)),
                                         tuple(np.linspace(-2.5, 2.5, 3001)))]),
                constraints=[AffineConstraint(coeffs=[0.5, -1.0, 0.25, 1.0, -0.5], offset=0.1)]),
    SolverConfig(v=2.0, horizon=60))


# c = -slope exactly at t = 0 on every coordinate (z starts at the slope and
# there is no constraint): ties go to lo on the linear pieces, and to the
# breakpoint whose right slope ties on the piecewise-linear ones
SLOPE_TIES = (
    ProblemSpec(decision_set=GridProduct(values=((-1.0, 1.0),) * 4),
                box=ExtendedBox([-1.0] * 4, [1.0] * 4),
                objective=SeparableConvexObjective(pieces=[
                    LinearPiece(0.5), QuadraticPiece(0.0, -0.25),
                    PiecewiseLinearPiece((0.5,), (-0.0, 1.0)),
                    PiecewiseLinearPiece((-0.5, 0.0, 0.5), (-1.5, -0.5, 0.5, 1.5))])),
    SolverConfig(v=4.0, horizon=30, initial_z=(0.5, -0.25, 1.0, 0.5)))


@settings(max_examples=150, deadline=None)
@given(case=generated_runs())
@example(case=SUBNORMAL_FRAME)
@example(case=EXTREME_PIECES)
@example(case=PIECEWISE_EDGES)
@example(case=SLOPE_TIES)
# every score ties at z = 0, so the first point must win at t = 0
@example(case=(_tenths_points_instance(8), SolverConfig(v=3.0, horizon=40)))
@example(case=(_tenths_points_instance(100), SolverConfig(v=3.0, horizon=40)))
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
            d += float(piece.values(np.array(yi)))
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


@st.composite
def dyadic_linear_grids(draw):
    """A linear grid spec whose every g_j is an exact sum: integer grids and
    offsets, quarter slopes and half-integer coefficients; with a run config
    and a permutation of its coordinates."""
    I, J = draw(st.integers(2, 4)), draw(st.integers(0, 3))
    values = st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True).map(sorted)
    grid = GridProduct(values=[draw(values) for _ in range(I)])
    halves = st.lists(st.integers(-6, 6).map(lambda k: k / 2), min_size=I, max_size=I)
    spec = ProblemSpec(
        decision_set=grid, box=tight_box(grid),
        objective=SeparableConvexObjective(pieces=[
            LinearPiece(draw(st.integers(-8, 8)) / 4) for _ in range(I)]),
        constraints=[AffineConstraint(coeffs=draw(halves.filter(any)),
                                      offset=draw(st.integers(-4, 4))) for _ in range(J)])
    cfg = SolverConfig(v=draw(st.floats(1.0, 20.0)), horizon=draw(st.integers(1, 300)))
    return spec, cfg, draw(st.permutations(range(I)))


def _permuted(spec, perm):
    """spec with coordinate k of the result taken from coordinate perm[k]."""
    return ProblemSpec(
        decision_set=GridProduct(values=[spec.decision_set.values[i] for i in perm]),
        box=ExtendedBox(spec.box.lower[perm], spec.box.upper[perm]),
        objective=SeparableConvexObjective(pieces=[spec.objective.pieces[i] for i in perm]),
        constraints=[AffineConstraint(coeffs=np.asarray(c.coeffs)[perm], offset=c.offset)
                     for c in spec.constraints])


@settings(max_examples=60, deadline=None)
@given(case=dyadic_linear_grids())
def test_permuting_coordinates_permutes_a_dyadic_linear_trace(case):
    # with dyadic data every g_j is an exact sum, and c_i sums over the
    # constraints only, so no step depends on the order of the coordinates:
    # x, y and z permute bitwise and w is unchanged.  d sums the terms
    # z_i*(x_i - y_i) in the new order, so it may round differently.  Where
    # g or a vertex division rounds, as on figure 5 and the diagnose-grid
    # problem, y, z, w and d all move in the last bits.
    spec, cfg, perm = case
    trace, permuted = run(spec, cfg), run(_permuted(spec, perm), cfg)
    for name in ("x", "y", "z", "z_final"):
        assert bits(getattr(trace, name)[..., perm]) == bits(getattr(permuted, name)), name
    assert bits(trace.w) == bits(permuted.w) and bits(trace.w_final) == bits(permuted.w_final)
    scale = np.abs(trace.d) + np.sum(np.abs(trace.z * (trace.x - trace.y)), axis=1)
    assert np.all(np.abs(permuted.d - trace.d) <= 1e-12 * scale)


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
# the compiled step loop: its cache and the fallback without it
# ---------------------------------------------------------------------------

@pytest.fixture
def reload_kernel():
    """Forget the loaded step kernel before and after the test, so that
    run() loads it again under the cache and PATH the test sets."""
    tavopt.engine._kernel.cache_clear()
    yield
    tavopt.engine._kernel.cache_clear()


def _counting_cc(tmp_path, monkeypatch):
    """Put a cc that logs each call before running the real one first on an
    otherwise empty PATH; returns the log."""
    real, log = shutil.which("cc"), tmp_path / "cc.log"
    assert real is not None
    cc = tmp_path / "bin" / "cc"
    cc.parent.mkdir()
    cc.write_text(f'#!/bin/sh\necho cc >> "{log}"\n'
                  f'PATH="{os.environ["PATH"]}" exec "{real}" "$@"\n')
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(cc.parent))
    log.write_text("")
    return log


def test_an_empty_cache_is_compiled_into_once(reload_kernel, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    log = _counting_cc(tmp_path, monkeypatch)
    spec, cfg = build_instance("smooth-extra"), SolverConfig(v=7.0, horizon=500)
    first = run(spec, cfg)
    tavopt.engine._kernel.cache_clear()  # as a new process would, load it again
    second = run(spec, cfg)
    assert log.read_text() == "cc\n"
    cache = tmp_path / "cache" / "tavopt"
    assert [p.suffix for p in cache.iterdir()] == [".so"]
    assert cache.stat().st_mode & 0o777 == 0o700
    for name in TRACE_ARRAYS:
        assert bits(getattr(first, name)) == bits(getattr(second, name)), name


def test_a_build_keeps_the_eight_newest_libraries(reload_kernel, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    log = _counting_cc(tmp_path, monkeypatch)
    cache = tmp_path / "cache" / "tavopt"
    cache.mkdir(parents=True)
    # nine libraries of older builds, fakes[0] the newest, back-dated by an hour and more
    fakes = [f"{k:016x}.so" for k in range(9)]
    for k, name in enumerate(fakes):
        (cache / name).write_bytes(b"old")
        os.utime(cache / name, (time.time() - 3600 * (k + 1),) * 2)
    (cache / "notes.txt").write_text("not a library")
    spec, cfg = build_instance("smooth"), SolverConfig(v=7.0, horizon=50)
    run(spec, cfg)
    assert log.read_text() == "cc\n"
    [built] = set(os.listdir(cache)) - set(fakes) - {"notes.txt"}
    assert sorted(os.listdir(cache)) == sorted([*fakes[:7], built, "notes.txt"])
    # a cache hit deletes nothing, not even with a tenth library in the way
    (cache / fakes[8]).write_bytes(b"old")
    os.utime(cache / fakes[8], (time.time() - 36000,) * 2)
    tavopt.engine._kernel.cache_clear()
    run(spec, cfg)
    assert log.read_text() == "cc\n"
    assert sorted(os.listdir(cache)) == sorted([*fakes[:7], fakes[8], built, "notes.txt"])


def test_an_unwritable_cache_still_gives_the_compiled_loop(reload_kernel, tmp_path, monkeypatch,
                                                           caplog):
    # a file where the cache's parent directory should be: no directory can
    # be made there, whoever runs the test
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    log = _counting_cc(tmp_path, monkeypatch)
    with caplog.at_level(logging.WARNING, logger="tavopt.engine"):
        run(build_instance("smooth"), SolverConfig(v=7.0, horizon=50))
    assert tavopt.engine._kernel() is not None
    assert log.read_text() == "cc\n" and caplog.records == []


def test_a_truncated_cached_library_is_rebuilt(reload_kernel, tmp_path, monkeypatch):
    spec, cfg = _tenths_points_instance(8), SolverConfig(v=7.0, horizon=500)
    log = _counting_cc(tmp_path, monkeypatch)  # the compiler is part of the name
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "first"))
    expected = run(spec, cfg)
    [built] = (tmp_path / "first" / "tavopt").iterdir()
    # the first half of it, in another cache: the loaded file is never written
    cache = tmp_path / "second" / "tavopt"
    cache.mkdir(parents=True)
    data = built.read_bytes()
    (cache / built.name).write_bytes(data[:len(data) // 2])
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "second"))
    tavopt.engine._kernel.cache_clear()
    log.write_text("")
    trace = run(spec, cfg)
    assert tavopt.engine._kernel() is not None and log.read_text() == "cc\n"
    assert (cache / built.name).stat().st_size > len(data) // 2
    for name in TRACE_ARRAYS:
        assert bits(getattr(trace, name)) == bits(getattr(expected, name)), name


@pytest.mark.parametrize("case", [
    EXTREME_PIECES, SUBNORMAL_FRAME, (_tenths_points_instance(100), SolverConfig(v=3.0, horizon=300)),
], ids=["extreme-pieces", "subnormal-frame", "100-points"])
def test_without_a_compiler_run_composes_the_public_updates(reload_kernel, tmp_path, monkeypatch,
                                                            caplog, case):
    spec, cfg = case
    compiled = run(spec, cfg)
    blow_up, blow_cfg = _blow_up_case()
    with pytest.raises(NumericError) as compiled_err:
        run(blow_up, blow_cfg)
    tavopt.engine._kernel.cache_clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", str(tmp_path))  # no cc on it
    with caplog.at_level(logging.WARNING, logger="tavopt.engine"):
        composed = run(spec, cfg)
        with pytest.raises(NumericError) as composed_err:
            run(blow_up, blow_cfg)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]  # once per process
    assert tavopt.engine._kernel() is None
    for name in TRACE_ARRAYS:
        assert bits(getattr(composed, name)) == bits(getattr(compiled, name)), name
    assert composed_err.value.iteration == compiled_err.value.iteration == 10000


@settings(max_examples=25, deadline=None)
@given(case=generated_runs())
def test_without_a_compiler_generated_specs_give_the_compiled_trace(case):
    # _kernel() is None exactly when there is no working compiler
    spec, cfg = case
    assert tavopt.engine._kernel() is not None
    compiled = run(spec, cfg)
    with mock.patch.object(tavopt.engine, "_kernel", lambda: None):
        composed = run(spec, cfg)
    for name in TRACE_ARRAYS:
        assert bits(getattr(composed, name)) == bits(getattr(compiled, name)), name


def test_a_failing_compiler_gives_the_composed_updates(reload_kernel, tmp_path, monkeypatch,
                                                        caplog):
    cc = tmp_path / "bin" / "cc"
    cc.parent.mkdir()
    cc.write_text('#!/bin/sh\necho "cc: no space left" >&2\nexit 1\n')
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(cc.parent))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    spec, cfg = build_instance("smooth-extra"), SolverConfig(v=7.0, horizon=300)
    with caplog.at_level(logging.WARNING, logger="tavopt.engine"):
        trace = run(spec, cfg)
    assert tavopt.engine._kernel() is None
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    message = caplog.records[0].getMessage()
    assert "cc: no space left" in message
    assert "averages take the NumPy running mean" in message
    assert "write_table joins its rows in Python" in message
    assert list((tmp_path / "cache" / "tavopt").iterdir()) == []  # no partial file left
    tavopt.engine._kernel.cache_clear()
    monkeypatch.undo()
    expected = run(spec, cfg)
    for name in TRACE_ARRAYS:
        assert bits(getattr(trace, name)) == bits(getattr(expected, name)), name


def _fresh_python(code, cache):
    """Run code in a new interpreter that imports tavopt from this tree,
    with the kernel cache in the given directory."""
    src = os.path.dirname(os.path.dirname(tavopt.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_importing_tavopt_compiles_nothing(tmp_path):
    _fresh_python("import sys, tavopt\n"
                  "assert 'subprocess' not in sys.modules\n"
                  "assert tavopt.engine._kernel.cache_info().currsize == 0\n", tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_the_kernel_cache_loads_no_hashlib(tmp_path):
    # the cached library is named and checked with zlib, which numpy loads
    # anyway; hashlib would load OpenSSL's libcrypto, 3.6 MB of RSS
    code = ("import sys, tavopt\n"
            "from tavopt.cli import reference_instance\n"
            "tavopt.run(reference_instance(), tavopt.SolverConfig(v=7.0, horizon=50))\n"
            "assert tavopt.engine._kernel() is not None\n"
            "assert '_hashlib' not in sys.modules\n")
    _fresh_python(code, tmp_path)  # builds the library into the cache
    _fresh_python(code, tmp_path)  # and checks the cached one
    [built] = (tmp_path / "tavopt").iterdir()
    assert len(built.name) == len("0123456789abcdef.so")


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_trace_csv_roundtrip(tmp_path, each_path):
    for _ in each_path:
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
def test_write_table_matches_repr_writer(tmp_path, each_path, n):
    rng = np.random.default_rng(n)
    floats = np.resize(np.array(EDGE_FLOATS), (n, 3))
    floats[:, 1] = rng.permutation(floats[:, 1])
    ints = np.resize(np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 7]), n)
    # floats sits inside one float run, between 1-D float columns, so its
    # edge values (in every column, the last included) are not at the run's
    # first columns; a zero-width block sits inside that run too; two int64
    # columns are adjacent
    columns = [
        np.arange(n), rng.standard_normal(n), floats, rng.standard_normal(n), np.empty((n, 0)),
        rng.standard_normal((n, 2)), ints, ints[::-1],
        np.resize(np.array([np.iinfo(np.uint64).max, 0], dtype=np.uint64), n),
        rng.standard_normal(n) > 0.0,  # bool
        rng.standard_normal(n).astype(np.float32),
        rng.standard_normal(n).astype(">f8"),  # big-endian: orjson misreads it
        np.empty((n, 0)), rng.standard_normal(n)]
    for _ in each_path:
        assert_same_table(tmp_path, columns)


def test_write_table_matches_repr_writer_on_random_doubles(tmp_path, each_path):
    rng = np.random.default_rng(11)
    # random bit patterns: nans, infinities, subnormals and every exponent range
    bit_patterns = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64)
    # magnitudes across repr's switch to exponent form at 1e16
    log_uniform = 10.0 ** rng.uniform(-6.0, 18.0, size=100_000)
    log_uniform[::2] *= -1.0
    for _ in each_path:
        assert_same_table(tmp_path, [bit_patterns, log_uniform])


def test_write_table_rejects_columns_of_other_lengths(tmp_path):
    with pytest.raises(ValueError, match="column 2 has 4 rows, column 0 has 5"):
        write_table(tmp_path / "bad.csv", ["a", "b", "c"],
                    [np.arange(5), np.zeros((5, 1)), np.zeros(4)])
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("header,columns,match", [
    ([], [], "header has 0 names for 0 cell columns"),
    (["a", "b", "c"], [np.zeros(4)], "header has 3 names for 1 cell columns"),
    ([], [np.empty((600, 0)), np.empty((600, 0))], "header has 0 names for 0 cell columns"),
    (["a", "b"], [np.zeros(2), np.array(["x", "y"])], r"column 1 has dtype <U1"),
    (["a"], [np.array([None, 1.0])], "column 0 has dtype object"),
    (["a"], [np.array(["2026-01-01"], dtype="datetime64[D]")], "column 0 has dtype datetime64"),
], ids=["no-columns", "long-header", "zero-width", "str", "object", "datetime"])
def test_write_table_refuses_malformed_tables(tmp_path, header, columns, match):
    with pytest.raises(ValueError, match=match):
        write_table(tmp_path / "bad.csv", header, columns)
    assert not (tmp_path / "bad.csv").exists()


def test_the_row_join_refuses_texts_of_other_row_counts(each_path):
    for path in each_path:
        assert bytes(_join_rows([b"1,2],[3,4", b"null],[-0.5"], 2)) == b"1,2,null\n3,4,-0.5\n"
        for texts, m in [([b"1,2],[3,4"], 3), ([b"1,2],[3,4"], 1), ([b"1],[2", b"3"], 2),
                         ([b"1],[2", b"3],[4],[5"], 2), ([b"1"], 0)]:
            with pytest.raises(ValueError, match=f"do not hold {m} rows each"):
                _join_rows(texts, m)


def test_the_compiled_join_stays_within_its_texts_and_buffer():
    kernel = tavopt.engine._kernel()

    def join(texts, lens, m, cap):
        # eight guard bytes past the capacity, which must stay as they are
        out = ctypes.create_string_buffer(b"#" * (cap + 8), cap + 8)
        size = kernel.join_rows(len(texts), (ctypes.c_char_p * len(texts))(*texts),
                                (ctypes.c_int64 * len(lens))(*lens), m, out, cap)
        assert out.raw[cap:] == b"#" * 8
        return size, out.raw[:max(size, 0)]

    texts = [b"1,2],[3,4", b"null],[-0.5"]
    assert join(texts, [9, 11], 2, 18) == (18, b"1,2,null\n3,4,-0.5\n")
    assert join(texts, [9, 11], 2, 17)[0] == -1  # one byte short
    assert join(texts, [9, 11], 2, 0)[0] == -1
    # lengths that end inside a text whose bytes past them would make it valid
    assert join([b"1],[2"], [3], 2, 64)[0] == -1
    assert join([b"1],[2"], [2], 2, 64)[0] == -1
    assert join([b"1],[2"], [1], 1, 64) == (2, b"1\n")
    assert join([b"1],[2"], [4], 2, 64) == (3, b"1\n\n")  # "1],[" holds "1" and ""
    assert join([b"1]x[2"], [5], 2, 64)[0] == -1  # a ']' that does not start "],["
    # too few rows in the second text, too many in the first
    assert join([b"1],[2", b"3"], [5, 1], 2, 64)[0] == -1
    assert join([b"1],[2],[3", b"4],[5"], [9, 5], 2, 64)[0] == -1


# cells that orjson and repr write differently, for the join property below
PATCHED_FLOATS = [math.nan, math.inf, -math.inf, 1e-5, -5e-324, np.nextafter(1e-4, 0.0), 1e16,
                  -1e300]


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([0, 1, 255, 256, 257]),
       widths=st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any),
       seed=st.integers(0, 2 ** 32 - 1),
       corners=st.lists(st.sampled_from(PATCHED_FLOATS), min_size=4, max_size=4))
def test_compiled_join_has_the_bytes_of_the_python_join(tmp_path_factory, n, widths, seed,
                                                        corners):
    # one float run of the drawn block widths (zero-width ones included),
    # whose first and last row and column hold cells that need repr, between
    # an int run and a bool run
    rng = np.random.default_rng(seed)
    floats = [rng.standard_normal((n, w)) * 10.0 ** rng.integers(-6, 18, (n, w))
              for w in widths]
    run = np.concatenate(floats, axis=1)
    if n:
        run[[0, 0, -1, -1], [0, -1, 0, -1]] = corners
    at = np.cumsum([0] + widths)
    columns = [np.arange(n), *(run[:, a:b] for a, b in zip(at, at[1:])), rng.random(n) > 0.5]
    header = [f"c{k}" for k in range(2 + run.shape[1])]
    out = tmp_path_factory.mktemp("join")
    write_table(out / "compiled.csv", header, columns)
    with mock.patch.object(tavopt.engine, "_kernel", lambda: None):
        write_table(out / "python.csv", header, columns)
    reference_write_table(out / "ref.csv", header, columns)
    compiled = (out / "compiled.csv").read_bytes()
    assert compiled == (out / "python.csv").read_bytes() == (out / "ref.csv").read_bytes()
    assert compiled.count(b"\n") == n + 1


@pytest.mark.parametrize("kwargs,match", [
    (dict(initial_w=(math.nan,)), "initial_w must be finite"),
    (dict(initial_z=(0.0, math.inf)), "initial_z must be finite"),
], ids=["w-nan", "z-inf"])
def test_solver_config_refuses_non_finite_starts(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SolverConfig(v=1.0, horizon=2, **kwargs)


def test_run_refuses_an_initial_z_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"initial_z has length 1, expected 2"):
        run(build_instance("polyhedral"), SolverConfig(v=1.0, horizon=2, initial_z=(0.0,)))


def test_public_updates_refuse_bad_arguments():
    spec = build_instance("polyhedral")
    with pytest.raises(ValueError, match=r"z has shape \(3,\), expected \(2,\)"):
        x_update(spec, np.zeros(3))
    with pytest.raises(ValueError, match="v must be finite and >= 1"):
        dual_update(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), 0.5)


@pytest.mark.parametrize("v", [math.nan, math.inf])
def test_dual_update_refuses_a_v_that_is_not_finite(v):
    # v < 1.0 is false for both: SolverConfig's test refuses them
    with pytest.raises(ValueError, match="v must be finite and >= 1"):
        dual_update(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), v)
    with pytest.raises(ValueError, match="v must be finite and >= 1"):
        SolverConfig(v=v, horizon=2)
