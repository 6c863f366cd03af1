"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The demo instances pair a linear and a quadratic objective with
two averaging constraints (optimal values 1.25 and 0.5), plus variants with a
third constraint that makes the dual maximizer non-unique.
"""

import math

import numpy as np
import pytest

from tavopt import (
    BoundSet,
    SolverConfig,
    convergence_bounds,
    drift_certificate,
    dual_function_batch,
    error_series,
    estimate_sharpness,
    fit_loglog_slope,
    iterations_to_accuracy,
    lipschitz_bound,
    optimality_error,
    phase_detect,
    run,
    solve_reference,
    solve_reference_lp,
    squared_norm_bound,
    staggered_average,
)
from tavopt.analysis import sample_multipliers

from conftest import INSTANCE_NAMES, MAIN_HORIZON, MAIN_V, build_instance

POLY_OPT = 1.25
SMOOTH_OPT = 0.5

SWEEP_VS = (25.0, 50.0, 100.0, 200.0)
SWEEP_HORIZONS = {"polyhedral": 1 << 17, "smooth": 1 << 16}


def report(index: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {index} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")


@pytest.fixture(scope="session")
def sweep_traces(instances):
    traces = {}
    for name in ("polyhedral", "smooth"):
        for v in SWEEP_VS:
            cfg = SolverConfig(v=v, horizon=SWEEP_HORIZONS[name])
            traces[name, v] = run(instances[name], cfg)
    return traces


def final_average_stats(trace):
    spec = trace.spec
    xbar = trace.xbar[-1]
    A, b = spec.constraint_matrix()
    return spec.objective.value(xbar), A @ xbar + b


def check_final_optimum(index, name, trace, runtime, target):
    f_final, g_final = final_average_stats(trace)
    ok = (abs(f_final - target) <= 0.02
          and np.max(g_final) <= 0.02
          and runtime <= 10.0)
    report(index, f"{name} optimum", ok,
           f"f={f_final:.5f} target={target} max_g={np.max(g_final):.2e} "
           f"runtime={runtime:.2f}s")
    assert abs(f_final - target) <= 0.02
    assert np.max(g_final) <= 0.02
    assert runtime <= 10.0


def test_criterion_1_polyhedral_optimum(main_traces):
    trace, runtime = main_traces["polyhedral"]
    check_final_optimum(1, "polyhedral", trace, runtime, POLY_OPT)


def test_criterion_2_smooth_optimum(main_traces):
    trace, runtime = main_traces["smooth"]
    check_final_optimum(2, "smooth", trace, runtime, SMOOTH_OPT)


def test_criterion_3_staggered_speedup(main_traces, main_estimates, oracle_values):
    trace, _ = main_traces["polyhedral"]
    spec = trace.spec
    est = main_estimates["polyhedral"]
    f_opt = oracle_values["polyhedral"]

    l_hat = estimate_sharpness(spec, est, seed=0)["polyhedral"]
    bounds = BoundSet(m=lipschitz_bound(spec), c=squared_norm_bound(spec),
                      v=MAIN_V, l_poly=l_hat)
    detected = phase_detect(trace, est, bounds, "polyhedral").t_hit
    assert detected is not None

    # first restart at or past both the detected entry time and the
    # documented fixed staggered start of the demo figure
    start = 1
    while start < max(detected, 2048):
        start *= 2
    window = 4096
    stag = staggered_average(trace, start, window)
    err_stag = optimality_error(spec, stag, f_opt)
    err_plain = optimality_error(spec, trace.xbar[start + window - 1], f_opt)
    ok = err_stag <= 0.5 * err_plain
    report(3, "staggered speedup", ok,
           f"start={start} staggered={err_stag:.5f} plain={err_plain:.5f} "
           f"ratio={err_stag / err_plain:.3f} (need <= 0.5)")
    assert ok


def test_criterion_4_rate_ordering(sweep_traces, oracle_values):
    hits = {}
    for name, target in (("polyhedral", POLY_OPT), ("smooth", SMOOTH_OPT)):
        f_opt = oracle_values[name]
        plain_hits, stag_hits = [], []
        for v in SWEEP_VS:
            eps = 1.0 / v  # matched accuracy: eps=0.01 at V=100
            plain, stag = iterations_to_accuracy(sweep_traces[name, v], f_opt, eps)
            assert plain is not None and stag is not None, (name, v)
            plain_hits.append(plain)
            stag_hits.append(stag)
        hits[name] = (plain_hits, stag_hits)

    inv_eps = SWEEP_VS  # eps matched to V via eps = 1/V, so 1/eps == V
    slope_stag_poly = fit_loglog_slope(inv_eps, hits["polyhedral"][1])
    slope_stag_smooth = fit_loglog_slope(inv_eps, hits["smooth"][1])
    slope_plain_poly = fit_loglog_slope(inv_eps, hits["polyhedral"][0])
    ok = (slope_stag_poly <= 1.3 and slope_stag_smooth <= 1.8
          and slope_plain_poly >= 1.6)
    report(4, "rate ordering", ok,
           f"staggered_poly={slope_stag_poly:.2f} (<=1.3) "
           f"staggered_smooth={slope_stag_smooth:.2f} (<=1.8) "
           f"plain_poly={slope_plain_poly:.2f} (>=1.6); "
           f"hits poly plain={hits['polyhedral'][0]} stag={hits['polyhedral'][1]} "
           f"smooth stag={hits['smooth'][1]}")
    assert slope_stag_poly <= 1.3
    assert slope_stag_smooth <= 1.8
    assert slope_plain_poly >= 1.6


def _logged_marks(horizon):
    marks = [1 << k for k in range(horizon.bit_length()) if (1 << k) <= horizon]
    if marks[-1] != horizon:
        marks.append(horizon)
    return marks


def test_criterion_5_invariant_suite(main_traces, main_estimates, oracle_values):
    failures = []
    for name in INSTANCE_NAMES:
        trace, _ = main_traces[name]
        spec = trace.spec
        v = trace.v
        c = squared_norm_bound(spec)
        m = lipschitz_bound(spec)
        est = main_estimates[name]
        f_opt = oracle_values[name]
        A, b = spec.constraint_matrix()

        if not (np.all(trace.w >= 0.0) and np.all(trace.w_final >= 0.0)):
            failures.append(f"{name}: negative w")

        lam = trace.lambda_path
        steps = np.linalg.norm(np.diff(lam, axis=0), axis=1)
        if not np.all(steps <= math.sqrt(2.0 * c) / v + 1e-9):
            failures.append(f"{name}: one-step bound violated")

        T = trace.ts[:, None] + 1.0
        z_next = np.vstack([trace.z[1:], trace.z_final])
        resid = (trace.xbar - trace.ybar) - v / T * (z_next - trace.z[0])
        if np.max(np.abs(resid)) > 1e-9:
            failures.append(f"{name}: averaging identity off by {np.max(np.abs(resid)):.2e}")

        w_next = np.vstack([trace.w[1:], trace.w_final])
        telescope = trace.ybar @ A.T + b - v / T * (w_next - trace.w[0])
        if np.max(telescope) > 1e-9:
            failures.append(f"{name}: constraint telescope violated")

        drift = drift_certificate(trace, est.lam, v, c)
        if not drift.passed:
            failures.append(f"{name}: drift certificate has {len(drift.violations)} violations")

        probes = sample_multipliers(spec, scale=2.0, count=100, seed=31)
        d_probe, _, _ = dual_function_batch(spec, probes)
        if not np.all(d_probe <= f_opt + 1e-6):
            failures.append(f"{name}: weak duality violated")

        bounds = BoundSet(m=m, c=c, v=v)
        for t_end in _logged_marks(trace.horizon):
            obj_bound, vio_bound = convergence_bounds(trace, bounds, 0, t_end, "general")
            xbar = trace.xbar[t_end - 1]
            if spec.objective.value(xbar) - f_opt > obj_bound + 1e-9:
                failures.append(f"{name}: objective bound fails at T={t_end}")
            if np.any(A @ xbar + b > vio_bound + 1e-9):
                failures.append(f"{name}: violation bound fails at T={t_end}")

    ok = not failures
    report(5, "invariant suite", ok,
           "all instances clean" if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_6_oracle_cross_checks(instances, main_traces, oracle_values):
    failures = []
    for name in ("polyhedral", "polyhedral-extra"):
        grid = solve_reference(instances[name], resolution=0.05)
        lp = solve_reference_lp(instances[name])
        if abs(grid.f_opt - lp.f_opt) > 1e-3:
            failures.append(f"{name}: grid {grid.f_opt} vs lp {lp.f_opt}")
    finals = {}
    for name in INSTANCE_NAMES:
        trace, _ = main_traces[name]
        f_final, _ = final_average_stats(trace)
        finals[name] = (f_final, oracle_values[name])
        if abs(f_final - oracle_values[name]) > 0.02:
            failures.append(f"{name}: engine {f_final} vs oracle {oracle_values[name]}")
    ok = not failures
    detail = ", ".join(f"{k}:{v[0]:.4f}/{v[1]:.4f}" for k, v in finals.items())
    report(6, "oracle cross-checks", ok, detail if ok else "; ".join(failures))
    assert ok, failures


def test_criterion_7_absorption(main_traces, main_estimates):
    trace, _ = main_traces["polyhedral"]
    spec = trace.spec
    est = main_estimates["polyhedral"]
    l_hat = estimate_sharpness(spec, est, seed=0)["polyhedral"]
    bounds = BoundSet(m=lipschitz_bound(spec), c=squared_norm_bound(spec),
                      v=MAIN_V, l_poly=l_hat)
    result = phase_detect(trace, est, bounds, "polyhedral")
    ok = result.t_hit is not None and result.absorbed and result.violation_count == 0
    report(7, "absorption", ok,
           f"t_hit={result.t_hit} radius={result.radius:.3f} "
           f"slack={result.slack:.2e} max_dist={result.max_distance:.3f} "
           f"violations={result.violation_count}")
    assert result.t_hit is not None
    assert result.absorbed
    assert result.violation_count == 0
