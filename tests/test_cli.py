import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tavopt
from tavopt import ParseError, parse_problem_config, run_cli, serialize_problem_config
from tavopt.cli import reference_instance
from tavopt.problem import GridProduct, PiecewiseLinearPiece, QuadraticPiece

DEMO_CONFIG = json.dumps({
    "dimension": 2,
    "decision_set": {"grid": [[0, 1, 2, 3], [0, 1, 2, 3]]},
    "objective": [{"kind": "linear", "slope": 1.5}, {"kind": "linear", "slope": 1.0}],
    "constraints": [
        {"coeffs": [2, 1], "offset": 1.5, "sense": ">="},
        {"coeffs": [1, 2], "offset": 1.5, "sense": ">="},
    ],
})


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(DEMO_CONFIG)
    return str(path)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_demo_config():
    spec = parse_problem_config(DEMO_CONFIG)
    assert spec.dimension == 2
    assert spec.constraint_count == 2
    assert isinstance(spec.decision_set, GridProduct)
    assert spec.decision_set.values == ((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0))
    np.testing.assert_array_equal(spec.constraints[0].coeffs, [-2.0, -1.0])
    assert spec.constraints[0].offset == 1.5
    np.testing.assert_array_equal(spec.box.lower, [0.0, 0.0])
    np.testing.assert_array_equal(spec.box.upper, [3.0, 3.0])


def test_parse_le_sense_normalization():
    doc = json.loads(DEMO_CONFIG)
    doc["constraints"] = [{"coeffs": [1, 0], "offset": 2.0, "sense": "<="}]
    spec = parse_problem_config(json.dumps(doc))
    np.testing.assert_array_equal(spec.constraints[0].coeffs, [1.0, 0.0])
    assert spec.constraints[0].offset == -2.0


def test_parse_matches_bundled_instance():
    parsed = parse_problem_config(DEMO_CONFIG)
    bundled = reference_instance("linear")
    assert serialize_problem_config(parsed) == serialize_problem_config(bundled)


def test_roundtrip_serialization():
    for objective in ("linear", "quadratic"):
        for extra in (False, True):
            spec = reference_instance(objective, extra)
            text = serialize_problem_config(spec)
            again = serialize_problem_config(parse_problem_config(text))
            assert text == again


def test_roundtrip_with_points_box_and_pwl():
    spec = parse_problem_config(json.dumps({
        "dimension": 2,
        "decision_set": {"points": [[0.25, 1.0], [1.5, 0.125]]},
        "box": {"lower": [0.0, 0.0], "upper": [2.0, 2.0]},
        "objective": [
            {"kind": "piecewise_linear", "breakpoints": [0.5], "slopes": [-1.0, 2.0]},
            {"kind": "quadratic", "curvature": 0.5, "slope": -0.25},
        ],
    }))
    assert isinstance(spec.objective.pieces[0], PiecewiseLinearPiece)
    assert isinstance(spec.objective.pieces[1], QuadraticPiece)
    text = serialize_problem_config(spec)
    assert serialize_problem_config(parse_problem_config(text)) == text


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.update(extra_key=1), "extra_key"),
    (lambda d: d.pop("dimension"), "dimension"),
    (lambda d: d.update(dimension=0), "dimension"),
    (lambda d: d["objective"].__setitem__(
        0, {"kind": "quadratic", "curvature": -1.0, "slope": 0.0}), "objective[0]"),
    (lambda d: d["objective"].__setitem__(0, {"kind": "cubic"}), "objective[0].kind"),
    (lambda d: d["objective"].__setitem__(
        0, {"kind": "linear", "slope": 1.0, "bogus": 2}), "objective[0].bogus"),
    (lambda d: d["constraints"].__setitem__(
        0, {"coeffs": [1, 1], "offset": 0.0, "sense": "=="}), "constraints[0].sense"),
    (lambda d: d["constraints"].__setitem__(
        0, {"coeffs": [0, 0], "offset": 0.0, "sense": "<="}), "constraints[0]"),
    (lambda d: d.update(decision_set={"grid": [[0, 1]]}), "decision_set"),
    (lambda d: d.update(decision_set={}), "decision_set"),
    (lambda d: d.update(constraints=5), "constraints"),
    (lambda d: d.update(box=5), "box"),
    (lambda d: d["objective"].__setitem__(1, {"kind": [1]}), "objective[1].kind"),
    (lambda d: d.update(dimension=True), "dimension"),
    (lambda d: d["constraints"].__setitem__(
        1, {"coeffs": [1, 2, 3], "offset": 0.0, "sense": "<="}), "constraints[1]"),
])
def test_parse_errors_name_the_field(mutate, field):
    doc = json.loads(DEMO_CONFIG)
    mutate(doc)
    with pytest.raises(ParseError) as err:
        parse_problem_config(json.dumps(doc))
    assert err.value.field == field


def test_parse_rejects_point_outside_box():
    doc = json.loads(DEMO_CONFIG)
    doc["box"] = {"lower": [0, 0], "upper": [2, 2]}
    with pytest.raises(ParseError) as err:
        parse_problem_config(json.dumps(doc))
    assert err.value.field == "decision_set"


def test_parse_rejects_invalid_json():
    with pytest.raises(ParseError):
        parse_problem_config("{not json")


def test_parse_error_on_negative_curvature_mentions_convexity():
    doc = json.loads(DEMO_CONFIG)
    doc["objective"][0] = {"kind": "quadratic", "curvature": -2.0, "slope": 0.0}
    with pytest.raises(ParseError, match="non-convex"):
        parse_problem_config(json.dumps(doc))


# ---------------------------------------------------------------------------
# CLI modes
# ---------------------------------------------------------------------------

def test_solve_single_iteration_trace(problem_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli(["solve", "--problem", problem_file, "--out", str(out),
                    "--V", "100", "--horizon", "1"])
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the single iteration
    assert (out / "summary.txt").exists()


def test_solve_log_every_thins_rows(problem_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli(["solve", "--problem", problem_file, "--out", str(out),
                    "--V", "50", "--horizon", "1000", "--log-every", "100"])
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 11  # every 100th row plus the final one


def test_sweep_writes_table_and_slopes(problem_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli(["sweep", "--problem", problem_file, "--out", str(out),
                    "--V", "25,50", "--horizon", "16384"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "V,eps,iterations_plain,iterations_staggered"
    assert len(rows) == 3
    summary = (out / "summary.txt").read_text()
    assert "slope_plain" in summary and "slope_staggered" in summary


def test_diagnose_summary_and_certificates(problem_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli(["diagnose", "--problem", problem_file, "--out", str(out),
                    "--V", "100", "--horizon", "4096", "--geometry", "polyhedral"])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    for key in ("lipschitz_M", "norm_bound_C", "estimate_residual",
                "polyhedral_t_hit", "polyhedral_absorbed",
                "multiplier_possibly_nonunique", "drift_certificate_violations"):
        assert key in summary
    assert "drift_certificate_violations: 0" in summary
    cert_lines = (out / "certificates.csv").read_text().splitlines()
    assert cert_lines[0] == "t,dist_to_estimate,step_norm,drift_slack"
    assert len(cert_lines) == 1 + 4096


def test_reproduce_single_figure_deterministic(tmp_path):
    out1 = tmp_path / "rep1"
    out2 = tmp_path / "rep2"
    for out in (out1, out2):
        code = run_cli(["reproduce", "--out", str(out), "--figure", "2",
                        "--horizon", "8192"])
        assert code == 0
    assert (out1 / "figure2.csv").read_bytes() == (out2 / "figure2.csv").read_bytes()
    header = (out1 / "figure2.csv").read_text().splitlines()[0]
    assert header.startswith("t,f_plain,g_1_plain,g_2_plain,f_staggered_fixed")
    summary = (out1 / "figure2_summary.txt").read_text()
    assert "fixed_staggered_start: 2048" in summary
    assert "check: PASS" in summary


def test_reproduce_fails_with_tiny_horizon(tmp_path):
    code = run_cli(["reproduce", "--out", str(tmp_path / "rep"), "--figure", "2",
                    "--horizon", "64"])
    assert code == 3


def test_python_dash_m_runs_the_cli_without_warnings():
    # runs the package that this suite imports, wherever it lives
    src = os.path.dirname(os.path.dirname(tavopt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "tavopt", "reproduce", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: tavopt reproduce")


def test_exit_codes_for_bad_inputs(tmp_path):
    assert run_cli(["solve", "--problem", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "o")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli(["solve", "--problem", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["--help"]) == 0
    assert run_cli(["sweep", "--problem", str(bad), "--out", str(tmp_path / "o"),
                    "--V", "25"]) == 1  # sweep needs at least two V values
    doc = json.loads(DEMO_CONFIG)
    doc["constraints"] = 5
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps(doc))
    assert run_cli(["solve", "--problem", str(malformed), "--out", str(tmp_path / "o")]) == 1
    good = tmp_path / "good.json"
    good.write_text(DEMO_CONFIG)
    assert run_cli(["sweep", "--problem", str(good), "--out", str(tmp_path / "o"),
                    "--V", "100,100", "--horizon", "64"]) == 1  # V values must differ
    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(json.dumps({
        "dimension": 1, "decision_set": {"grid": [[0, 1, 2, 3]]},
        "objective": [{"kind": "linear", "slope": 1.0}],
        "constraints": [{"coeffs": [1.0], "offset": 5.0, "sense": ">="}]}))
    assert run_cli(["sweep", "--problem", str(infeasible), "--out", str(tmp_path / "o"),
                    "--V", "10,20"]) == 1  # the oracle finds no feasible point


@pytest.mark.parametrize("argv", [
    ["solve", "--seed", "1"],
    ["sweep", "--V", "25,50", "--seed", "1"],
    ["reproduce", "--figure", "2", "--restart-base", "3"],
])
def test_flags_a_mode_does_not_read_are_rejected(argv, problem_file, tmp_path):
    if argv[0] != "reproduce":
        argv = argv + ["--problem", problem_file]
    assert run_cli(argv + ["--out", str(tmp_path / "o"), "--horizon", "64"]) == 1
    assert not (tmp_path / "o").exists()


def test_exit_code_numeric_failure(tmp_path):
    doc = {
        "dimension": 1,
        "decision_set": {"grid": [[0, 3]]},
        "objective": [{"kind": "linear", "slope": -1e308}],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code = run_cli(["solve", "--problem", str(path), "--out", str(tmp_path / "o"),
                    "--V", "1", "--horizon", "8"])
    assert code == 2
