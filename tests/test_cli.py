import json
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import tavopt
from tavopt import ParseError, parse_problem_config, run_cli, serialize_problem_config
from tavopt.cli import _FLAGS, _MODES, ExperimentConfig, reference_instance
from tavopt.oracle import solve_reference_lp
from tavopt.problem import GridProduct, PiecewiseLinearPiece, QuadraticPiece

from conftest import GRID_PROBLEM, POINTS_PROBLEM, POINTS_PROBLEM_SEED_1, doubling_schedule

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


# JSON text that no dict holds, spliced in where a mutation puts its marker
RAW_JSON = {"@repeated-slope@": '{"kind": "linear", "slope": 5, "slope": -1}'}


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
    pytest.param(lambda d: d.update(box={"lower": [0, 0], "upper": [2, 2]}), "box",
                 id="box-without-the-set"),
    # every value is read as its own JSON type: no string, bool or object
    # passes for a number or a list, and no int overflows on the way to a double
    pytest.param(lambda d: d["objective"][0].update(slope=10 ** 400), "objective[0].slope",
                 id="huge-int-slope"),
    pytest.param(lambda d: d["decision_set"]["grid"][0].__setitem__(1, 10 ** 400),
                 "decision_set.grid[0][1]", id="huge-int-grid-value"),
    pytest.param(lambda d: d["constraints"][0]["coeffs"].__setitem__(1, 10 ** 400),
                 "constraints[0].coeffs[1]", id="huge-int-coeff"),
    pytest.param(lambda d: d["objective"][0].update(slope="1.5"), "objective[0].slope",
                 id="string-slope"),
    pytest.param(lambda d: d["constraints"][0].update(offset=True), "constraints[0].offset",
                 id="bool-offset"),
    pytest.param(lambda d: d["decision_set"].update(grid=["0123", "0123"]),
                 "decision_set.grid[0]", id="string-grid-row"),
    pytest.param(lambda d: d["objective"].__setitem__(0, {
        "kind": "piecewise_linear", "breakpoints": [0.5], "slopes": {"1": 0, "2": 1}}),
        "objective[0].slopes", id="object-slopes"),
    # a repeated key is refused, not read as its last value
    pytest.param(lambda d: d["objective"].__setitem__(0, "@repeated-slope@"),
                 "objective[0].slope", id="repeated-key"),
])
def test_parse_errors_name_the_field(mutate, field, tmp_path):
    doc = json.loads(DEMO_CONFIG)
    mutate(doc)
    text = json.dumps(doc)
    for marker, raw in RAW_JSON.items():
        text = text.replace(json.dumps(marker), raw)
    with pytest.raises(ParseError) as err:
        parse_problem_config(text)
    assert err.value.field == field
    path = tmp_path / "prob.json"
    path.write_text(text)
    assert run_cli(["solve", "--problem", str(path), "--out", str(tmp_path / "o")]) == 1


def test_parse_rejects_invalid_json():
    with pytest.raises(ParseError):
        parse_problem_config("{not json")


def test_every_module_exposes_one_parser():
    assert tavopt.parse_problem_config is tavopt.cli.parse_problem_config
    assert tavopt.parse_problem_config is tavopt.config.parse_problem_config


POINTS_PWL_CONFIG = json.dumps({
    "dimension": 2,
    "decision_set": {"points": [[0.25, 1.0], [1.5, 0.125], [2.0, 2.0]]},
    "box": {"lower": [0.0, 0.0], "upper": [2.0, 2.0]},
    "objective": [
        {"kind": "piecewise_linear", "breakpoints": [0.5, 1.0], "slopes": [-1.0, 0.0, 2.0]},
        {"kind": "quadratic", "curvature": 0.5, "slope": -0.25},
    ],
    "constraints": [{"coeffs": [1, 1], "offset": 1.0, "sense": ">="}],
})

# replacement values: every JSON type, and numbers no double holds
FUZZ_VALUES = (None, True, False, 0, -3, 2.5, 1e308, 10 ** 400, "1.5", "", [], [1.0, 2.0],
               [[0, 1]], {}, {"lower": [0]})
FUZZ_KEYS = ("extra", "kind", "slope", "slopes", "breakpoints", "offset", "sense", "coeffs",
             "box", "grid", "points", "lower", "constraints")
DEEP = "@deep@"  # stands for a value nested in many lists, spliced into the text
REPEAT = "@repeat@"  # prefixes a second copy of a key of the same object


def _fuzz_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _fuzz_paths(value, path + (key,))


def _fuzz_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _fuzz_document(rng):
    """One mutant of a base config and its operation: a key dropped, added
    or repeated, or a value swapped for another JSON type or nested in
    lists."""
    doc = json.loads(rng.choice((DEMO_CONFIG, POINTS_PWL_CONFIG)))
    paths = list(_fuzz_paths(doc))
    path = rng.choice(paths[1:])
    parent, key = _fuzz_at(doc, path[:-1]), path[-1]
    value = json.loads(json.dumps(rng.choice(FUZZ_VALUES)))
    op = rng.choice(("drop", "add", "swap", "wrap", "deep", "repeat"))
    objects = [p for p in paths if isinstance(_fuzz_at(doc, p), dict)]
    if op == "drop":
        del parent[key]
    elif op == "add":
        _fuzz_at(doc, rng.choice(objects))[rng.choice(FUZZ_KEYS)] = value
    elif op == "repeat":
        obj = _fuzz_at(doc, rng.choice(objects))
        obj[REPEAT + rng.choice(sorted(obj))] = value
    elif op == "swap":
        parent[key] = value
    elif op == "wrap":
        for _ in range(rng.randint(1, 3)):
            parent[key] = [parent[key]]
    else:
        parent[key] = DEEP
    depth = rng.choice((50, 900, 100_000))
    text = json.dumps(doc).replace(f'"{DEEP}"', "[" * depth + "0" + "]" * depth)
    return text.replace(f'"{REPEAT}', '"'), op


def test_parser_fuzz_round_trips_or_names_a_field(tmp_path):
    rng = random.Random(20161010)
    parsed = repeats = 0
    for _ in range(400):
        text, op = _fuzz_document(rng)
        try:
            spec = parse_problem_config(text)
        except ParseError as exc:
            assert exc.field, text[:200]
            if op == "repeat":
                assert str(exc).endswith("duplicate key"), text[:200]
        else:
            assert op != "repeat", text[:200]
            parsed += 1
            canonical = serialize_problem_config(spec)
            assert serialize_problem_config(parse_problem_config(canonical)) == canonical
        repeats += op == "repeat"
        path = tmp_path / "fuzz.json"
        path.write_text(text)
        code = run_cli(["solve", "--problem", str(path), "--out", str(tmp_path / "o"),
                        "--horizon", "4"])
        assert code in (0, 1, 2), text[:200]
    assert 0 < parsed < 400  # the corpus mixes accepted and rejected documents
    assert repeats > 0


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


@pytest.mark.parametrize("log_every", [2**63, 2**64])
def test_solve_log_every_past_int64_writes_the_first_and_last_rows(log_every, problem_file,
                                                                   tmp_path):
    out = tmp_path / "out"
    assert run_cli(["solve", "--problem", problem_file, "--out", str(out), "--horizon", "5",
                    "--log-every", str(log_every)]) == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "4"]


@pytest.mark.parametrize("log_every", [1, 7])
@pytest.mark.parametrize("config", [DEMO_CONFIG, POINTS_PROBLEM], ids=["grid", "points"])
def test_solve_summary_repeats_the_last_trace_row(config, log_every, tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(config)
    out = tmp_path / "out"
    assert run_cli(["solve", "--problem", str(path), "--out", str(out), "--V", "20",
                    "--horizon", "1000", "--log-every", str(log_every)]) == 0
    header, *_, last = (out / "trace.csv").read_text().splitlines()
    row = dict(zip(header.split(","), last.split(",")))
    summary = dict(line.split(": ") for line in (out / "summary.txt").read_text().splitlines())
    J = parse_problem_config(config).constraint_count
    for key in ["f_xbar", *(f"g_{j + 1}_xbar" for j in range(J))]:
        assert summary[f"{key}_final"] == f"{float(row[key]):.12g}"


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


def test_sweep_flat_series_has_slope_zero(tmp_path):
    # the quadratic demo with its extra constraint needs the same number of
    # iterations at every V, so the fitted slope is exactly zero
    path = tmp_path / "prob.json"
    path.write_text(serialize_problem_config(reference_instance("quadratic", True)))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--problem", str(path), "--out", str(out),
                    "--V", "50,100,200", "--horizon", "20000"]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    assert "slope_plain: 0" in lines


def test_sweep_on_a_3d_linear_grid_uses_the_lp_optimum(tmp_path):
    # the exact optimum sweep measures against is the LP oracle's vertex
    # value to the 12 digits the summary prints
    doc = json.loads(DEMO_CONFIG)
    doc.update(dimension=3, decision_set={"grid": [[0, 1, 2, 3]] * 3},
               objective=[{"kind": "linear", "slope": s} for s in (1.5, 1.0, 1.25)],
               constraints=[{"coeffs": c, "offset": 2.5, "sense": ">="}
                            for c in ([2, 1, 1], [1, 2, 1], [1, 1, 2])])
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--problem", str(path), "--out", str(out), "--V", "10,100"]) == 0
    f_opt = solve_reference_lp(parse_problem_config(path.read_text())).f_opt
    assert f"f_opt_oracle: {f_opt:.12g}" in (out / "summary.txt").read_text().splitlines()


@pytest.mark.parametrize("problem", [GRID_PROBLEM, POINTS_PROBLEM_SEED_1], ids=["grid", "points"])
def test_sweep_at_default_flags_on_3d_problems(problem, tmp_path):
    # the {0..3}^3 grid with quadratic pieces and the eight-point set, where
    # no brute-force oracle runs at a fine resolution; f_opt is exact
    path = tmp_path / "prob.json"
    path.write_text(problem)
    out = tmp_path / "out"
    assert run_cli(["sweep", "--problem", str(path), "--out", str(out), "--V", "10,100",
                    "--horizon", "20000"]) == 0
    f_opt = tavopt.solve_exact(parse_problem_config(problem)).f_opt
    assert f"f_opt_oracle: {f_opt:.12g}" in (out / "summary.txt").read_text().splitlines()


def test_diagnose_summary_and_certificates(problem_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli(["diagnose", "--problem", problem_file, "--out", str(out),
                    "--V", "100", "--horizon", "4096", "--geometry", "polyhedral"])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    for key in ("lipschitz_M", "norm_bound_C", "estimate_residual",
                "polyhedral_t_hit", "polyhedral_absorbed",
                "multiplier_set_dim", "drift_certificate_violations"):
        assert key in summary
    assert "drift_certificate_violations: 0" in summary
    cert_lines = (out / "certificates.csv").read_text().splitlines()
    assert cert_lines[0] == "t,dist_to_estimate,step_norm,drift_slack"
    assert len(cert_lines) == 1 + 4096


def test_a_geometry_without_a_rate_has_no_region(tmp_path):
    # figure 5's maximizers form a segment, so neither geometry has a rate:
    # diagnose writes none for each region line and reproduce starts its
    # detected window at 0
    path = tmp_path / "prob.json"
    path.write_text(serialize_problem_config(reference_instance("quadratic", True)))
    assert run_cli(["diagnose", "--problem", str(path), "--out", str(tmp_path / "diag"),
                    "--horizon", "2048"]) == 0
    summary = (tmp_path / "diag" / "summary.txt").read_text().splitlines()
    assert "multiplier_set_dim: 1" in summary
    for geometry in ("polyhedral", "smooth"):
        for key in ("decay_rate", "region_radius", "t_hit", "absorbed", "violations_after_hit",
                    "steady_objective_bound", "steady_violation_bound"):
            assert f"{geometry}_{key}: none" in summary
    out = tmp_path / "rep"
    assert run_cli(["reproduce", "--out", str(out), "--figure", "5", "--horizon", "8192"]) == 0
    summary = (out / "figure5_summary.txt").read_text().splitlines()
    for line in ("detected_t_hit: none", "absorbed: none", "multiplier_set_dim: 1", "check: PASS"):
        assert line in summary
    # the detected window is then the plain average's, from 0
    rows = np.genfromtxt(out / "figure5.csv", delimiter=",", names=True)
    assert np.array_equal(rows["f_staggered_detected"], rows["f_plain"])


@pytest.mark.parametrize("decision_set,extra", [
    ({"grid": [[0, 1, 2, 3], [0, 1, 2, 3]]}, []),  # unconstrained
    ({"points": [[0, 1], [1, 0], [2, 2]]}, []),  # unconstrained
    ({"grid": [[0, 1, 2, 3], [0, 1, 2, 3]]}, ["--V", "1e300"]),  # V * V overflows
])
def test_diagnose_unconstrained_and_huge_v(decision_set, extra, tmp_path):
    doc = json.loads(DEMO_CONFIG)
    doc["decision_set"] = decision_set
    if not extra:
        del doc["constraints"]
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli(["diagnose", "--problem", str(path), "--out", str(out),
                    "--horizon", "512"] + extra) == 0
    summary = (out / "summary.txt").read_text()
    assert "drift_certificate_violations: 0" in summary
    assert ("violation_bound" in summary) == bool(extra)


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


def test_reproduce_solves_each_figure_exactly_once(tmp_path, monkeypatch):
    # the summary's f_opt_exact is the optimum the estimate was judged by
    solved = []

    def counted(spec):
        solved.append(tavopt.oracle.solve_exact(spec))
        return solved[-1]

    monkeypatch.setattr(tavopt.analysis, "solve_exact", counted)
    monkeypatch.setattr(tavopt.cli, "solve_exact", counted)
    assert run_cli(["reproduce", "--out", str(tmp_path), "--horizon", "20000"]) == 0
    assert len(solved) == 4
    for fig, exact in zip((2, 3, 4, 5), solved):
        summary = (tmp_path / f"figure{fig}_summary.txt").read_text().splitlines()
        assert f"f_opt_exact: {exact.f_opt:.12g}" in summary


@pytest.mark.parametrize("horizon", [1, 2, 64, 1000, 1024])
def test_reproduce_marks_the_restarts_and_the_horizon(horizon, tmp_path):
    # t runs over the restarts 1, 2, 4, ... below the horizon, then the
    # horizon; the summary's final values are the CSV's last plain row
    out = tmp_path / "rep"
    run_cli(["reproduce", "--out", str(out), "--figure", "2", "--horizon", str(horizon)])
    rows = [line.split(",") for line in (out / "figure2.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == doubling_schedule(horizon) + [horizon]
    summary = (out / "figure2_summary.txt").read_text().splitlines()
    f, g1, g2 = (float(cell) for cell in rows[-1][1:4])
    assert f"f_xbar_final: {f:.12g}" in summary
    assert f"max_violation_final: {max(g1, g2):.12g}" in summary


def test_reproduce_fails_with_tiny_horizon(tmp_path):
    code = run_cli(["reproduce", "--out", str(tmp_path / "rep"), "--figure", "2",
                    "--horizon", "64"])
    assert code == 3


def test_readme_flag_table_is_the_parsers():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", text, flags=re.M)
    documented = {mode: tuple(re.findall(r"`(--[\w-]+)`", flags)) for mode, flags in rows}
    assert documented == {mode: flags for mode, (*_, flags) in _MODES.items()}
    # the defaults paragraph names only flags the parsers have, each default
    # read as its flag reads it and equal to the ExperimentConfig field's
    paragraph = re.search(r"^Defaults \(declared once.*?\n\n", text, flags=re.M | re.S).group()
    assert set(re.findall(r"`(--[\w-]+)", paragraph)) <= set(_FLAGS)
    defaults = re.findall(r"`(--[\w-]+)\s+([^`]+)`", paragraph)

    def default(flag):
        return getattr(ExperimentConfig, _FLAGS[flag].get("dest", flag[2:].replace("-", "_")))

    # every flag with a default that is not None is documented
    assert {flag for flag, _ in defaults} == {
        flag for flag, kw in _FLAGS.items() if not kw.get("required") and default(flag) is not None}
    for flag, value in defaults:
        assert _FLAGS[flag].get("type", str)(value) == default(flag), flag


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


def test_exit_codes_for_bad_inputs(tmp_path, capsys):
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
    infeasible.write_text(json.dumps({
        "dimension": 1, "decision_set": {"points": [[3.0]]},
        "objective": [{"kind": "linear", "slope": 1.0}],
        "constraints": [{"coeffs": [1.0], "offset": 5.0, "sense": ">="}]}))
    assert run_cli(["sweep", "--problem", str(infeasible), "--out", str(tmp_path / "o"),
                    "--V", "10,20"]) == 1  # nor on a single infeasible point
    for mode in ("sweep", "reproduce"):  # f_opt is exact: no oracle resolution to pick
        argv = [mode, "--out", str(tmp_path / "o"), "--horizon", "64",
                "--oracle-resolution", "0.01"]
        if mode == "sweep":
            argv += ["--problem", str(good), "--V", "10,20"]
        assert run_cli(argv) == 1
        assert "unrecognized arguments: --oracle-resolution" in capsys.readouterr().err
    for mode in ("reproduce", "diagnose"):  # only sweep takes a V list
        argv = [mode, "--V", "50,100", "--horizon", "64", "--out", str(tmp_path / "o")]
        assert run_cli(argv + (["--problem", str(good)] if mode == "diagnose" else [])) == 1
    # JSON nested past the recursion limit, and an int literal past the
    # int-to-string digit limit, are config errors like any other
    for text in ("[" * 100_000, "{\"dimension\": " + "7" * 5000 + "}"):
        with pytest.raises(ParseError) as err:
            parse_problem_config(text)
        assert err.value.field == "<json>"
        bad.write_text(text)
        assert run_cli(["solve", "--problem", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--seed", "1"],
    ["sweep", "--V", "25,50", "--seed", "1"],
    ["diagnose", "--seed", "0"],
    ["reproduce", "--figure", "2", "--seed", "0"],
    ["reproduce", "--figure", "2", "--restart-base", "3"],
    ["solve", "--restart-base", "2"],
    ["sweep", "--V", "25,50", "--restart-base", "2"],
    ["diagnose", "--restart-base", "2"],
    ["sweep", "--V", "25,50", "--eps-anchor", "0.01"],
    ["sweep", "--V", "25,50", "--v-anchor", "100"],
])
def test_flags_a_mode_does_not_read_are_rejected(argv, problem_file, tmp_path):
    if argv[0] != "reproduce":
        argv = argv + ["--problem", problem_file]
    assert run_cli(argv + ["--out", str(tmp_path / "o"), "--horizon", "64"]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode,v", [("solve", "0.5"), ("solve", "nan"), ("sweep", "10,nan"),
                                    ("sweep", "10,inf"), ("diagnose", "-inf"),
                                    ("reproduce", "nan")])
def test_a_v_below_1_or_not_finite_exits_1_before_any_work(mode, v, problem_file, tmp_path,
                                                           capsys):
    # --V=v, since argparse reads a separate "-inf" as a flag
    argv = [mode, f"--V={v}", "--out", str(tmp_path / "o"), "--horizon", "64"]
    assert run_cli(argv + (["--problem", problem_file] if mode != "reproduce" else [])) == 1
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err.startswith("error: V values must be finite and >= 1, got (")


def test_a_log_every_below_1_exits_1(problem_file, tmp_path, capsys):
    assert run_cli(["solve", "--problem", problem_file, "--out", str(tmp_path / "o"),
                    "--log-every", "0"]) == 1
    assert not (tmp_path / "o").exists()
    assert "log_every must be >= 1" in capsys.readouterr().err


def test_config_errors_the_parser_cannot_reach():
    # argparse refuses an unknown mode and a missing --problem first; the
    # config refuses them too when built directly
    with pytest.raises(ValueError, match="unknown mode 'frobnicate'"):
        ExperimentConfig(mode="frobnicate", out_dir="o")
    with pytest.raises(ValueError, match="mode diagnose needs a problem file"):
        ExperimentConfig(mode="diagnose", out_dir="o")
    with pytest.raises(ValueError, match="unknown objective 'cubic'"):
        reference_instance("cubic")


def test_diagnose_refuses_constants_that_are_not_finite(tmp_path, capsys):
    # on the box [-1e308, 1e308] M and C overflow, and a drift certificate
    # against max_slack -inf would pass vacuously: one error line, no files
    doc = {"dimension": 1, "decision_set": {"points": [[0.0], [1.0]]},
           "box": {"lower": [-1e308], "upper": [1e308]},
           "objective": [{"kind": "quadratic", "curvature": 1.0, "slope": 0.0}]}
    path = tmp_path / "huge_box.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["diagnose", "--problem", str(path), "--out", str(tmp_path / "o"),
                    "--horizon", "64"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the Lipschitz constant M is not finite (inf)")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_a_horizon_past_the_address_space_exits_1(problem_file, tmp_path, capsys):
    # 10**15 rows need petabytes, more than a 47-bit address space holds, so
    # the allocation fails at once without touching memory
    assert run_cli(["solve", "--problem", problem_file, "--out", str(tmp_path / "o"),
                    "--horizon", str(10**15)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
