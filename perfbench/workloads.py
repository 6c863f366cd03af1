"""Workload inputs and output checks for the tavopt benchmark.

This module is plain Python and never imports tavopt: the parent process
builds every input from the seed and checks every output on its own, so a
check cannot share a defect with the code it checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

MAIN_V = 100.0  # the CLI's default V, used by the main run of every workload
EPS = 0.01  # accuracy of the iterations-to-accuracy counts
REPRODUCE_F_OPT = {2: 1.25, 3: 0.5, 4: 1.25, 5: 0.5}  # closed-form optima, figures 2-5


@dataclass(frozen=True)
class Workload:
    """One pass of a workload is `argv`, which traced runs call whole.
    Timed runs call `parts` in turn instead, which together do the same
    work: a pass of reproduce is split into its four figures, so that each
    call is short (see README.md).  The out directory is appended to an
    argv per call."""
    name: str
    argv: tuple  # run_cli arguments of one pass
    parts: tuple  # argvs of the calls one pass is timed as
    problem_path: str | None  # generated problem JSON, None for reproduce
    iterations: int  # engine iterations of one pass
    horizon: int  # main-run horizon


def _points_instance(rng: random.Random) -> dict:
    """3-D explicit-point instance with one piece of each kind and two
    >= constraints that hold with slack at the centroid of the points."""
    pts = set()
    while len(pts) < 8:
        pts.add(tuple(rng.randint(0, 12) / 4 for _ in range(3)))
    pts = sorted(pts)
    centroid = [sum(p[i] for p in pts) / 8 for i in range(3)]
    constraints = []
    for _ in range(2):
        coeffs = [rng.randint(1, 4) / 2 for _ in range(3)]
        level = sum(c * x for c, x in zip(coeffs, centroid))
        constraints.append({"coeffs": coeffs, "offset": round(level - rng.uniform(0.2, 0.8), 3),
                            "sense": ">="})
    slopes = sorted(rng.randint(-4, 8) / 4 for _ in range(3))
    return {
        "dimension": 3,
        "decision_set": {"points": [list(p) for p in pts]},
        "objective": [
            {"kind": "quadratic", "curvature": rng.randint(2, 8) / 4, "slope": rng.randint(-4, 4) / 4},
            {"kind": "piecewise_linear", "breakpoints": [1.0, 2.0], "slopes": slopes},
            {"kind": "linear", "slope": rng.randint(1, 8) / 4},
        ],
        "constraints": constraints,
    }


def _grid_instance(rng: random.Random) -> dict:
    """3-D grid {0,1,2,3}^3 with three >= constraints (a 6-D dual).

    The coefficients are fixed; the seed permutes the coordinates and the
    constraints.  The instances of all seeds are the same problem up to
    that relabelling, so they cost the same work (coefficients drawn per
    seed changed the analysis's work by up to 2x between seeds)."""
    base = random.Random("diagnose-grid:1")
    constraints = []
    for _ in range(3):
        coeffs = [base.randint(1, 6) / 2 for _ in range(3)]
        target = [base.uniform(0.4, 1.2) for _ in range(3)]
        constraints.append({"coeffs": coeffs,
                            "offset": round(sum(c * t for c, t in zip(coeffs, target)), 3),
                            "sense": ">="})
    objective = [
        {"kind": "quadratic", "curvature": base.randint(2, 8) / 4, "slope": 0.0},
        {"kind": "linear", "slope": base.randint(2, 8) / 4},
        {"kind": "quadratic", "curvature": base.randint(2, 8) / 4, "slope": 0.0},
    ]
    axes = rng.sample(range(3), 3)
    for con in constraints:
        con["coeffs"] = [con["coeffs"][a] for a in axes]
    return {
        "dimension": 3,
        "decision_set": {"grid": [[0, 1, 2, 3]] * 3},
        "objective": [objective[a] for a in axes],
        "constraints": rng.sample(constraints, 3),
    }


def make(name: str, seed: int, work: str, tiny: bool = False) -> Workload:
    """Write the inputs of workload `name` for `seed` into `work`.

    Horizons are short enough for many calls per run (0.4-1 s each), so
    that the median of a run's scaled calls is steady; tiny shortens them
    further for the smoke test.
    """
    rng = random.Random(f"{name}:{seed}")
    problem = None
    if name == "reproduce":
        horizon = 10_000 if tiny else 50_000
        argv = ["reproduce", "--horizon", str(horizon)]
        iterations = 4 * horizon
    elif name == "solve-trace":
        horizon = 5_000 if tiny else 10_000
        problem = _points_instance(rng)
        argv = ["solve", "--log-every", "1", "--horizon", str(horizon)]
        iterations = horizon
    elif name == "diagnose-grid":
        horizon = 5_000 if tiny else 20_000
        problem = _grid_instance(rng)
        argv = ["diagnose", "--method", "grid-dual-max", "--geometry", "both",
                "--horizon", str(horizon)]
        iterations = horizon
    else:
        raise ValueError(f"unknown workload {name!r}")
    path = None
    if problem is not None:
        path = os.path.join(work, "problem.json")
        with open(path, "w") as fh:
            json.dump(problem, fh, indent=2)
        argv += ["--problem", path]
    if name == "reproduce":
        parts = tuple((*argv, "--figure", str(fig)) for fig in REPRODUCE_F_OPT)
    else:
        parts = (tuple(argv),)
    return Workload(name, tuple(argv), parts, path, iterations, horizon)


NAMES = ("reproduce", "solve-trace", "diagnose-grid")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def artifact_digests(out_dir: str) -> dict:
    """sha256 and size of every file a call wrote."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        size = 0
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
                size += len(block)
        out[name] = {"sha256": h.hexdigest(), "bytes": size}
    return out


def _summary(path: str) -> dict:
    with open(path) as fh:
        return dict(line.split(": ", 1) for line in fh.read().splitlines())


def _check_trace_csv(path: str, horizon: int) -> list:
    problems = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        xs = [k for k, h in enumerate(header) if h.startswith("x_")]
        bars = [header.index(f"xbar_{h[2:]}") for h in (header[k] for k in xs)]
        cols = [[] for _ in xs]
        lines = 1
        last = None
        for line in fh:
            lines += 1
            last = line.rstrip("\n").split(",")
            for col, k in zip(cols, xs):
                col.append(float(last[k]))
    if lines != horizon + 1:
        problems.append(f"trace.csv has {lines} lines, expected {horizon + 1}")
    if last is not None:
        for col, k in zip(cols, bars):
            mean = math.fsum(col) / len(col)
            if abs(float(last[k]) - mean) > 1e-12 * abs(mean):
                problems.append(f"trace.csv {header[k]} {last[k]} != fsum mean {mean!r}")
    return problems


def check(wl: Workload, argv: tuple, out_dir: str, stdout: str) -> list:
    """Everything wrong with the outputs of one call of `argv` (an empty
    list if nothing)."""
    problems = []
    if wl.name == "reproduce":
        figures = list(REPRODUCE_F_OPT)
        if "--figure" in argv:
            figures = [int(argv[argv.index("--figure") + 1])]
        for fig in figures:
            f_opt = REPRODUCE_F_OPT[fig]
            if f"figure {fig}: PASS" not in stdout:
                problems.append(f"figure {fig} did not print PASS")
            s = _summary(os.path.join(out_dir, f"figure{fig}_summary.txt"))
            oracle = float(s.get("f_opt_oracle_lp", s["f_opt_oracle_grid"]))
            if abs(oracle - f_opt) > 1e-6:
                problems.append(f"figure {fig}: oracle {oracle} != closed form {f_opt}")
            if abs(float(s["f_xbar_final"]) - oracle) > 0.02:
                problems.append(f"figure {fig}: f_xbar_final {s['f_xbar_final']} "
                                f"not within 0.02 of {oracle}")
    elif wl.name == "solve-trace":
        problems += _check_trace_csv(os.path.join(out_dir, "trace.csv"), wl.horizon)
    else:  # diagnose-grid
        s = _summary(os.path.join(out_dir, "summary.txt"))
        if int(s["drift_certificate_violations"]) != 0:
            problems.append(f"{s['drift_certificate_violations']} drift-certificate violations")
        if not float(s["estimate_residual"]) <= 1e-2:
            problems.append(f"estimate_residual {s['estimate_residual']} > 1e-2")
    return problems
