"""Shared fixtures: the four demo instances, their oracle optima,
full-horizon traces reused across the analysis and acceptance tests, and the
strategy of generated small specs."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import strategies as st

from tavopt import (
    AffineConstraint,
    ExplicitPoints,
    ExtendedBox,
    GridProduct,
    LinearPiece,
    PiecewiseLinearPiece,
    ProblemSpec,
    QuadraticPiece,
    SeparableConvexObjective,
    SolverConfig,
    run,
    solve_reference,
    solve_reference_lp,
)
from tavopt.cli import reference_instance

INSTANCE_NAMES = ("polyhedral", "smooth", "polyhedral-extra", "smooth-extra")

MAIN_V = 100.0
MAIN_HORIZON = 200_000

# the solve-trace benchmark problem of seed 7: eight 3-D points, one piece
# of each kind and two >= constraints
POINTS_PROBLEM = (
    '{"dimension": 3, "decision_set": {"points": [[0.0, 3.0, 0.0], [1.0, 0.0, 1.0], '
    '[1.0, 1.25, 0.0], [1.75, 0.25, 1.0], [1.75, 0.75, 3.0], [1.75, 2.25, 2.75], '
    '[1.75, 2.75, 1.0], [2.5, 1.75, 0.75]]}, "objective": [{"kind": "quadratic", '
    '"curvature": 1.75, "slope": 0.75}, {"kind": "piecewise_linear", "breakpoints": '
    '[1.0, 2.0], "slopes": [-0.5, 0.5, 0.75]}, {"kind": "linear", "slope": 1.5}], '
    '"constraints": [{"coeffs": [1.5, 1.0, 0.5], "offset": 3.7, "sense": ">="}, '
    '{"coeffs": [0.5, 0.5, 1.0], "offset": 1.906, "sense": ">="}]}')


def build_instance(name):
    objective = "linear" if name.startswith("polyhedral") else "quadratic"
    return reference_instance(objective, extra_constraint=name.endswith("-extra"))


@pytest.fixture(scope="session")
def instances():
    return {name: build_instance(name) for name in INSTANCE_NAMES}


@pytest.fixture(scope="session")
def oracle_values(instances):
    values = {}
    for name, spec in instances.items():
        result = solve_reference(spec, resolution=0.05)
        if name.startswith("polyhedral"):
            result = solve_reference_lp(spec)
        values[name] = result.f_opt
    return values


@pytest.fixture(scope="session")
def main_traces(instances):
    """Full traces at the reference settings, with wall-clock runtimes."""
    traces = {}
    for name, spec in instances.items():
        cfg = SolverConfig(v=MAIN_V, horizon=MAIN_HORIZON)
        start = time.perf_counter()
        trace = run(spec, cfg)
        traces[name] = (trace, time.perf_counter() - start)
    return traces


@pytest.fixture(scope="session")
def main_estimates(instances):
    from tavopt import estimate_multiplier

    return {name: estimate_multiplier(spec, "grid-dual-max", v=MAIN_V, seed=0)
            for name, spec in instances.items()}


def doubling_schedule(horizon):
    """The restart times 1, 2, 4, ... below horizon, one doubling at a time."""
    times, t = [], 1
    while t < horizon:
        times.append(t)
        t *= 2
    return times


def bits(values) -> bytes:
    """The raw bytes of values as doubles, for bitwise comparisons."""
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def generated_runs(draw):
    """A small spec and run config: I in 1-3, J in 0-3, a grid or explicit
    points, every piece kind."""
    I = draw(st.integers(1, 3))
    J = draw(st.integers(0, 3))
    coord = st.floats(-2.0, 3.0)
    small = st.floats(-3.0, 3.0)
    if draw(st.booleans()):
        ds = GridProduct(values=tuple(sorted(draw(st.lists(coord, min_size=1, max_size=4,
                                                            unique=True)))
                                      for _ in range(I)))
    else:
        ds = ExplicitPoints(points=draw(st.lists(st.lists(coord, min_size=I, max_size=I),
                                                 min_size=1, max_size=5)))
    lo, hi = ds.hull_bounds()
    pad = st.lists(st.floats(0.0, 1.0), min_size=I, max_size=I).map(np.array)
    pwl = st.integers(0, 2).flatmap(lambda n: st.builds(
        lambda bps, s0, steps: PiecewiseLinearPiece(
            breakpoints=tuple(sorted(bps)), slopes=tuple(itertools.accumulate([s0] + steps))),
        st.lists(coord, min_size=n, max_size=n, unique=True), small,
        st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    piece = st.one_of(st.builds(LinearPiece, small),
                      st.builds(QuadraticPiece, st.just(0.0) | st.floats(0.0, 3.0), small),
                      pwl)
    coeffs = st.lists(small, min_size=I, max_size=I).filter(any)
    spec = ProblemSpec(
        decision_set=ds, box=ExtendedBox(lo - draw(pad), hi + draw(pad)),
        objective=SeparableConvexObjective(pieces=[draw(piece) for _ in range(I)]),
        constraints=[AffineConstraint(coeffs=draw(coeffs), offset=draw(small))
                     for _ in range(J)])
    cfg = SolverConfig(v=draw(st.floats(1.0, 20.0)), horizon=draw(st.integers(1, 40)))
    return spec, cfg
