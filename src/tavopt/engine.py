"""Dual subgradient iteration with primal time averaging.

Each step picks a decision-set point minimizing the current linear dual term,
an auxiliary box point minimizing the penalized objective, and then moves the
dual variables by a fixed 1/V step.  Individual iterates do not converge for
piecewise-linear data; their running averages do, which is what the trace
tracks, together with staggered averages restarted on geometrically growing
frames.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import math

import numpy as np

from .problem import GridProduct, ProblemSpec

__all__ = [
    "SolverConfig",
    "DualState",
    "RunTrace",
    "NumericError",
    "x_update",
    "y_update",
    "dual_update",
    "run",
    "staggered_average",
    "write_trace_csv",
]


class NumericError(RuntimeError):
    """A run produced a non-finite value."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of a single run.

    v is the inverse stepsize (v >= 1 keeps the dual trajectory bounded when
    started from zero).  restart_base, when set, restarts the staggered
    average at iterations base**k.  record_every > 1 thins the stored rows
    while running averages stay exact at the logged points.
    """

    v: float
    horizon: int
    initial_w: Optional[tuple] = None
    initial_z: Optional[tuple] = None
    restart_base: Optional[int] = 2
    record_every: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.v) and self.v >= 1.0):
            raise ValueError("v must be finite and >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.restart_base is not None and self.restart_base < 2:
            raise ValueError("restart_base must be >= 2 when set")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        for name in ("initial_w", "initial_z"):
            val = getattr(self, name)
            if val is not None:
                vals = tuple(float(u) for u in val)
                if not all(math.isfinite(u) for u in vals):
                    raise ValueError(f"{name} must be finite")
                object.__setattr__(self, name, vals)
        if self.initial_w is not None and any(u < 0.0 for u in self.initial_w):
            raise ValueError("initial_w must be nonnegative")


@dataclass(frozen=True)
class DualState:
    """Dual variables (w, z) at iteration t; w stays nonnegative."""

    w: np.ndarray
    z: np.ndarray
    t: int = 0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if np.any(w < 0.0):
            raise ValueError("w components must be nonnegative")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", z)


def _y_minimizers(spec: ProblemSpec):
    """Per-coordinate closed-form minimizers of piece(y) + c*y over the box."""
    mins = []
    for piece, lo, hi in zip(spec.objective.pieces, spec.box.lower, spec.box.upper):
        am = piece.argmin_shifted
        mins.append(lambda c, am=am, lo=float(lo), hi=float(hi): am(c, lo, hi))
    return mins


def x_update(spec: ProblemSpec, z) -> np.ndarray:
    """Decision-set point minimizing z . x over the hull.

    Grid sets decide each coordinate by the sign of z (ties take the smallest
    value); explicit sets enumerate, breaking ties lexicographically.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.dimension,):
        raise ValueError(f"z has shape {z.shape}, expected ({spec.dimension},)")
    return spec.decision_set.linear_argmin(z)


def y_update(spec: ProblemSpec, w, z) -> np.ndarray:
    """Box point minimizing f(y) + w . g(y) - z . y.

    With affine constraints and a separable objective the problem decouples
    per coordinate and is solved in closed form.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("w components must be nonnegative")
    A, _ = spec.constraint_matrix()
    mins = _y_minimizers(spec)
    out = np.empty(spec.dimension)
    for i in range(spec.dimension):
        c = -z[i]
        for j in range(A.shape[0]):
            c += w[j] * A[j, i]
        out[i] = mins[i](c)
    return out


def dual_update(state: DualState, x, y, g_of_y, v: float) -> DualState:
    """One dual step: w <- [w + g(y)/V]+, z <- z + (x - y)/V."""
    if v < 1.0:
        raise ValueError("v must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g_of_y = np.asarray(g_of_y, dtype=float)
    w_next = np.maximum(0.0, state.w + g_of_y / v)
    z_next = state.z + (x - y) / v
    return DualState(w=w_next, z=z_next, t=state.t + 1)


@dataclass(frozen=True)
class RunTrace:
    """Recorded history of one run.

    Row k corresponds to iteration ts[k]: the primal pair (x, y), the dual
    variables before the step, the dual function value, the running averages
    over iterations 0..ts[k] inclusive, and the staggered-frame average.
    w_final/z_final hold the dual variables after the last step, which close
    the telescoping identities at T = horizon.  The frame of each row
    (frame_id, frame_start) follows from ts and restart_times.
    """

    ts: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    z: np.ndarray
    d: np.ndarray
    xbar: np.ndarray
    ybar: np.ndarray
    xbar_frame: np.ndarray
    w_final: np.ndarray
    z_final: np.ndarray
    restart_times: np.ndarray
    v: float
    horizon: int
    record_every: int
    spec: ProblemSpec
    config: SolverConfig

    @property
    def full(self) -> bool:
        return self.record_every == 1 and len(self.ts) == self.horizon

    def lambda_rows(self) -> np.ndarray:
        """Dual vectors (w, z) at the logged iterations, one per row."""
        return np.hstack([self.w, self.z])

    @property
    def lambda_final(self) -> np.ndarray:
        return np.concatenate([self.w_final, self.z_final])

    @cached_property
    def frame_id(self) -> np.ndarray:
        """Restarts up to and including each logged iteration."""
        return np.searchsorted(self.restart_times, self.ts, side="right")

    @cached_property
    def frame_start(self) -> np.ndarray:
        """First iteration of the staggered frame of each logged row."""
        starts = np.concatenate([np.zeros(1, dtype=np.int64), self.restart_times])
        return starts[self.frame_id]


def run(spec: ProblemSpec, config: SolverConfig) -> RunTrace:
    """Execute the iteration for config.horizon steps and record the trace.

    The loop inlines the x/y/dual updates with plain scalar arithmetic (the
    vectors involved are tiny, so this is much faster than ndarray ops) but
    uses exactly the same per-coordinate closed forms as the public update
    operations, so composing those reproduces the trace bit for bit.
    """
    I = spec.dimension
    J = spec.constraint_count
    V = float(config.v)
    T = int(config.horizon)

    A_np, b_np = spec.constraint_matrix()
    A = [[float(A_np[j, i]) for i in range(I)] for j in range(J)]
    b = [float(b_np[j]) for j in range(J)]
    y_min = _y_minimizers(spec)
    piece_vals = [p.value for p in spec.objective.pieces]

    ds = spec.decision_set
    grid_mode = isinstance(ds, GridProduct)
    if grid_mode:
        vlo = [vs[0] for vs in ds.values]
        vhi = [vs[-1] for vs in ds.values]
    else:
        pick_x = ds.linear_argmin

    w = list(config.initial_w) if config.initial_w is not None else [0.0] * J
    z = list(config.initial_z) if config.initial_z is not None else [0.0] * I
    if len(w) != J:
        raise ValueError(f"initial_w has length {len(w)}, expected {J}")
    if len(z) != I:
        raise ValueError(f"initial_z has length {len(z)}, expected {I}")

    # Kahan-compensated running sums keep averages exact at every horizon.
    sx = [0.0] * I
    cx = [0.0] * I
    sy = [0.0] * I
    cy = [0.0] * I
    sfx = [0.0] * I
    cfx = [0.0] * I
    frame_len = 0
    base = config.restart_base
    next_restart = 1 if base is not None else -1
    restart_times = []

    cols_x = [array("d") for _ in range(I)]
    cols_y = [array("d") for _ in range(I)]
    cols_w = [array("d") for _ in range(J)]
    cols_z = [array("d") for _ in range(I)]
    col_d = array("d")
    cols_xbar = [array("d") for _ in range(I)]
    cols_ybar = [array("d") for _ in range(I)]
    cols_fx = [array("d") for _ in range(I)]
    col_ts = array("q")

    record_every = config.record_every
    x = [0.0] * I
    y = [0.0] * I
    g = [0.0] * J

    for t in range(T):
        if t == next_restart:
            restart_times.append(t)
            frame_len = 0
            for i in range(I):
                sfx[i] = 0.0
                cfx[i] = 0.0
            next_restart *= base

        if grid_mode:
            for i in range(I):
                x[i] = vlo[i] if z[i] >= 0.0 else vhi[i]
        else:
            xv = pick_x(z)
            for i in range(I):
                x[i] = xv[i]

        fy = 0.0
        for i in range(I):
            c = -z[i]
            for j in range(J):
                c += w[j] * A[j][i]
            yi = y_min[i](c)
            y[i] = yi
            fy += piece_vals[i](yi)

        dval = fy
        for j in range(J):
            gj = b[j]
            Aj = A[j]
            for i in range(I):
                gj += Aj[i] * y[i]
            g[j] = gj
            dval += w[j] * gj
        for i in range(I):
            dval += z[i] * (x[i] - y[i])

        frame_len += 1
        for i in range(I):
            xi = x[i]
            u = xi - cx[i]
            s = sx[i] + u
            cx[i] = (s - sx[i]) - u
            sx[i] = s
            u = xi - cfx[i]
            s = sfx[i] + u
            cfx[i] = (s - sfx[i]) - u
            sfx[i] = s
            yi = y[i]
            u = yi - cy[i]
            s = sy[i] + u
            cy[i] = (s - sy[i]) - u
            sy[i] = s

        if t % record_every == 0 or t == T - 1:
            col_ts.append(t)
            n = t + 1
            for i in range(I):
                cols_x[i].append(x[i])
                cols_y[i].append(y[i])
                cols_z[i].append(z[i])
                cols_xbar[i].append(sx[i] / n)
                cols_ybar[i].append(sy[i] / n)
                cols_fx[i].append(sfx[i] / frame_len)
            for j in range(J):
                cols_w[j].append(w[j])
            col_d.append(dval)

        for j in range(J):
            wj = w[j] + g[j] / V
            w[j] = wj if wj > 0.0 else 0.0
        for i in range(I):
            z[i] = z[i] + (x[i] - y[i]) / V

    def to_matrix(cols, width):
        if width == 0:
            return np.empty((len(col_ts), 0))
        return np.column_stack([np.frombuffer(c, dtype=float) for c in cols])

    trace = RunTrace(
        ts=np.frombuffer(col_ts, dtype=np.int64),
        x=to_matrix(cols_x, I),
        y=to_matrix(cols_y, I),
        w=to_matrix(cols_w, J),
        z=to_matrix(cols_z, I),
        d=np.frombuffer(col_d, dtype=float),
        xbar=to_matrix(cols_xbar, I),
        ybar=to_matrix(cols_ybar, I),
        xbar_frame=to_matrix(cols_fx, I),
        w_final=np.array(w, dtype=float),
        z_final=np.array(z, dtype=float),
        restart_times=np.array(restart_times, dtype=np.int64),
        v=V,
        horizon=T,
        record_every=record_every,
        spec=spec,
        config=config,
    )

    for name in ("x", "y", "w", "z", "d"):
        block = getattr(trace, name)
        if not np.all(np.isfinite(block)):
            bad = np.where(~np.isfinite(block).reshape(len(trace.ts), -1).all(axis=1))[0]
            raise NumericError("non-finite value", int(trace.ts[bad[0]]))
    if not (np.all(np.isfinite(trace.w_final)) and np.all(np.isfinite(trace.z_final))):
        raise NumericError("non-finite dual state", T)
    return trace


def staggered_average(trace: RunTrace, start: int, count: int) -> np.ndarray:
    """Average of x(t) over the window [start, start + count).

    Recomputed from the stored per-iteration records, so the trace must be
    complete (record_every == 1).
    """
    if not trace.full:
        raise ValueError("staggered_average needs a complete trace (record_every == 1)")
    if count < 1:
        raise ValueError("window length must be >= 1")
    if start < 0 or start + count > trace.horizon:
        raise ValueError(
            f"window [{start}, {start + count}) out of range for horizon {trace.horizon}")
    return trace.x[start:start + count].mean(axis=0)


def format_trace_float(value) -> str:
    """Shortest decimal form that round-trips the double exactly."""
    return repr(float(value))


def write_trace_csv(trace: RunTrace, path, rows=None) -> None:
    """Write logged rows as CSV.

    Columns: t, x_*, y_*, w_*, z_*, d_lambda, xbar_*, f_xbar, g_*_xbar,
    frame_id, xbar_frame_*.  Floats use the shortest round-trip decimal form.
    rows optionally selects a subset of logged row indices.
    """
    I = trace.spec.dimension
    J = trace.spec.constraint_count
    A, b = trace.spec.constraint_matrix()
    idx = np.arange(len(trace.ts)) if rows is None else np.asarray(rows)
    header = (
        ["t"]
        + [f"x_{i + 1}" for i in range(I)]
        + [f"y_{i + 1}" for i in range(I)]
        + [f"w_{j + 1}" for j in range(J)]
        + [f"z_{i + 1}" for i in range(I)]
        + ["d_lambda"]
        + [f"xbar_{i + 1}" for i in range(I)]
        + ["f_xbar"]
        + [f"g_{j + 1}_xbar" for j in range(J)]
        + ["frame_id"]
        + [f"xbar_frame_{i + 1}" for i in range(I)]
    )
    fmt = format_trace_float
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in idx:
            xbar = trace.xbar[k]
            g_xbar = A @ xbar + b
            cells = [str(int(trace.ts[k]))]
            cells += [fmt(v) for v in trace.x[k]]
            cells += [fmt(v) for v in trace.y[k]]
            cells += [fmt(v) for v in trace.w[k]]
            cells += [fmt(v) for v in trace.z[k]]
            cells.append(fmt(trace.d[k]))
            cells += [fmt(v) for v in xbar]
            cells.append(fmt(trace.spec.objective.value(xbar)))
            cells += [fmt(v) for v in g_xbar]
            cells.append(str(int(trace.frame_id[k])))
            cells += [fmt(v) for v in trace.xbar_frame[k]]
            fh.write(",".join(cells) + "\n")
