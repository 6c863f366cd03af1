"""Dual subgradient iteration with primal time averaging.

Each step picks a decision-set point minimizing the current linear dual term,
an auxiliary box point minimizing the penalized objective, and then moves the
dual variables by a fixed 1/V step.  Individual iterates do not converge for
piecewise-linear data; their running averages do, which is what the trace
tracks, together with staggered averages restarted on doubling frames
(1, 2, 4, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Optional

import math
import struct

import numpy as np

from .problem import ProblemSpec, float_literal

__all__ = [
    "SolverConfig",
    "RunTrace",
    "NumericError",
    "x_update",
    "y_update",
    "dual_update",
    "run",
    "staggered_average",
    "write_table",
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
    started from zero).  Every iteration is recorded.
    """

    v: float
    horizon: int
    initial_w: Optional[tuple] = None
    initial_z: Optional[tuple] = None

    def __post_init__(self):
        if not (math.isfinite(self.v) and self.v >= 1.0):
            raise ValueError("v must be finite and >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("initial_w", "initial_z"):
            val = getattr(self, name)
            if val is not None:
                vals = tuple(float(u) for u in val)
                if not all(math.isfinite(u) for u in vals):
                    raise ValueError(f"{name} must be finite")
                object.__setattr__(self, name, vals)
        if self.initial_w is not None and any(u < 0.0 for u in self.initial_w):
            raise ValueError("initial_w must be nonnegative")


def x_update(spec: ProblemSpec, z) -> np.ndarray:
    """Decision-set point minimizing z . x over the hull.

    The decision set's linear_argmin: a grid decides each coordinate by the
    sign of z (ties take the smallest value); explicit sets take the first
    minimum of ExplicitPoints.scores, so ties go to the lexicographically
    smallest point.  run()'s step loop and the dual formula take x from the
    set's other two forms of it, with the same bits.
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
    # Python floats, as in run()'s loop: numpy scalars would warn where a
    # subnormal curvature sends a vertex to +-inf before the clip
    A = spec.constraint_matrix()[0].tolist()
    w, z = w.tolist(), z.tolist()
    out = np.empty(spec.dimension)
    for i, piece in enumerate(spec.objective.pieces):
        c = -z[i]
        for j, Aj in enumerate(A):
            c += w[j] * Aj[i]
        out[i] = piece.argmin_shifted(c, float(spec.box.lower[i]), float(spec.box.upper[i]))
    return out


def dual_update(w, z, x, y, g_of_y, v: float) -> tuple[np.ndarray, np.ndarray]:
    """One dual step: w <- [w + g(y)/V]+, z <- z + (x - y)/V; returns (w, z)."""
    if v < 1.0:
        raise ValueError("v must be >= 1")
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("w components must be nonnegative")
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g_of_y = np.asarray(g_of_y, dtype=float)
    return np.maximum(0.0, w + g_of_y / v), z + (x - y) / v


def running_mean(a: np.ndarray) -> np.ndarray:
    """Compensated running means of the rows of a: row k is the mean of a[:k+1].

    hi is the plain running sum of the rows, with a zero row in front; the
    running sum of the exact rounding errors of hi, each one found by TwoSum
    from hi[k-1], a[k-1] and hi[k], is added to it before the one division,
    which carries each prefix sum to about twice the working precision.  A
    window that starts later is the running mean of its own slice, so its
    error is relative to its own values, not to the rows before it.
    """
    zero = np.zeros((1,) + a.shape[1:])
    hi = np.cumsum(np.concatenate([zero, a]), axis=0)
    prev, total = hi[:-1], hi[1:]
    a_part = total - prev
    err = (prev - (total - a_part)) + (a - a_part)
    return (total + np.cumsum(err, axis=0)) / np.arange(1, len(a) + 1)[:, None]


@dataclass(frozen=True)
class RunTrace:
    """Recorded history of one run, one row per iteration t = 0..horizon-1.

    Row t holds the primal pair (x, y), the dual variables before the step
    and the dual function value.  w_final/z_final hold the dual variables
    after the last step, which close the telescoping identities at
    T = horizon.  lambda_path holds (w, z) at t = 0..horizon, one per row;
    w, z, w_final and z_final are views of it, and x is a view of the same
    buffer, whose rows hold x after (w, z).  Everything else is derived
    after the run, on first use: the restart schedule and the frame of each
    row, and the time averages.  xbar and ybar average iterations 0..t
    inclusive and xbar_frame the current staggered frame; all three, like
    staggered_average, are rows of running_mean, taken over the whole
    column for xbar and ybar and over the window's own slice for the others.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    z: np.ndarray
    d: np.ndarray
    w_final: np.ndarray
    z_final: np.ndarray
    lambda_path: np.ndarray
    v: float
    horizon: int
    spec: ProblemSpec

    @cached_property
    def ts(self) -> np.ndarray:
        return np.arange(self.horizon, dtype=np.int64)

    @cached_property
    def restart_times(self) -> np.ndarray:
        """Iterations 1, 2, 4, ... below the horizon."""
        return 1 << np.arange((self.horizon - 1).bit_length(), dtype=np.int64)

    @cached_property
    def frame_id(self) -> np.ndarray:
        """Restarts up to and including each iteration."""
        return np.searchsorted(self.restart_times, self.ts, side="right")

    @cached_property
    def frame_start(self) -> np.ndarray:
        """First iteration of the staggered frame of each row."""
        starts = np.concatenate([np.zeros(1, dtype=np.int64), self.restart_times])
        return starts[self.frame_id]

    @cached_property
    def xbar(self) -> np.ndarray:
        return running_mean(self.x)

    @cached_property
    def ybar(self) -> np.ndarray:
        return running_mean(self.y)

    @cached_property
    def xbar_frame(self) -> np.ndarray:
        # sums restarted at each frame start, so a frame of tiny values after
        # large ones keeps the precision of a fresh sum
        return np.concatenate([running_mean(f) for f in np.split(self.x, self.restart_times)])


# run() steps this many rows at a time, then derives their y and d in numpy:
# enough rows to amortise the ~10 numpy calls per coordinate and constraint
# of _dual_columns (0.1-0.3 ms a chunk), few enough that a blow-up stops
# soon.  No result depends on it.
_CHUNK_ROWS = 4096


def _dual_columns(spec: ProblemSpec, w, z, x=None):
    """Dual value d and minimizers x, y from multiplier columns.

    w holds J arrays and z holds I arrays, of any shapes that broadcast
    together.  The arithmetic is elementwise and follows the public updates
    term by term: x_i is x_update's, y_i is y_update's minimizer at c_i =
    -z_i + w_0*A_0i + ..., and d = 0.0 + sum value_i(y_i) + sum w_j*g_j +
    sum z_i*(x_i - y_i) with g_j = b_j + A_j0*y_0 + ....  So every entry
    has the same bits, whatever batch or grid it sits in, and a term that
    depends on (w, z_i) only keeps that smaller shape: on a product grid,
    y_i is computed once per (w, z_i) pair.  x, when given, holds the I
    columns of x_update's points at z: run() passes the points its step
    loop chose, and without it they come from the decision set's
    linear_argmin_columns.  This is the one dual formula: run() records y
    and d through it, and the analysis evaluates the dual with it.  Returns
    d and the lists of x_i and y_i columns.
    """
    A, b = (m.tolist() for m in spec.constraint_matrix())
    if x is None:
        x = spec.decision_set.linear_argmin_columns(z)
    y = []
    for i, (piece, lo, hi) in enumerate(zip(spec.objective.pieces, spec.box.lower.tolist(),
                                            spec.box.upper.tolist())):
        c = -z[i]
        for wj, Aj in zip(w, A):
            c = c + wj * Aj[i]
        y.append(piece.argmin_shifted_batch(c, lo, hi))
    d = 0.0
    for piece, yi in zip(spec.objective.pieces, y):
        d = d + piece.values(yi)
    for wj, Aj, bj in zip(w, A, b):
        g = bj
        for Aji, yi in zip(Aj, y):
            g = g + Aji * yi
        d = d + wj * g
    for zi, xi, yi in zip(z, x, y):
        d = d + zi * (xi - yi)
    return d, x, y


def _step_loop_source(spec: ProblemSpec, config: SolverConfig) -> str:
    """Source of run()'s step loop, unrolled for this spec's I and J.

    The loop runs steps start..stop-1 from the dual state (w, z) and returns
    the state after them.  Each step does the arithmetic of x_update,
    y_update and dual_update term by term in the same order, and packs the
    J+I values of (w, z), then the I values of x, into its row.  The text
    holds only names built from integer indices and the repr of the
    validated finite constants of spec and config; the decision set writes
    its own x-step lines (linear_argmin_lines), reading itself as the loop's
    decision_set argument, and each piece its own minimizer line for its
    box.
    """
    I, J = spec.dimension, spec.constraint_count
    A, b = spec.constraint_matrix()
    lit = float_literal

    def each(fmt, count=I):
        return [fmt.format(k=k) for k in range(count)]

    ws, zs, xs = each("w{k}", J), each("z{k}"), each("x{k}")
    prelude, pick = spec.decision_set.linear_argmin_lines(xs, zs)
    lines = ["def step_loop(decision_set, w, z, start, stop, rows, pack_into):",
             f"    [{', '.join(ws)}] = w",
             f"    [{', '.join(zs)}] = z",
             *("    " + line for line in prelude),
             "    for t in range(start, stop):",
             *("        " + line for line in pick),
             f"        pack_into(rows, {8 * (J + 2 * I)} * t, {', '.join(ws + zs + xs)})"]
    for i, piece in enumerate(spec.objective.pieces):
        c = " + ".join([f"-z{i}"] + [f"w{j} * {lit(A[j, i])}" for j in range(J)])
        lines.append("        " + piece.argmin_shifted_line(
            f"y{i}", c, float(spec.box.lower[i]), float(spec.box.upper[i])))
    for j in range(J):
        g = " + ".join([lit(b[j])] + [f"{lit(A[j, i])} * y{i}" for i in range(I)])
        lines.append(f"        g{j} = {g}")
    V = lit(config.v)
    for j in range(J):
        lines += [f"        w{j} = w{j} + g{j} / {V}", f"        w{j} = w{j} if w{j} > 0.0 else 0.0"]
    lines += [f"        z{i} = z{i} + (x{i} - y{i}) / {V}" for i in range(I)]
    lines.append(f"    return [{', '.join(ws)}], [{', '.join(zs)}]")
    return "\n".join(lines) + "\n"


def run(spec: ProblemSpec, config: SolverConfig) -> RunTrace:
    """Execute the iteration for config.horizon steps and record every step.

    The step loop is generated and compiled once per call, unrolled into
    scalar locals for the spec's coordinates and constraints (the vectors are
    tiny, so this is much faster than generic loops or ndarray ops).  It uses
    exactly the same per-coordinate closed forms and summation order as the
    public update operations, so composing those reproduces the trace bit for
    bit.  The loop stores only the dual path (w, z) and the chosen points x,
    one row of one buffer per step, a chunk of rows at a time; after each
    chunk, y and d of its rows come from the one dual formula,
    _dual_columns, with the bits of the public updates.  A non-finite d
    raises NumericError at the iteration that shows it, before the chunk
    after it runs.
    """
    I, J = spec.dimension, spec.constraint_count
    T = int(config.horizon)
    w = list(config.initial_w) if config.initial_w is not None else [0.0] * J
    z = list(config.initial_z) if config.initial_z is not None else [0.0] * I
    if len(w) != J:
        raise ValueError(f"initial_w has length {len(w)}, expected {J}")
    if len(z) != I:
        raise ValueError(f"initial_z has length {len(z)}, expected {I}")

    namespace = {}
    exec(compile(_step_loop_source(spec, config), "<tavopt step loop>", "exec"), namespace)
    step_loop = namespace["step_loop"]
    pack_into = struct.Struct(f"{J + 2 * I}d").pack_into
    # rows of (w, z, x); row T holds the final (w, z), its x left unset
    rows = np.empty((T + 1, J + 2 * I))
    y, d = np.empty((T, I)), np.empty(T)
    # past a blow-up the values turn inf and nan, quietly, as Python floats do
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, T, _CHUNK_ROWS):
            stop = min(T, start + _CHUNK_ROWS)
            w, z = step_loop(spec.decision_set, w, z, start, stop, rows, pack_into)
            cols = rows[start:stop].T
            d[start:stop], _, ys = _dual_columns(spec, cols[:J], cols[J:J + I], cols[J + I:])
            # every w_j, z_i and y_i enters d times a finite factor, so a
            # non-finite value anywhere in a row makes its d non-finite
            bad = np.flatnonzero(~np.isfinite(d[start:stop]))
            if len(bad):
                raise NumericError("non-finite value", start + int(bad[0]))
            for i in range(I):
                y[start:stop, i] = ys[i]

    lam = rows[:, :J + I]
    lam[T] = w + z
    if not np.all(np.isfinite(lam[T])):
        raise NumericError("non-finite dual state", T)
    return RunTrace(x=rows[:T, J + I:], y=y, w=lam[:T, :J], z=lam[:T, J:], d=d,
                    w_final=lam[T, :J], z_final=lam[T, J:], lambda_path=lam,
                    v=float(config.v), horizon=T, spec=spec)


def staggered_average(trace: RunTrace, start: int, count) -> np.ndarray:
    """Average of x(t) over the window [start, start + count).

    count is one window length, or an array of lengths that gives one
    average per length, all starting at start.  The averages are rows of
    running_mean over x[start:start + max(count)], restarted at start as
    xbar_frame's are at each frame, so the error is relative to the window's
    own values, not to the sum of the rows before it.  One call costs
    O(max(count)) for every length at once.
    """
    counts = np.asarray(count)
    if np.any(counts < 1):
        raise ValueError("window length must be >= 1")
    stop = start + int(np.max(counts))
    if start < 0 or stop > trace.horizon:
        raise ValueError(f"window [{start}, {stop}) out of range for horizon {trace.horizon}")
    return running_mean(trace.x[start:stop])[counts - 1]


# rows formatted at a time: enough to amortise the per-block numpy calls,
# few enough that the Python values of one block stay small
_TABLE_BLOCK_ROWS = 256


def write_table(path, header, columns) -> None:
    """Write a CSV with one header line and one row per index of columns.

    columns are 1-D arrays (one cell per row) or 2-D blocks (one cell per
    block column), all of the same length; a column of another length raises
    ValueError.  Each cell is the repr of its .tolist() value, so ints print
    as ints and floats in the shortest decimal form that round-trips the
    double.  Rows are formatted a fixed number at a time, so memory beyond
    the arrays stays bounded.  In each such chunk, adjacent blocks of one
    dtype form a run (zero-width blocks hold no cells and do not split one),
    stacked into one 2-D array; each row of the file is the join of its
    runs' row texts.  A native float64 or integer run gets its row texts
    from one orjson.dumps call: its shortest round-trip digits (Ryu) equal
    repr's wherever repr writes fixed notation.  The float cells where the
    two differ are replaced by their repr within their row: nan and +-inf
    (orjson prints null) and nonzero magnitudes below 1e-4 or from 1e16 on
    (repr writes 1e-05 and 1e+16, orjson 0.00001 and 1e16).  Runs of any
    other dtype go through repr alone, one row at a time.
    """
    # imported here, not at module level: it adds ~6.5 ms to `import tavopt`
    from orjson import OPT_SERIALIZE_NUMPY, dumps

    def row_texts(run):
        """The cells of each row of a stacked run, joined by commas.  The
        stacking gives native byte order, which orjson needs."""
        dt = run.dtype
        if not (dt == np.float64 or dt.kind in "iu"):
            return [",".join(map(repr, row)) for row in run.tolist()]
        out = dumps(run, option=OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
        if dt.kind == "f":
            mag = np.abs(run)
            rows, cols = np.nonzero(~((mag >= 1e-4) & (mag < 1e16)) & (mag != 0.0))
            patched = {}
            for r, c, v in zip(rows.tolist(), cols.tolist(), run[rows, cols].tolist()):
                if r not in patched:
                    patched[r] = out[r].split(",")
                patched[r][c] = repr(v)
            for r, cells in patched.items():
                out[r] = ",".join(cells)
        return out

    blocks = [c.reshape(len(c), 1) if c.ndim == 1 else c for c in map(np.asarray, columns)]
    n = len(blocks[0])
    for k, block in enumerate(blocks):
        if len(block) != n:
            raise ValueError(f"column {k} has {len(block)} rows, column 0 has {n}")
    runs = [list(run) for _, run in groupby((b for b in blocks if b.shape[1]), lambda b: b.dtype)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _TABLE_BLOCK_ROWS):
            texts = [row_texts(np.concatenate([b[lo:lo + _TABLE_BLOCK_ROWS] for b in run], axis=1))
                     for run in runs]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def write_trace_csv(trace: RunTrace, path, rows=None):
    """Write trace rows as CSV through write_table; return the f_xbar and
    g_*_xbar columns it wrote, one row per written row.

    Columns: t, x_*, y_*, w_*, z_*, d_lambda, xbar_*, f_xbar, g_*_xbar,
    frame_id, xbar_frame_*.  rows optionally selects a subset of row
    indices; without it every row is written from views of the trace, with
    no copies of its columns.  The derived columns are built once for the
    selected rows: f_xbar by objective.values (equal to objective.value row
    by row) and g_*_xbar as the one batch product xbar @ A.T + b, the one
    error_series uses; frame_id and xbar_frame come from the trace.
    """
    spec = trace.spec
    A, b = spec.constraint_matrix()
    idx = slice(None) if rows is None else np.asarray(rows)
    xbar = trace.xbar[idx]

    def names(prefix, count, suffix=""):
        return [f"{prefix}_{k + 1}{suffix}" for k in range(count)]

    I, J = spec.dimension, spec.constraint_count
    header = (["t", *names("x", I), *names("y", I), *names("w", J), *names("z", I), "d_lambda",
               *names("xbar", I), "f_xbar", *names("g", J, "_xbar"), "frame_id",
               *names("xbar_frame", I)])
    f_xbar, g_xbar = spec.objective.values(xbar), xbar @ A.T + b
    write_table(path, header, [
        trace.ts[idx], trace.x[idx], trace.y[idx], trace.w[idx], trace.z[idx], trace.d[idx],
        xbar, f_xbar, g_xbar, trace.frame_id[idx], trace.xbar_frame[idx]])
    return f_xbar, g_xbar
