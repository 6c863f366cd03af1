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
from functools import cache, cached_property, partial
from itertools import groupby
from typing import Optional

import ctypes  # numpy loads it anyway
import math
import os

import numpy as np

from .problem import ProblemSpec, _affine_sum

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
        _check_v(self.v)
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


def _check_v(v: float) -> None:
    if not (math.isfinite(v) and v >= 1.0):
        raise ValueError("v must be finite and >= 1")


def x_update(spec: ProblemSpec, z) -> np.ndarray:
    """Decision-set point minimizing z . x over the hull.

    The decision set's linear_argmin: a grid decides each coordinate by the
    sign of z (ties take the smallest value); explicit sets take the first
    minimum of ExplicitPoints.scores, so ties go to the lexicographically
    smallest point.  The dual formula takes x from it too, and run()'s
    compiled step loop from the set's kernel_params, with the same bits.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.dimension,):
        raise ValueError(f"z has shape {z.shape}, expected ({spec.dimension},)")
    return spec.decision_set.linear_argmin(z)


def y_update(spec: ProblemSpec, w, z) -> np.ndarray:
    """Box point minimizing f(y) + w . g(y) - z . y.

    With affine constraints and a separable objective the problem decouples
    per coordinate and is solved in closed form by _y_columns, the dual
    formula's y-step, on the entries of w and z as Python floats; run()'s
    step loop gives the same bits.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("w components must be nonnegative")
    return np.array(_y_columns(spec, w.tolist(), z.tolist()))


def dual_update(w, z, x, y, g_of_y, v: float) -> tuple[np.ndarray, np.ndarray]:
    """One dual step: w <- [w + g(y)/V]+, z <- z + (x - y)/V; returns (w, z)."""
    _check_v(v)
    w = np.asarray(w, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("w components must be nonnegative")
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g_of_y = np.asarray(g_of_y, dtype=float)
    # the step loop's clamp u > 0 ? u : 0, which maps a nan to 0
    u = w + g_of_y / v
    return np.where(u > 0.0, u, 0.0), z + (x - y) / v


def running_mean(a: np.ndarray) -> np.ndarray:
    """Compensated running means of the rows of a: row k is the mean of a[:k+1].

    hi is the plain running sum of the rows, with a zero row in front; the
    running sum of the exact rounding errors of hi, each one found by TwoSum
    from hi[k-1], a[k-1] and hi[k], is added to it before the one division,
    which carries each prefix sum to about twice the working precision.  A
    window that starts later is the running mean of its own slice, so its
    error is relative to its own values, not to the rows before it.  An
    aligned 2-D float64 array, of any strides, is read in place by
    step_loop.c's running_mean, which allocates only its output; other
    arrays, and every array without the library, take the NumPy form below.
    A sum that overflows gives inf or nan in both forms, without a warning.
    """
    kernel = _kernel()
    if kernel is not None and a.ndim == 2 and a.dtype == np.float64 and a.flags.aligned:
        out = np.empty(a.shape)
        kernel.running_mean(*a.shape, a.ctypes, *(s // 8 for s in a.strides), out.ctypes)
        return out
    with np.errstate(over="ignore", invalid="ignore"):
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
    w, z, w_final and z_final are views of it, and x and y are views of the
    same buffer, whose rows hold x and y after (w, z), as the step loop
    writes them; d comes from the dual formula.  Everything else is derived
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


# run() steps this many rows at a time, then sums their d in numpy: enough
# rows to amortise the numpy calls of _dual_columns' d sum (0.14-0.34 ms a
# chunk on the demos and the benchmark problems), few enough that a blow-up
# stops soon.  No result depends on it.
_CHUNK_ROWS = 4096


def _y_columns(spec: ProblemSpec, w, z) -> list:
    """The I columns y_i of the y-step at multiplier columns w (J) and z
    (I): each piece's argmin_shifted on its box at the shift c_i = -z_i +
    w_0*A_0i + ..., _affine_sum's form, as step_loop.c sums it; w_j and z_i
    are floats or arrays of one length."""
    c = _affine_sum(spec.constraint_matrix()[0].T.tolist(), [-zi for zi in z], w)
    return [piece.argmin_shifted(ci, lo, hi) for piece, ci, lo, hi in
            zip(spec.objective.pieces, c, spec.box.lower.tolist(), spec.box.upper.tolist())]


def _dual_columns(spec: ProblemSpec, w, z, xy=None):
    """Dual value d and minimizers x, y from multiplier columns.

    w holds J arrays and z holds I arrays, all of one length, one entry per
    multiplier.  x is the decision set's linear_argmin (x_update's x) on the
    rows of the z_i, as columns; the rest is elementwise, with the public
    updates' terms: y_i from _y_columns (y_update's y), and d = 0.0 + sum
    value_i(y_i) + sum w_j*g_j + sum z_i*(x_i - y_i) with g_j from
    _affine_sum (the constraint map's g).  So every entry has
    the same bits, whatever batch it sits in.  xy, when given, is the pair
    of the I columns of x_update's and y_update's points at (w, z): run()
    passes the points its step loop stepped with, and only the d sum runs.
    This is the one dual formula: run() records d through it, and the
    analysis evaluates the dual with it.  Returns d and the x_i and y_i
    columns.
    """
    A, b = (m.tolist() for m in spec.constraint_matrix())
    if xy is not None:
        x, y = xy
    else:
        x, y = spec.decision_set.linear_argmin(np.transpose(z)).T, _y_columns(spec, w, z)
    d = 0.0
    for piece, yi in zip(spec.objective.pieces, y):
        d = d + piece.values(yi)
    for wj, g in zip(w, _affine_sum(A, b, y)):
        d = d + wj * g
    for zi, xi, yi in zip(z, x, y):
        d = d + zi * (xi - yi)
    return d, x, y


# The compiler flags of step_loop.c.  -ffp-contract=off keeps each a*b + c
# two roundings, as in Python floats, where GNU C's default would let a
# target with fused multiply-add round once.  -ffast-math (which also
# reorders sums and, when the library loads, flushes subnormals to zero for
# the whole process) and -march=native (which ties the cached library to
# one CPU and brings FMA in) must never be added.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


@cache
def _kernel():
    """step_loop.c compiled and loaded once per process, with its three
    functions typed: step_loop (run()'s steps), running_mean and join_rows
    (write_table's lines).  None, with one WARNING, when there is no working
    compiler (cc) or the library does not load; the Python forms then run
    instead.

    The library is cached in $XDG_CACHE_HOME/tavopt (or ~/.cache/tavopt),
    named by the checksum of the source, the flags, the compiler's path and
    the machine.  It is built under a temporary name, given the checksum of
    its bytes as an 8-byte trailer (which the loader ignores) and moved into
    place by os.replace, so no process sees a partial file.  A cached file
    whose trailer does not match is rebuilt before it is loaded: loading a
    truncated library can crash the process.  A build keeps the 8 newest
    <16 hex>.so files, itself among them, and a hit deletes none, so
    checkouts that alternate never evict each other.  If the cache cannot be
    written or loaded from, the library is built in a temporary directory
    for this process only.  The checksum is zlib's CRC-32 and Adler-32, 64
    bits: numpy loads zlib, while hashlib would load OpenSSL (3.6 MB RSS).
    """
    import contextlib
    import glob
    import platform
    import shutil
    import tempfile
    import zlib

    def checksum(data: bytes) -> bytes:
        return zlib.crc32(data).to_bytes(4, "big") + zlib.adler32(data).to_bytes(4, "big")

    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "step_loop.c")
    cc = shutil.which("cc")

    def load(directory, name):
        path = os.path.join(directory, name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        if len(data) <= 8 or data[-8:] != checksum(data[:-8]):
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(fd)
            try:
                import subprocess  # only to build: it adds 0.4 MB of RSS
                built = subprocess.run([cc, *_CFLAGS, "-o", tmp, source],
                                       capture_output=True, text=True)
                if built.returncode:
                    raise RuntimeError(built.stderr.strip())
                with open(tmp, "rb") as fh:
                    trailer = checksum(fh.read())
                with open(tmp, "ab") as fh:
                    fh.write(trailer)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            with contextlib.suppress(OSError):  # another process pruned first
                libs = glob.glob(os.path.join(glob.escape(directory), "[0-9a-f]" * 16 + ".so"))
                for old in sorted(set(libs) - {path}, key=os.path.getmtime)[:-7]:
                    os.unlink(old)
        return ctypes.CDLL(path)

    try:
        if cc is None:
            raise OSError("no C compiler (cc) on PATH")
        with open(source, "rb") as fh:
            key = fh.read()
        for part in (*_CFLAGS, cc, platform.machine()):
            key += b"\0" + part.encode()
        name = checksum(key).hex() + ".so"
        cache_dir = os.path.join(os.environ.get("XDG_CACHE_HOME")
                                 or os.path.expanduser("~/.cache"), "tavopt")
        try:
            os.makedirs(cache_dir, mode=0o700, exist_ok=True)
            lib = load(cache_dir, name)
        except OSError:  # the cache cannot be written (or loaded from)
            with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as tmp:
                lib = load(tmp, name)
    except (OSError, RuntimeError) as exc:  # no compiler, or it failed
        import logging
        logging.getLogger(__name__).warning(
            "no compiled step loop (%s); run() composes the public updates, the averages "
            "take the NumPy running mean and write_table joins its rows in Python: the "
            "same results, more slowly", exc)
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.step_loop.restype = lib.running_mean.restype = None
    lib.step_loop.argtypes = [i64, i64, ctypes.c_double, ptr, ptr, i64, *[ptr] * 5, i64, i64]
    lib.running_mean.argtypes = [i64, i64, ptr, i64, i64, ptr]
    lib.join_rows.restype, lib.join_rows.argtypes = i64, [i64, ptr, ptr, i64, ptr, i64]
    return lib


def _composed_steps(spec, A, b, v, state, rows, start, stop):
    """The step loop without the kernel: x_update and y_update composed
    with the constraint map's g and the kernel's dual step, in Python
    floats in its order."""
    J = len(b)
    w, z = state[:J].tolist(), state[J:].tolist()
    for t in range(start, stop):
        x, y = x_update(spec, z).tolist(), y_update(spec, w, z).tolist()
        rows[t] = w + z + x + y
        w = [max(0.0, wj + g / v) for wj, g in zip(w, _affine_sum(A, b, y))]
        z = [zi + (xi - yi) / v for zi, xi, yi in zip(z, x, y)]
    state[:] = w + z


def _step_loop(spec: ProblemSpec, v: float, state: np.ndarray, rows: np.ndarray):
    """steps(start, stop), which runs steps start..stop-1 from the dual
    state held in state, (w, z), and leaves the state after them there; row
    t of rows gets (w, z) before step t, then the step's x and y.  It calls
    the compiled kernel with the spec's numbers as arrays (each piece and the
    decision set give theirs through kernel_params), or, without one, the
    composed public updates, with the same bits."""
    A, b = spec.constraint_matrix()
    kernel = _kernel()
    if kernel is None:
        return partial(_composed_steps, spec, A.tolist(), b.tolist(), v, state, rows)
    records = [piece.kernel_params(lo, hi) for piece, lo, hi in
               zip(spec.objective.pieces, spec.box.lower.tolist(), spec.box.upper.tolist())]
    off = np.cumsum([0] + [len(r) for r in records], dtype=np.int64)
    par = np.array([u for r in records for u in r], dtype=float)
    npoints, points = spec.decision_set.kernel_params()
    points = np.ascontiguousarray(points, dtype=float)
    # each ndarray's .ctypes holds its array, so the partial keeps them alive
    return partial(kernel.step_loop, spec.dimension, spec.constraint_count, v, A.ctypes, b.ctypes,
                   npoints, points.ctypes, off.ctypes, par.ctypes, state.ctypes, rows.ctypes)


def run(spec: ProblemSpec, config: SolverConfig) -> RunTrace:
    """Execute the iteration for config.horizon steps and record every step.

    The steps run in one fixed C loop, step_loop.c, compiled once per
    machine on the first run() of a process and handed the spec's numbers
    as arrays; without a working compiler they run as the composed public
    updates, more slowly.  Both use exactly the per-coordinate closed forms
    and summation order of the public update operations, so composing those
    reproduces the trace bit for bit.  The loop stores the dual path (w, z)
    and the points x and y it steps with, one row of one buffer per step, a
    chunk of rows at a time; after each chunk, d of its rows comes from the
    one dual formula, _dual_columns, summed from the recorded columns.  A
    non-finite d raises NumericError at the iteration that shows it, before
    the chunk after it runs.
    """
    I, J = spec.dimension, spec.constraint_count
    T = int(config.horizon)
    w = list(config.initial_w) if config.initial_w is not None else [0.0] * J
    z = list(config.initial_z) if config.initial_z is not None else [0.0] * I
    if len(w) != J:
        raise ValueError(f"initial_w has length {len(w)}, expected {J}")
    if len(z) != I:
        raise ValueError(f"initial_z has length {len(z)}, expected {I}")

    # rows of (w, z, x, y); row T holds the final (w, z), its x and y unset
    rows = np.empty((T + 1, J + 3 * I))
    state = np.array(w + z, dtype=float)
    steps = _step_loop(spec, float(config.v), state, rows)
    d = np.empty(T)
    # past a blow-up the values turn inf and nan, quietly, as in the step loop
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, T, _CHUNK_ROWS):
            stop = min(T, start + _CHUNK_ROWS)
            steps(start, stop)
            cols = rows[start:stop].T
            d[start:stop], _, _ = _dual_columns(spec, cols[:J], cols[J:J + I],
                                               (cols[J + I:J + 2 * I], cols[J + 2 * I:]))
            # every w_j, z_i and y_i enters d times a finite factor, so a
            # non-finite value anywhere in a row makes its d non-finite, and
            # so (as V >= 1) does a dual step out of the row that overflows
            bad = np.flatnonzero(~np.isfinite(d[start:stop]))
            if len(bad):
                raise NumericError("non-finite value", start + int(bad[0]))

    lam = rows[:, :J + I]
    lam[T] = state
    return RunTrace(x=rows[:T, J + I:J + 2 * I], y=rows[:T, J + 2 * I:], d=d,
                    w=lam[:T, :J], z=lam[:T, J:], w_final=lam[T, :J], z_final=lam[T, J:],
                    lambda_path=lam, v=float(config.v), horizon=T, spec=spec)


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
# few enough for memory (4096 rows: solve-trace peak RSS 36.3 -> 41.1 MB, Xeon)
_TABLE_BLOCK_ROWS = 256


def _join_rows(texts: list, m: int):
    """The m CSV lines of one write_table chunk, line r joining row r of each
    text by commas.  Each text is bytes, m rows separated by '],[' and no
    other ']' (orjson's 2-D array without its outer brackets), or ValueError.
    step_loop.c's join_rows makes one pass; without it, split and join."""
    kernel = _kernel()
    if kernel is None:
        rows = [t.split(b"],[") for t in texts]
        out = b"".join(b",".join(cells) + b"\n" for cells in zip(*rows))
        size = len(out) if all(len(r) == m for r in rows) else -1
    else:
        n = len(texts)
        # a text of length L and m >= 1 rows gives L - 3(m - 1) + m <= L + 1 bytes
        out = ctypes.create_string_buffer(sum(map(len, texts)) + n)
        size = kernel.join_rows(n, (ctypes.c_char_p * n)(*texts),
                                (ctypes.c_int64 * n)(*map(len, texts)), m, out, len(out))
    if size < 0:
        raise ValueError(f"row texts that do not hold {m} rows each")
    return memoryview(out)[:size]


def write_table(path, header, columns) -> None:
    """Write a CSV with one header line and one row per index of columns.

    columns are 1-D arrays (one cell per row) or 2-D blocks (one cell per
    block column) of numbers or bools, all of one length, with one header
    name per cell column and at least one; any other table raises ValueError
    before the file is opened.  Each cell is the repr of its .tolist() value,
    so ints print as ints and floats in the shortest decimal form that
    round-trips the double.  Rows are formatted a fixed number at a time, so
    memory beyond the arrays stays bounded.  In each such chunk, adjacent
    blocks of one dtype form a run (zero-width blocks do not split one),
    stacked into one 2-D array, and _join_rows joins the runs' texts.  A
    native float64 or integer run's text is one orjson.dumps call: its
    shortest round-trip digits (Ryu) equal repr's wherever repr writes fixed
    notation.  The floats where the two differ, nan and +-inf (orjson prints
    null) and nonzero magnitudes below 1e-4 or from 1e16 on (repr writes
    1e-05 and 1e+16, orjson 0.00001 and 1e16), are replaced by their repr in
    that text; runs of any other dtype get their text from repr alone.
    """
    # imported here, not at module level: it adds ~6.5 ms to `import tavopt`
    from orjson import OPT_SERIALIZE_NUMPY, dumps

    def text(run):
        """The rows of a stacked run as bytes, separated by '],['.  The
        stacking gives a fresh array in native byte order, which orjson needs
        and which may be overwritten."""
        dt = run.dtype
        if not (dt == np.float64 or dt.kind in "iu"):
            return "],[".join(",".join(map(repr, row)) for row in run.tolist()).encode()
        if dt.kind == "f":
            mag = np.abs(run)
            need = ~((mag >= 1e-4) & (mag < 1e16)) & (mag != 0.0)
            cells = [repr(v).encode() for v in run[need].tolist()]
            if cells:  # written as nan: orjson's null holds the text's only b"n"s
                run[need] = np.nan
                out, pieces, j = dumps(run, option=OPT_SERIALIZE_NUMPY)[2:-2], [], 0
                for cell in cells:
                    i = out.index(b"n", j)
                    pieces += out[j:i], cell
                    j = i + 4
                pieces.append(out[j:])
                return b"".join(pieces)
        return dumps(run, option=OPT_SERIALIZE_NUMPY)[2:-2]

    blocks = [c.reshape(len(c), 1) if c.ndim == 1 else c for c in map(np.asarray, columns)]
    width = sum(b.shape[1] for b in blocks)
    if not width or len(header) != width:
        raise ValueError(f"header has {len(header)} names for {width} cell columns; a table "
                         "needs one name per cell column and at least one cell column")
    n = len(blocks[0])
    for k, block in enumerate(blocks):
        if len(block) != n:
            raise ValueError(f"column {k} has {len(block)} rows, column 0 has {n}")
        if block.dtype.kind not in "biufc":
            raise ValueError(f"column {k} has dtype {block.dtype}, not numbers or bools")
    runs = [list(run) for _, run in groupby((b for b in blocks if b.shape[1]), lambda b: b.dtype)]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, n, _TABLE_BLOCK_ROWS):
            texts = [text(np.concatenate([b[lo:lo + _TABLE_BLOCK_ROWS] for b in run], axis=1))
                     for run in runs]
            fh.write(_join_rows(texts, min(n - lo, _TABLE_BLOCK_ROWS)))


def write_trace_csv(trace: RunTrace, path, rows=None):
    """Write trace rows as CSV through write_table; return the f_xbar and
    g_*_xbar columns it wrote, one row per written row.

    Columns: t, x_*, y_*, w_*, z_*, d_lambda, xbar_*, f_xbar, g_*_xbar,
    frame_id, xbar_frame_*.  rows optionally selects a subset of row
    indices; without it every row is written from views of the trace, with
    no copies of its columns.  The derived columns are built once for the
    selected rows: f_xbar by objective.values (equal to objective.value row
    by row) and g_*_xbar by constraint_values on the xbar rows, as
    error_series takes them; frame_id and xbar_frame come from the trace.
    """
    spec = trace.spec
    idx = slice(None) if rows is None else np.asarray(rows)
    xbar = trace.xbar[idx]

    def names(prefix, count, suffix=""):
        return [f"{prefix}_{k + 1}{suffix}" for k in range(count)]

    I, J = spec.dimension, spec.constraint_count
    header = (["t", *names("x", I), *names("y", I), *names("w", J), *names("z", I), "d_lambda",
               *names("xbar", I), "f_xbar", *names("g", J, "_xbar"), "frame_id",
               *names("xbar_frame", I)])
    f_xbar, g_xbar = spec.objective.values(xbar), spec.constraint_values(xbar)
    write_table(path, header, [
        trace.ts[idx], trace.x[idx], trace.y[idx], trace.w[idx], trace.z[idx], trace.d[idx],
        xbar, f_xbar, g_xbar, trace.frame_id[idx], trace.xbar_frame[idx]])
    return f_xbar, g_xbar
