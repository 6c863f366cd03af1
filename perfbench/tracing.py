"""Per-layer spans recorded from outside the program.

Tracer wraps the public functions of tavopt's engine, analysis,
oracle and cli layers at every module attribute the program looks them up
by (cli calls engine.run as `tavopt.cli.run`, analysis calls it as
`tavopt.analysis.run`, and so on).  Each wrapped call records a span (name,
layer, start, end, parent span) in memory; a layer's self time is its spans'
durations minus the time covered by their child spans.  Per-element helpers
(format_trace_float, x_update, ...) are left unwrapped so that tracing does
not swamp what it measures; the problem layer is called per step through
bound methods captured before the loop, so its cost stays inside
engine.ns_per_iter.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

from workloads import EPS

WRAPPED = {
    "engine": ("run", "write_trace_csv"),
    "analysis": ("dual_function_batch", "estimate_multiplier", "estimate_sharpness",
                 "drift_certificate", "phase_detect", "convergence_bounds",
                 "iterations_to_accuracy"),
    "oracle": ("solve_reference", "solve_reference_lp"),
    "cli": ("run_cli", "parse_problem_config"),
}
CERTIFY = ("drift_certificate", "phase_detect", "convergence_bounds")
TRACE_ARRAYS = ("ts", "x", "y", "w", "z", "d", "xbar", "ybar", "frame_id", "frame_start",
                "xbar_frame", "w_final", "z_final", "restart_times")
# Oracle resolution for the accuracy counts: the CLI's 0.01 in 2-D; 3-D grids
# (27M points) and the 8-point simplex lattice are refused at 0.01.
COARSE_ORACLE_RESOLUTION = 0.05


class Tracer:
    """Spans and counts of one traced call."""

    def __init__(self, package, main_v: float):
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self._open = []
        self.main_v = main_v
        self.main_traces = []  # main-V RunTraces, for the off-path accuracy counts
        self.iters = self.trace_bytes = self.csv_rows = self.csv_bytes = self.dual_evals = 0
        self.mods = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                     for layer in WRAPPED}
        self.problem = importlib.import_module(f"{package.__name__}.problem")
        self.original = {name: getattr(self.mods[layer], name)
                         for layer, names in WRAPPED.items() for name in names}
        by_id = {id(fn): self._wrap(layer, fn)
                 for layer, names in WRAPPED.items()
                 for fn in (self.original[n] for n in names)}
        for mod in (*self.mods.values(), package):
            for attr, val in list(vars(mod).items()):
                if id(val) in by_id:
                    setattr(mod, attr, by_id[id(val)])

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        after = getattr(self, f"_after_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # Counts, taken at the same boundaries as the spans.

    def _after_run(self, trace, *_):
        self.iters += trace.horizon
        self.trace_bytes += sum(getattr(trace, f).nbytes for f in TRACE_ARRAYS)
        if trace.v == self.main_v:
            self.main_traces.append(trace)

    def _after_write_trace_csv(self, _, trace, path, rows=None):
        self.csv_rows += len(trace.ts) if rows is None else len(rows)
        self.csv_bytes += os.path.getsize(path)

    def _after_dual_function_batch(self, result, *_):
        self.dual_evals += len(result[0])

    def _accuracy_counts(self):
        """Iterations until the plain / staggered average is EPS-optimal,
        summed over the main-V runs; a run that never gets there counts
        horizon + 1.  Computed with the unwrapped functions after the call."""
        plain = stag = 0
        for trace in self.main_traces:
            spec = trace.spec
            grid = isinstance(spec.decision_set, self.problem.GridProduct)
            if grid and all(isinstance(p, self.problem.LinearPiece)
                            for p in spec.objective.pieces):
                f_opt = self.original["solve_reference_lp"](spec).f_opt
            else:
                res = 0.01 if grid and spec.dimension <= 2 else COARSE_ORACLE_RESOLUTION
                f_opt = self.original["solve_reference"](spec, res).f_opt
            p, s = self.original["iterations_to_accuracy"](trace, f_opt, EPS)
            plain += trace.horizon + 1 if p is None else p
            stag += trace.horizon + 1 if s is None else s
        return plain, stag

    def metrics(self, out_bytes: int) -> dict:
        """Per-layer metrics of the call; out_bytes is what it wrote."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = {}, {}, {}
        layer_self = dict.fromkeys(WRAPPED, 0.0)
        for k, (name, layer, start, end, parent) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child[k])
            calls[name] = calls.get(name, 0) + 1
            layer_self[layer] += end - start - child[k]
        wall = total["run_cli"]
        run_s = own.get("run", 0.0)
        csv_s = total.get("write_trace_csv", 0.0)
        batch_s = total.get("dual_function_batch", 0.0)
        plain, stag = self._accuracy_counts()
        return {
            "engine.iters": self.iters,
            "engine.run_s": run_s,
            "engine.ns_per_iter": 1e9 * run_s / self.iters,
            "engine.trace_mb": self.trace_bytes / 1e6,
            "engine.csv_s": csv_s,
            "engine.csv_rows_per_s": self.csv_rows / csv_s if csv_s else 0.0,
            "engine.csv_mb": self.csv_bytes / 1e6,
            "engine.share": layer_self["engine"] / wall,
            "engine.iters_to_eps_plain": plain,
            "engine.iters_to_eps_staggered": stag,
            "analysis.batch_s": batch_s,
            "analysis.batch_calls": calls.get("dual_function_batch", 0),
            "analysis.dual_evals": self.dual_evals,
            "analysis.dual_evals_per_s": self.dual_evals / batch_s if batch_s else 0.0,
            "analysis.estimate_s": own.get("estimate_multiplier", 0.0),
            "analysis.sharpness_s": own.get("estimate_sharpness", 0.0),
            "analysis.certify_s": sum(own.get(n, 0.0) for n in CERTIFY),
            "analysis.share": layer_self["analysis"] / wall,
            "oracle.s": layer_self["oracle"],
            "oracle.calls": sum(calls.get(n, 0) for n in WRAPPED["oracle"]),
            "oracle.share": layer_self["oracle"] / wall,
            "cli.parse_s": total.get("parse_problem_config", 0.0),
            "cli.self_s": own["run_cli"],
            "cli.out_mb": out_bytes / 1e6,
            "cli.share": layer_self["cli"] / wall,
        }
