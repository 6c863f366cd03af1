"""tavopt benchmark: one workload through tavopt.cli.run_cli, checked and timed.

    python3 perfbench/run.py --workload reproduce --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout; tavopt is imported from the checkout's
src/ and nowhere else.  The loop is closed with one client: one child
process at a time, with BLAS pinned to one thread so that no more threads
run than the 2 cores the bounds were set on.  Untraced, each child makes
the run_cli calls of a 4-second slice, going round the parts of a pass;
set-up samples, one fresh process each, are taken between the slices.

--trace 0 prints the end-to-end metrics: wall_s (the time of one pass of the
workload, at reference CPU speed: per part of the pass, the median over the
run of each call's wall time scaled by the reference loop timed next to it,
summed over the parts), iters_per_s (engine iterations per pass over
wall_s), setup_s (fresh interpreter through import and ProblemSpec, scaled
in the same way, median of many fresh processes) and peak_rss_mb (ru_maxrss
of a child after one call of each part, median over the children).  The
timings are scaled because on a shared VM the CPU speed changes by up to
1.9x, within a second and for stretches of minutes; the reference loop,
which does not depend on tavopt, slows with it (see README.md).
--trace 1 alternates traced and untraced calls of a whole pass, one child
each, and prints the per-layer metrics of tracing.py (medians over the
traced calls, not scaled) and trace.overhead_s.

Every call is checked (exit code, the workload's output checks, artifacts
bit-identical to those of the run's first call of the same command line); a
call failing any check counts as failed.  The last stdout line is the result
JSON; the line before it holds the provenance, with the unscaled timings.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from child import reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
# Inputs and outputs go to WORK/<workload>, relative to ROOT (the working
# directory) so that artifacts do not depend on where the checkout is.
WORK = ".perfbench-work"
SETUP_SAMPLES = 30
# The reference loop's time at the CPU speed the timings are scaled to; on
# the 2-vCPU Xeon VM the bounds were set on it took 17-29 ms.
REFERENCE_NOMINAL_S = 0.020
SLICE_S = 4.0  # seconds of calls per untraced child
CHILD_TIMEOUT_S = 150
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COUNT_METRICS = ("engine.iters", "engine.iters_to_eps_plain", "engine.iters_to_eps_staggered",
                 "engine.trace_mb", "engine.csv_mb", "analysis.batch_calls",
                 "analysis.dual_evals", "oracle.calls", "cli.out_mb")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed call)."""


def _child(request: dict) -> dict:
    """Run one child to completion; returns its JSON reply.

    -I keeps PYTHONPATH and the user site out of the child, so that tavopt
    can only come from the checkout's src/."""
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run([sys.executable, "-I", CHILD, json.dumps(request)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"child exited {proc.returncode}: {tail}"}
    return json.loads(proc.stdout.splitlines()[-1])


def _at_reference_speed(seconds: float, reference_s: float) -> float:
    """A time scaled to the CPU speed at which the reference loop takes
    REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def _setup_sample(wl) -> dict:
    """A fresh process's set-up time, and the mean time of the reference
    loop run just before it (here) and just after it (in the child)."""
    before = reference_s()
    start = time.perf_counter()
    reply = _child({"kind": "setup", "root": ROOT, "problem_path": wl.problem_path})
    if "error" in reply:
        raise BenchError(reply["error"])
    return {"raw_s": reply["ready"] - start,
            "reference_s": (before + reply["reference_s"]) / 2}


class Run:
    """The calls of one benchmark run and their checks."""

    def __init__(self, wl, work: str):
        self.wl = wl
        self.out_dir = os.path.join(work, "out")
        self.untraced, self.traced, self.failures, self.rss_kb = [], [], [], []
        self.attempted = 0
        self.first_artifacts = {}  # argv -> artifacts of its first call
        self.verdicts = {}  # (argv, artifacts, stdout) -> problems found in them

    def slice(self, argvs: tuple, seconds: float, traced: bool) -> None:
        """One child calling `argvs` in turn for `seconds` (at least once each)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        reply = _child({"kind": "calls", "root": ROOT, "traced": traced,
                        "main_v": workloads.MAIN_V, "argvs": [list(a) for a in argvs],
                        "seconds": seconds, "out": self.out_dir})
        if "error" in reply:
            self.attempted += 1
            self.failures.append([reply["error"]])
            return
        if not traced:
            self.rss_kb.append(reply["rss_kb"])
        for call in reply["calls"]:
            self.attempted += 1
            call["argv"] = argv = tuple(call["argv"])
            problems = self._problems(argv, call)
            if problems:
                self.failures.append(problems)
            else:
                (self.traced if traced else self.untraced).append(call)
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _problems(self, argv: tuple, call: dict) -> list:
        if call["code"] != 0:
            return [f"exit code {call['code']}"]
        key = json.dumps([argv, call["artifacts"], call["stdout"]], sort_keys=True)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = workloads.check(self.wl, argv, call["dir"],
                                                     call["stdout"])
            except (OSError, KeyError, ValueError) as exc:
                self.verdicts[key] = [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems = list(self.verdicts[key])
        first = self.first_artifacts.setdefault(argv, call["artifacts"])
        if call["artifacts"] != first:
            problems.append("artifacts differ from the first call's")
        return problems

    def pass_s(self, key):
        """Sum over the parts of a pass of the median of key(call) over each
        part's untraced calls; None if a part has no call that passed its
        checks."""
        walls = {argv: [] for argv in self.wl.parts}
        for c in self.untraced:
            walls[c["argv"]].append(key(c))
        if not all(walls.values()):
            return None
        return sum(statistics.median(w) for w in walls.values())


def _measure(wl, work: str, seconds: float, trace: bool):
    """Calls (and, untraced, set-up samples) spread over `seconds`.

    Untraced, each child makes the calls of a SLICE_S slice, going round the
    parts of a pass, and the set-up samples are taken between the slices.
    Traced, each child makes one call of a whole pass, alternately traced and
    untraced (a tracer's spans cover one call)."""
    run = Run(wl, work)
    setups = []
    _setup_sample(wl)  # warm-up: writes the bytecode caches, not timed
    start = time.perf_counter()
    children = 0
    while True:
        if trace:
            run.slice((wl.argv,), 0.0, traced=children % 2 == 0)
        else:
            run.slice(wl.parts, SLICE_S, traced=False)
        children += 1
        elapsed = time.perf_counter() - start
        if not trace:
            while len(setups) < SETUP_SAMPLES * min(1.0, elapsed / seconds):
                setups.append(_setup_sample(wl))
        elapsed = time.perf_counter() - start
        # At least two children, so that the artifacts of two calls of each
        # argv are compared; stop once one more child, at this run's average
        # pace, would end late.
        if children >= 2 and elapsed * (children + 1) / children > seconds:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_setup_sample(wl))
    return run, setups


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _calibrated_pass_s(run: Run):
    return run.pass_s(lambda c: _at_reference_speed(c["wall_s"], c["reference_s"]))


def _end_to_end(run: Run, setups: list) -> dict:
    wall = _calibrated_pass_s(run)
    setup = statistics.median(_at_reference_speed(s["raw_s"], s["reference_s"])
                              for s in setups)
    return {
        "wall_s": _metric(wall, "s"),
        "iters_per_s": _metric(run.wl.iterations / wall, "1/s"),
        "setup_s": _metric(setup, "s"),
        "peak_rss_mb": _metric(statistics.median(run.rss_kb) / 1024, "MB"),
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ns_per_iter"):
        return "ns"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("share"):
        return "fraction"
    return "count"


def _per_layer(run: Run) -> tuple:
    """Medians over the traced calls; False if a count did not repeat."""
    layers = [c["layers"] for c in run.traced]
    out = {}
    repeat = True
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if name in COUNT_METRICS:
            repeat &= len(set(values)) == 1
            value = values[0]
        else:
            value = statistics.median(values)
        out[name] = _metric(value, _layer_unit(name))
    overhead = (statistics.median(c["wall_s"] for c in run.traced)
                - statistics.median(c["wall_s"] for c in run.untraced))
    out["trace.overhead_s"] = _metric(overhead, "s")
    return out, repeat


def _provenance(args, run: Run, setups: list) -> dict:
    commit = None
    try:  # only the checkout's own history, not that of a directory around it
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.splitlines()
        if len(git) == 2 and os.path.realpath(git[0]) == os.path.realpath(ROOT):
            commit = git[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(os.path.relpath(os.path.join(dirpath, name), src).encode())
                digest.update(fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    calls = run.untraced + run.traced
    unscaled = None
    if setups:  # untraced: the timings before scaling, for comparison
        unscaled = {"pass_median_s": run.pass_s(lambda c: c["wall_s"]),
                    "pass_fastest_s": sum(min(c["wall_s"] for c in run.untraced
                                              if c["argv"] == a) for a in run.wl.parts),
                    "reference_median_s": statistics.median(c["reference_s"]
                                                            for c in run.untraced),
                    "setup_median_s": statistics.median(s["raw_s"] for s in setups)}
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "nproc": os.cpu_count(),
            "cpu_model": cpu, "unscaled": unscaled,
            "calls": {"untraced": len(run.untraced), "traced": len(run.traced),
                      "failed": len(run.failures)},
            "failures": run.failures[:5],
            "artifacts_sha256": [{k: a["sha256"] for k, a in c["artifacts"].items()}
                                 for c in calls]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shortened horizons, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tavopt", "__init__.py")):
        print(f"error: no tavopt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = workloads.make(args.workload, args.seed, work, args.tiny)
        run, setups = _measure(wl, work, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)
    passed = run.traced and run.untraced if args.trace else _calibrated_pass_s(run) is not None
    if not passed:
        print(f"error: no call passed its checks: {run.failures[:3]}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, repeat = _per_layer(run)
    else:
        metrics, repeat = _end_to_end(run, setups), True
    print(json.dumps({"provenance": _provenance(args, run, setups)}))
    print(json.dumps({"correct": not run.failures and repeat, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
