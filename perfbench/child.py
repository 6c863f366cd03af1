"""One benchmark child process: a set-up sample or a slice of timed run_cli calls.

    python -I perfbench/child.py '<request JSON>'

prints one JSON line.  A set-up sample imports tavopt, builds the workload's
ProblemSpec and reports the monotonic clock at that moment (the parent took
the same clock just before starting the process) and the time of the
reference loop run just after.  A slice runs tavopt.cli.run_cli on its
argvs in turn (traced or not), at least once each and until its seconds are
up.  It reports every call's wall time, the mean time of the reference loop
just before and just after the call, the digest of every file the call
wrote, and the process's peak RSS after one call of each argv.  Every call writes to <out>/call (artifacts may name their
path); call k's files are kept for the parent to check, as <out>/<k>, only
if they or its stdout differ from those of every earlier call of the slice.
tavopt is always imported from the checkout's src/; any other copy is
refused.
"""

import json
import os
import sys
import time

REFERENCE_STEPS = 20_000


def _import_tavopt(root):
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import tavopt
    origin = os.path.realpath(tavopt.__file__)
    if os.path.dirname(os.path.dirname(origin)) != src:
        raise SystemExit(f"refusing to measure tavopt imported from {origin}, not {src}")
    return tavopt


def reference_s() -> float:
    """Time of a fixed pure-Python loop (compensated sums, as in the engine's
    running averages), about 20 ms: the CPU speed next to a measurement.
    The loop does not depend on tavopt, so no change to tavopt moves it."""
    start = time.perf_counter()
    xs = [0.125 * k for k in range(8)]
    s = [0.0] * 8
    c = [0.0] * 8
    for _ in range(REFERENCE_STEPS):
        for i in range(8):
            u = xs[i] - c[i]
            v = s[i] + u
            c[i] = (v - s[i]) - u
            s[i] = v
    return time.perf_counter() - start


def setup_sample(req):
    tavopt = _import_tavopt(req["root"])
    if req["problem_path"] is None:
        for objective, extra, *_ in tavopt.cli.FIGURE_SETUPS.values():
            tavopt.reference_instance(objective, extra)
    else:
        with open(req["problem_path"]) as fh:
            tavopt.parse_problem_config(fh.read())
    ready = time.perf_counter()
    return {"ready": ready, "reference_s": reference_s()}


def timed_slice(req):
    tavopt = _import_tavopt(req["root"])
    # Imported here, not at the top, so that set-up samples time only what
    # a tavopt user pays.
    import contextlib
    import io
    import resource
    import shutil

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import artifact_digests

    tracer = None
    if req["traced"]:
        from tracing import Tracer
        tracer = Tracer(tavopt, req["main_v"])
    calls, seen, rss_kb = [], set(), None
    start = time.perf_counter()
    while len(calls) < len(req["argvs"]) or time.perf_counter() - start < req["seconds"]:
        argv = req["argvs"][len(calls) % len(req["argvs"])]
        out_dir = os.path.join(req["out"], "call")
        printed = io.StringIO()
        before = reference_s()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = tavopt.cli.run_cli(argv + ["--out", out_dir])
        except Exception as exc:  # a failed call, reported as such
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - begin
        reference = (before + reference_s()) / 2
        if len(calls) + 1 == len(req["argvs"]):
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        artifacts = artifact_digests(out_dir) if os.path.isdir(out_dir) else {}
        call = {"argv": argv, "code": code, "wall_s": wall, "reference_s": reference,
                "artifacts": artifacts,
                "stdout": printed.getvalue(), "dir": None}
        key = json.dumps([argv, artifacts, call["stdout"]], sort_keys=True)
        if key not in seen and os.path.isdir(out_dir):
            call["dir"] = os.path.join(req["out"], str(len(calls)))
            os.rename(out_dir, call["dir"])
        shutil.rmtree(out_dir, ignore_errors=True)
        seen.add(key)
        if tracer is not None:
            call["layers"] = tracer.metrics(sum(a["bytes"] for a in artifacts.values()))
        calls.append(call)
    return {"calls": calls, "rss_kb": rss_kb}


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    fn = setup_sample if request["kind"] == "setup" else timed_slice
    print(json.dumps(fn(request)))
