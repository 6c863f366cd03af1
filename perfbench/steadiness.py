"""Run-to-run spread of the end-to-end metrics, the record the bounds are set from.

    python3 perfbench/steadiness.py [--record FILE]

Runs perfbench/run.py --trace 0 ten times on every workload of
BENCHMARK.json, each time with another seed, workloads interleaved so that
slow stretches of a shared machine fall on all of them, and then does it
all a second time.  For each metric and set it prints the median, the
quartiles of statistics.quantiles(values, n=4) and the spread
(q3 - q1) / median, and how far the second median moved from the first in
the direction the metric gets worse.  It flags a spread or a shift above a
third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def _one_set(names, runs, seconds, first_seed):
    values = {name: {} for name in names}
    for k in range(runs):
        for name in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(first_seed + k), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{name} seed {first_seed + k}: {result}")
            for metric, m in result["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])
            print(f"{time.strftime('%H:%M:%S')} {name} seed {first_seed + k}: "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                  flush=True)
    return values


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", help="write the summaries to this JSON file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = [_one_set(names, RUNS, bench["run_seconds"], 1000 * s + 1) for s in range(SETS)]

    record = {"run_seconds": bench["run_seconds"], "runs_per_set": RUNS, "workloads": {}}
    steady = True
    for name in names:
        rows = record["workloads"][name] = {}
        for metric, spec in metrics.items():
            summaries = [_summary(s[name][metric]) for s in sets]
            a, b = summaries[0]["median"], summaries[1]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            rows[metric] = {"sets": summaries, "second_median_worse_by": worse}
            line = f"{name:14s} {metric:12s}"
            for s in summaries:
                flag = "" if s["spread"] < spec["bound"] / 3 else " (!)"
                steady &= not flag
                line += (f"  median {s['median']:.5g} q1 {s['q1']:.5g} q3 {s['q3']:.5g}"
                         f" spread {s['spread']:.3f}{flag}")
            flag = "" if worse < spec["bound"] / 3 else " (!)"
            steady &= not flag
            print(f"{line}  second median worse by {worse:+.3f}{flag}")
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1)
    print("steady" if steady else "NOT steady: a spread or shift is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
