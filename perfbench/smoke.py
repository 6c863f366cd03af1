"""Smoke test of the benchmark itself, at a tiny size (about two minutes).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs run.py --tiny untraced and
traced and checks that the result line is correct and declares every metric
of BENCHMARK.json with its unit.  It runs the traced mode a second time with
the same seed and fails if any count metric differs.  Finally it checks that
run.py refuses to measure without the checkout's src/ (a copy holding only
the benchmark) and with a tavopt that resolves outside the checkout's src/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench-smoke")
sys.path.insert(0, HERE)
from run import COUNT_METRICS  # noqa: E402


def _run(root: str, workload: str, trace: int, seed: int = 7):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def _result(workload: str, trace: int, declared: dict) -> dict:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload}: malformed result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 2:
        raise SystemExit(f"{workload} trace={trace}: {result}")
    for name, unit in declared.items():
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
            raise SystemExit(f"{workload} trace={trace}: metric {name} [{unit}] is {got}")
    return result["metrics"]


def _copy_benchmark(dest: str) -> None:
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)


def _must_refuse(root: str, what: str, expect: str) -> None:
    proc = _run(root, "diagnose-grid", 0)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{") or expect not in proc.stderr:
        raise SystemExit(f"run.py did not refuse {what}: exit {proc.returncode}, "
                         f"stderr {proc.stderr!r}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for wl in (w["name"] for w in bench["workloads"]):
        _result(wl, 0, end_to_end)
        first = _result(wl, 1, per_layer)
        again = _result(wl, 1, per_layer)
        moved = [n for n in COUNT_METRICS if first[n]["value"] != again[n]["value"]]
        if moved:
            raise SystemExit(f"{wl}: count metrics differ between two runs: {moved}")
        print(f"{wl}: ok ({len(end_to_end)} end-to-end, {len(per_layer)} per-layer metrics)")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        bare = os.path.join(SCRATCH, "bare")
        _copy_benchmark(bare)
        _must_refuse(bare, "a directory without src/", "no tavopt sources")
        elsewhere = os.path.join(SCRATCH, "elsewhere")
        _copy_benchmark(elsewhere)
        os.makedirs(os.path.join(elsewhere, "src"))
        os.symlink(os.path.join(ROOT, "src", "tavopt"), os.path.join(elsewhere, "src", "tavopt"))
        _must_refuse(elsewhere, "a tavopt outside the checkout's src/", "refusing to measure")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("refusals: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
