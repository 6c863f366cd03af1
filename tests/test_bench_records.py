"""The committed benchmark records (BENCH_*.json at the repository root).

Every run in a record keeps its result line, and every result is correct
with no failed call.  A claim block's pairs are the claimed metric of its
runs and alternate which side ran first, and its quartiles, win count and
verdict recompute from the pairs.  The names the benchmark's tracer looks
up in tavopt all resolve.
"""

import importlib
import json
import math
import statistics
from pathlib import Path

import pytest

from tavopt import SolverConfig, run
from tavopt.cli import reference_instance

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def record_faults(record: dict, name: str) -> list:
    """One line per inconsistency found in a record; empty when it holds."""
    bad = []
    results = {}
    for run in record["runs"]:
        label = f"{name}: {run['side']} {run['workload']} seed {run['seed']} trace {run['trace']}"
        lines = run.get("lines", [])
        result = lines[1] if len(lines) == 2 else None
        if not isinstance(result, dict) or "correct" not in result:
            bad.append(f"{label}: result line missing")
        elif result["correct"] is not True or result["failed"] > 0:
            bad.append(f"{label}: correct={result['correct']} failed={result['failed']}")
        else:
            results[run["workload"], run["side"], run["seed"], run["trace"]] = result
    claim = record.get("claim")
    if claim is None:
        return bad
    metric, pairs = claim["metric"], claim["pairs"]
    values = {"parent": [], "change": []}
    for k, pair in enumerate(pairs):
        for side in values:
            result = results.get((claim["workload"], side, pair["seed"], 0))
            value = pair[f"{side}_{metric}"]
            values[side].append(value)
            if result is None or result["metrics"][metric]["value"] != value:
                bad.append(f"{name}: claim pair seed {pair['seed']}: {side} {metric} "
                           f"{value} is not its run's result")
        if pair["first"] not in values or k and pair["first"] == pairs[k - 1]["first"]:
            bad.append(f"{name}: claim pair seed {pair['seed']}: first does not alternate")
    sign = 1.0 if claim["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(values["parent"], values["change"]))
    quartiles = {side: dict(zip(("q1", "median", "q3"),
                                statistics.quantiles(vs, n=4, method="inclusive")))
                 for side, vs in values.items()}
    parent, change = quartiles["parent"], quartiles["change"]
    met = (wins >= 0.9 * len(pairs)
           and sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"])
    derived = {"change_wins": wins, "pairs_run": len(pairs), "met": met}
    for key, value in derived.items():
        if claim[key] != value:
            bad.append(f"{name}: claim {key} is {claim[key]}, the pairs give {value}")
    for side in quartiles:
        for key, value in quartiles[side].items():
            if not math.isclose(claim[side][key], value, rel_tol=1e-12):
                bad.append(f"{name}: claim {side} {key} is {claim[side][key]}, "
                           f"the pairs give {value}")
    return bad


def _claim_run(record: dict, side: str) -> int:
    """Index of the run behind the first claim pair's value on one side."""
    claim = record["claim"]
    return next(k for k, run in enumerate(record["runs"])
                if (run["workload"], run["side"], run["seed"], run["trace"])
                == (claim["workload"], side, claim["pairs"][0]["seed"], 0))


def _scale(mapping: dict, key: str, factor: float) -> None:
    mapping[key] *= factor


MUTATIONS = {
    "pair value": lambda r: _scale(r["claim"]["pairs"][0], f"parent_{r['claim']['metric']}",
                                   1.001),
    "first": lambda r: r["claim"]["pairs"][1].update(first=r["claim"]["pairs"][0]["first"]),
    "quartile": lambda r: _scale(r["claim"]["parent"], "q1", 1.001),
    "change_wins": lambda r: r["claim"].update(change_wins=r["claim"]["change_wins"] - 1),
    "pairs_run": lambda r: r["claim"].update(pairs_run=r["claim"]["pairs_run"] + 1),
    "met": lambda r: r["claim"].update(met=not r["claim"]["met"]),
    "missing run": lambda r: r["runs"].pop(_claim_run(r, "change")),
    "failed call": lambda r: r["runs"][0]["lines"][1].update(failed=1),
}


def test_records_are_committed():
    assert ({"BENCH_7.json", "BENCH_9.json", "BENCH_11.json", "BENCH_12.json",
             "BENCH_13.json", "BENCH_18.json", "BENCH_22.json", "BENCH_25.json",
             "BENCH_29.json", "BENCH_31.json", "BENCH_32.json"}
            <= {path.name for path in RECORDS})


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_committed_record_is_consistent(path):
    assert record_faults(json.loads(path.read_text()), path.name) == []


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("path", [p for p in RECORDS if "claim" in json.loads(p.read_text())],
                         ids=lambda path: path.name)
def test_a_mutated_record_is_refused(path, mutation):
    record = json.loads(path.read_text())
    MUTATIONS[mutation](record)
    assert record_faults(record, path.name)


def test_the_tracers_names_resolve(monkeypatch):
    # perfbench/tracing.py wraps functions by module attribute, dispatches
    # its accuracy counts on problem classes and sizes RunTrace arrays, all
    # by name, so a rename or fold here would break only the benchmark
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    for layer, names in tracing.WRAPPED.items():
        module = importlib.import_module(f"tavopt.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"tavopt.{layer}.{name}"
    problem = importlib.import_module("tavopt.problem")
    assert isinstance(problem.LinearPiece, type) and isinstance(problem.GridProduct, type)
    trace = run(reference_instance("linear", False), SolverConfig(v=10.0, horizon=8))
    for name in tracing.TRACE_ARRAYS:
        assert getattr(trace, name).nbytes >= 0, name
    assert (trace.horizon, trace.v) == (8, 10.0) and trace.spec is not None
