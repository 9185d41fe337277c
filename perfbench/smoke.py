"""Smoke test of the benchmark at tiny sizes, with no timing bound.

    python3 perfbench/smoke.py

For every workload: an untraced run and two traced runs at the same seed,
each of which must exit 0, report every metric BENCHMARK.json names with its
unit, and fail no op; the two traced runs must agree on every count.  Then
the benchmark must refuse to run, without printing a result, from a copy of
itself that has no njexl sources next to it.  Exits 1 on the first problem.
"""

import json
import os
import shutil
import sys

from run_all import ROOT, run_workload

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7


def run(workload, trace, root=ROOT):
    return run_workload(workload, SEED, 1, trace, small=True, root=root)


def result_of(proc, expected):
    """The final JSON line, checked against the expected {name: unit}."""
    if proc.returncode != 0:
        sys.exit(f"exit {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"result keys: {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"ops failed: {result}")
    if "fail_ratio 0.0 ratio" not in lines:
        sys.exit("fail_ratio is not reported as 0")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.exit(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in (w["name"] for w in spec["workloads"]):
        result_of(run(workload, 0), end_to_end)
        first, second = (result_of(run(workload, 1), per_layer)["metrics"] for _ in range(2))
        for name, m in first.items():
            if m["unit"] == "count" and m["value"] != second[name]["value"]:
                sys.exit(f"{workload}: {name} differs between traced runs")
        print(f"{workload}: ok")

    bare = os.path.join(ROOT, ".bench_build", "perfbench", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(spec["workloads"][0]["name"], 0, root=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            sys.exit("ran without njexl sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("without sources: refused")
    print("smoke: ok")


if __name__ == "__main__":
    main()
