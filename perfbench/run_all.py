"""Run every workload of the benchmark, each in its own process, in turn.

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Prints one line per metric (workload, name, value, unit) and each
workload's fail_ratio, and exits 1 if any workload failed an op.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def run_workload(workload, seed, seconds, trace, small=False, root=ROOT):
    """One run of run.py in its own process, from root."""
    argv = [
        sys.executable, os.path.join(root, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if small:
        argv.append("--small")
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ok = True
    for workload in workload_names():
        proc = run_workload(workload, args.seed, args.seconds, args.trace)
        if proc.returncode != 0 or not proc.stdout:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            if not proc.stdout:
                continue
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            print(f"{workload} {name} {m['value']} {m['unit']}")
        print(f"{workload} fail_ratio {result['failed'] / result['attempted']} ratio")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
