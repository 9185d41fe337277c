"""njexl benchmark: one closed-loop workload per process, one caller, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run from anywhere; the repository root is the parent of this directory and
njexl is imported from its `src/`.  Workloads are defined in workloads.py.

Untraced (--trace 0): generate the inputs from the seed, set up (import
njexl afresh, create the contexts, load the predicates), warm up, then run
ops back to back for S seconds, checking every output against its
reference.  Reports setup_s, ops_per_s, op_p50_ms, op_p90_ms and
peak_rss_mb; fail_ratio is printed and carried by the result's `failed` and
`attempted`.  setup_s is the median of SETUP_REPEATS set-ups spread over the
run.  On a shared machine the speed of the same code changes by up to 2x
for seconds to minutes at a time, so runs need to be long.  The process
keeps to one CPU (see main).

Traced (--trace 1): a fixed number of ops per workload, so counts compare
across runs and commits; --seconds is not used.  The ops run once untraced
and twice traced; the two traced passes must give identical per-layer
counts and identical outputs, or the run fails.  Reports every per-layer
metric of the first traced pass and trace.overhead_ratio (traced wall time
over untraced wall time), and writes its spans to .bench_build/perfbench/.

--small shrinks every input for the smoke test (smoke.py).

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Exit status 0 only when every output was correct.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

from spans import PER_LAYER, Tracer, install
from workloads import WORKLOADS, SetupError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 15
WARMUP_OPS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def import_njexl():
    """Import njexl from scratch, dropping any copy already imported."""
    for name in [m for m in sys.modules if m == "njexl" or m.startswith("njexl.")]:
        del sys.modules[name]
    nj = importlib.import_module("njexl")
    importlib.import_module("njexl.cli")
    return nj


def setup_once(workload):
    """Time one set-up, which the workload keeps; returns (seconds, njexl)."""
    started = time.perf_counter()
    nj = import_njexl()
    workload.setup(nj)
    return time.perf_counter() - started, nj


class Tally:
    """Ops attempted and failed; failures are printed to stderr."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, k):
        """Run op k; return (seconds, output or None)."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            out = self.workload.op(k)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            elapsed = time.perf_counter() - started
            self._fail(k, f"{type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = time.perf_counter() - started
        if not self.workload.check(k, out):
            self._fail(k, "output differs from the reference")
        return elapsed, out

    def _fail(self, k, why):
        self.failed += 1
        if self.failed <= 5:
            print(f"op {k} failed: {why}", file=sys.stderr)


def measure(workload, tally, seconds, small):
    repeats = 2 if small else SETUP_REPEATS
    setups = [setup_once(workload)[0]]
    for k in range(WARMUP_OPS):
        tally.run(k)
    k = WARMUP_OPS
    # the other set-ups are spread over the run, so that their median samples
    # the machine's slow and fast spells as the ops do
    setup_every = seconds / repeats
    latencies = []
    now = time.perf_counter()
    deadline, next_setup = now + seconds, now + setup_every
    while now < deadline or len(latencies) < 2:
        if len(setups) < repeats and now >= next_setup:
            setups.append(setup_once(workload)[0])
            tally.run(k)  # untimed: the first op after a fresh import
            k += 1
            next_setup += setup_every
        latencies.append(tally.run(k)[0])
        k += 1
        now = time.perf_counter()
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": cuts[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"timed_ops": len(latencies)}


def traced(workload, tally, small):
    _, nj = setup_once(workload)
    ops = range(2 if small else workload.trace_ops)
    for k in range(WARMUP_OPS):
        tally.run(k)
    untraced_s = sum(tally.run(k)[0] for k in ops)

    tracer = Tracer()
    install(tracer, nj)
    passes = []
    for _ in range(2):
        tracer.reset()
        wall, outputs = 0.0, []
        for k in ops:
            tracer.op_id = k
            elapsed, out = tally.run(k)
            wall += elapsed
            outputs.append(out)
        passes.append((wall, tracer.metrics(nj.ast.Node), outputs))
        if len(passes) == 1:
            out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"spans-{workload.name}.tsv"))

    (wall, metrics, outputs), (_, again, outputs_again) = passes
    deterministic = True
    for name, value in metrics.items():
        if not name.endswith(".s") and value != again[name]:
            print(f"NONDETERMINISTIC: {name} was {value}, then {again[name]}", file=sys.stderr)
            deterministic = False
    if outputs != outputs_again:
        print("NONDETERMINISTIC: outputs differ between the two traced passes", file=sys.stderr)
        deterministic = False
    metrics["trace.overhead_ratio"] = wall / untraced_s
    return metrics, {"traced_ops": len(ops)}, deterministic


def git_sha():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "njexl", "__init__.py")):
        print(f"njexl sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # one CPU for the caller and njexl's deep-stack thread alike: on a shared
    # two-CPU machine, waking that thread on the other CPU stalls for
    # milliseconds whenever the host has taken the CPU away, which doubled
    # op_p90_ms from one run to the next
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload](ROOT, args.seed, args.small)
    tally = Tally(workload)
    try:
        if args.trace:
            values, counts, deterministic = traced(workload, tally, args.small)
            units = PER_LAYER
        else:
            values, counts = measure(workload, tally, args.seconds, args.small)
            deterministic = True
            units = END_TO_END
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()

    fail_ratio = tally.failed / tally.attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"fail_ratio {fail_ratio} ratio")
    print(json.dumps({"meta": {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        **counts,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }}))
    correct = tally.failed == 0 and deterministic
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
