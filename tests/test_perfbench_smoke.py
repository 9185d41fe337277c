"""The benchmark's smoke run (perfbench/smoke.py) passes against these sources.

It runs every workload at tiny sizes, traced and untraced, so renaming or
removing an entry point the benchmark traces fails here instead of in the
next benchmark run.
"""

import subprocess
import sys

from conftest import REPO


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "smoke.py")],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
