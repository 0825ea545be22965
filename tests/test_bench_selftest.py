"""The benchmark's self-test (perfbench/selftest.py) at its tiny size:
every workload runs traced and untraced with one digest, and every name
the benchmark imports from the package still exists.  A fresh
interpreter runs it, as the benchmark itself does; it writes only under
the ignored .perfbench/ directory."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "selftest ok"
