"""The benchmark tracer (perfbench/tracing.py) wraps the package layer by
layer: importing the package and its CLI, as the benchmark workloads do,
must load every module it names, and the private kernel it wraps must
exist.  A fresh interpreter keeps modules that other tests import from
hiding a missing one."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import sys

import iwarank
import iwarank.cli

sys.path.insert(0, sys.argv[1])
import tracing

missing = [layer for layer in tracing.LAYERS if f"iwarank.{layer}" not in sys.modules]
assert not missing, f"layers not loaded: {missing}"
for layer, names in tracing.EXTRA.items():
    for name in names:
        assert callable(getattr(sys.modules[f"iwarank.{layer}"], name, None)), f"{layer}.{name}"
assert "_snf" in tracing.EXTRA["zp_modules"]
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
assert not tracer.leftover_wrappers()
"""


def test_tracer_layers_load_with_the_package():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
