"""Smoke test of the example scripts: each runs with small arguments
against the package in src/ and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["coleman_pipeline.py", "--n-max", "2", "--seed", "1"],
        ["growth_demo.py", "--n-to", "3"],
        ["rank_sweep.py", "-p", "3", "-n", "1", "--count", "3", "--seed", "1"],
        ["code_lines.py"],
        # level 3 reads its torsion on the Weierstrass span
        pytest.param(
            ["rank_sweep.py", "-p", "3", "-n", "3", "--count", "3", "--seed", "1"],
            id="rank_sweep.py-n3",
        ),
        # every level of a generic Coleman tower is finite: read from the norm
        pytest.param(
            ["coleman_pipeline.py", "--kind", "generic", "--n-max", "4", "--seed", "1"],
            id="coleman_pipeline.py-n4",
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
