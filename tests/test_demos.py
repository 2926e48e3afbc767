"""Each demo script runs to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = [
    "01_series_arithmetic.py",
    "02_cocycle_calculus.py",
    "03_central_extensions.py",
    "04_bit_fingerprints.py",
    "05_equivariant_sections.py",
    "06_abelian_classification.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    got = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip()
