"""The online service stands apart from the offline simulation stack."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys

sys.modules["networkx"] = None  # undeclared dependency: any import fails

import repro.serve.httpapi
import repro.serve.service

loaded = sorted(m for m in ("repro.lbs", "repro.datasets") if m in sys.modules)
assert not loaded, f"serve pulled in {loaded}"
"""


def test_serve_imports_without_networkx_or_the_lbs_simulation():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
