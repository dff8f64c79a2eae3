"""Import boundaries: the online service stands apart from the offline
simulation stack, and no entry point needs an undeclared dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

HIDE_NETWORKX = """
import sys

sys.modules["networkx"] = None  # undeclared dependency: any import fails
"""

SERVE_PROBE = HIDE_NETWORKX + """
import repro.serve.httpapi
import repro.serve.service

loaded = sorted(m for m in ("repro.lbs", "repro.datasets") if m in sys.modules)
assert not loaded, f"serve pulled in {loaded}"
"""

CLI_PROBE = HIDE_NETWORKX + """
import repro.cli
import repro.experiments.registry
"""


def _run_probe(probe: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_serve_imports_without_networkx_or_the_lbs_simulation():
    _run_probe(SERVE_PROBE)


def test_cli_and_experiments_import_without_networkx():
    _run_probe(CLI_PROBE)
