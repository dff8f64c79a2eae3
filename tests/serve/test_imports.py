"""Import boundaries: the online service stands apart from the offline
simulation stack, and no entry point needs an undeclared dependency."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def _declared_dependencies() -> set[str]:
    """Import names of pyproject's ``[project] dependencies``.

    A regex rather than ``tomllib``, which Python 3.10 lacks.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert block is not None, "pyproject.toml has no [project] dependencies"
    names = re.findall(r"\"\s*([A-Za-z0-9_.-]+)", block.group(1))
    return {name.lower().replace("-", "_") for name in names}


ALLOWED = sorted(_declared_dependencies() | {"repro"})

HIDE_UNDECLARED = f"""
import sys

ALLOWED = set(sys.stdlib_module_names) | set({ALLOWED!r})


class RefuseUndeclared:
    # Every top-level module that is neither stdlib, a declared
    # dependency nor repro imports as if it were not installed.
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in ALLOWED:
            raise ModuleNotFoundError(f"undeclared dependency {{name!r}}", name=name)
        return None


sys.meta_path.insert(0, RefuseUndeclared())
"""

SERVE_PROBE = HIDE_UNDECLARED + """
import repro.serve.httpapi
import repro.serve.service

loaded = sorted(m for m in ("repro.lbs", "repro.datasets") if m in sys.modules)
assert not loaded, f"serve pulled in {loaded}"
"""

CLI_PROBE = HIDE_UNDECLARED + """
import repro.cli
import repro.experiments.registry
from repro.poi import kernels

assert kernels.active_kernel() == "numpy", kernels.active_kernel()
"""


def _run_probe(probe: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("POIAGG_KERNEL", None)
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_serve_imports_without_networkx_or_the_lbs_simulation():
    _run_probe(SERVE_PROBE)


def test_cli_and_experiments_import_without_networkx():
    _run_probe(CLI_PROBE)


def test_the_probe_refuses_an_undeclared_module():
    """Guards the finder itself: a third-party import must fail under it."""
    probe = HIDE_UNDECLARED + """
try:
    import hypothesis
except ModuleNotFoundError as exc:
    assert exc.name == "hypothesis", exc
else:
    raise AssertionError("hypothesis imported under the finder")
"""
    _run_probe(probe)
