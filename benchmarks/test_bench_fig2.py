"""Bench: Fig. 2 — accuracy of the sanitization-recovery models.

Paper: mean validation accuracy above 0.95 (0.990-0.998) for both cities
at every query range.

The second bench gates the recovery fit's memory: every modeled type's
SVC shares one RBF Gram per fit, built in row blocks, so a fit grows the
process by about one Gram however many types it models.  It runs in a
fresh interpreter and reads ``VmHWM`` from ``/proc/self/status``, the
high-water mark of that process alone (a fork+exec'd child's
``ru_maxrss`` starts at its parent's peak).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.conftest import run_once
from repro.experiments.fig2_recovery_accuracy import run_fig2

_REPO = Path(__file__).resolve().parent.parent

#: The gated fit: 4 Beijing types at 1 km on 4,000 training rows.
_N_TRAIN = 4_000
_N_VALIDATION = 800
_N_TYPES = 4
#: At most two training Grams of growth (2 x 4,000^2 x 8 B = 244 MiB).
_GROWTH_BUDGET_MB = 2 * _N_TRAIN**2 * 8 / 2**20

_GATE_SCRIPT = """
import json
from repro.attacks.recovery import SanitizationRecoveryAttack
from repro.core.rng import derive_rng
from repro.defense.sanitization import Sanitizer
from repro.poi.cities import beijing

def vm_hwm_kb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None

city = beijing(0)
before_kb = vm_hwm_kb()
attack = SanitizationRecoveryAttack(
    city.database, Sanitizer(city.database, threshold=10), limit_types={n_types}
)
report = attack.fit(
    1_000.0, n_train={n_train}, n_validation={n_validation},
    rng=derive_rng(0, "fig2-memory-gate"), bounds=city.interior(1_000.0),
)
after_kb = vm_hwm_kb()
print(json.dumps({{
    "before_kb": before_kb,
    "after_kb": after_kb,
    "n_models": len(report.type_ids),
    "mean_accuracy": report.mean_accuracy,
}}))
"""


def test_bench_fig2(benchmark, bench_scale):
    result = run_once(benchmark, lambda: run_fig2(bench_scale))
    print()
    print(result.render())

    for row in result.rows:
        # Shape: the recovery models are accurate everywhere, as in Fig. 2.
        assert row["mean_accuracy"] > 0.9, row


def _run_gate_subprocess() -> dict:
    """One recovery fit in a fresh interpreter; returns its peak readings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src")
    script = _GATE_SCRIPT.format(
        n_types=_N_TYPES, n_train=_N_TRAIN, n_validation=_N_VALIDATION
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
        check=False,
    )
    assert proc.returncode == 0, f"recovery fit subprocess failed:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bench_fig2_shared_kernel_memory(benchmark):
    report = run_once(benchmark, _run_gate_subprocess)
    if report["before_kb"] is None:
        pytest.skip("no VmHWM in /proc/self/status on this platform")
    growth_mb = (report["after_kb"] - report["before_kb"]) / 1024.0
    print()
    print(
        f"recovery fit, {report['n_models']} types x {_N_TRAIN} rows: peak RSS grew "
        f"{growth_mb:.0f} MB (budget {_GROWTH_BUDGET_MB:.0f} MB), "
        f"mean accuracy {report['mean_accuracy']:.3f}"
    )
    assert report["n_models"] == _N_TYPES
    assert growth_mb <= _GROWTH_BUDGET_MB, (
        f"recovery fit grew peak RSS by {growth_mb:.0f} MB, over two "
        f"{_N_TRAIN}-row Grams ({_GROWTH_BUDGET_MB:.0f} MB)"
    )
