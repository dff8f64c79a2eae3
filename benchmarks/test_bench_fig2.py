"""Bench: Fig. 2 — accuracy of the sanitization-recovery models.

Paper: mean validation accuracy above 0.95 (0.990-0.998) for both cities
at every query range.

The second bench gates the recovery fit's memory: every modeled type's
SVC shares one RBF Gram per fit, built in row blocks, so a fit grows the
process by about one Gram however many types it models.  It runs in a
fresh interpreter and reads ``VmHWM`` from ``/proc/self/status``, the
high-water mark of that process alone (a fork+exec'd child's
``ru_maxrss`` starts at its parent's peak).

The third bench times the SMO solver on every fit of a fig. 2 pass two
ways: one ``BinarySVC.fit`` call per machine, and one
``OneVsRestSVC.fit_many`` call per fit, which trains all the fit's
machines in lockstep.  It asserts that both give every machine the same
support vectors, dual coefficients and intercept, bit for bit, and
records the per-fit times in ``BENCH_recovery.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.experiments.fig2_recovery_accuracy import run_fig2
from repro.ml.svc import BinarySVC, OneVsRestSVC

_REPO = Path(__file__).resolve().parent.parent
_RESULT_PATH = _REPO / "BENCH_recovery.json"
_N_REPEATS = 3

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


def _fig2_fits(scale):
    """Run fig. 2, keeping each fit's Gram, label vectors and ``C``."""
    fits = []
    fit_many = OneVsRestSVC.fit_many.__func__

    def recording(cls, K, label_vectors, C=1.0):
        fits.append((K, [np.asarray(y) for y in label_vectors], C))
        return fit_many(cls, K, label_vectors, C)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OneVsRestSVC, "fit_many", classmethod(recording))
        result = run_fig2(scale)
    return result, fits


def _machine_rows(label_vectors):
    """Each one-vs-rest machine's ±1 labels, in ``fit_many``'s order."""
    rows = []
    for y in label_vectors:
        classes = np.unique(y)
        positives = classes[1:] if len(classes) == 2 else classes
        rows += [np.where(y == positive, 1.0, -1.0) for positive in positives]
    return rows


def _fit_each(K, machine_rows, C):
    """One ``BinarySVC.fit`` call per machine."""
    return [BinarySVC(C=C).fit(K, y) for y in machine_rows]


def _min_seconds(fn, *args):
    best, out = float("inf"), None
    for _ in range(_N_REPEATS):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def _lockstep_report(scale):
    result, fits = _fig2_fits(scale)
    rows = []
    for fig_row, (K, label_vectors, C) in zip(result.rows, fits, strict=True):
        machine_rows = _machine_rows(label_vectors)
        per_machine_s, singles = _min_seconds(_fit_each, K, machine_rows, C)
        per_fit_s, models = _min_seconds(OneVsRestSVC.fit_many, K, label_vectors, C)
        together = [machine for model in models for machine in model._machines]
        assert len(together) == len(singles)
        for alone, joint in zip(singles, together):
            np.testing.assert_array_equal(alone.support_, joint.support_)
            np.testing.assert_array_equal(alone.dual_coef_, joint.dual_coef_)
            assert alone._b == joint._b
        rows.append({
            "city": fig_row["city"],
            "r_km": fig_row["r_km"],
            "n_train": len(K),
            "n_types": len(label_vectors),
            "n_machines": len(machine_rows),
            "n_two_class_machines": sum(int(y.min() != y.max()) for y in machine_rows),
            "per_machine_ms": per_machine_s * 1e3,
            "per_fit_ms": per_fit_s * 1e3,
        })
    return {
        "benchmark": "recovery_lockstep_smo",
        "scale": scale.name,
        "timing": f"per-fit minimum over {_N_REPEATS} repeats, SMO only (Gram prebuilt)",
        "bit_identical": True,
        "rows": rows,
        "total_per_machine_ms": sum(r["per_machine_ms"] for r in rows),
        "total_per_fit_ms": sum(r["per_fit_ms"] for r in rows),
    }


def test_bench_fig2_lockstep_smo(benchmark, bench_scale):
    report = run_once(benchmark, lambda: _lockstep_report(bench_scale))
    _RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print()
    for row in report["rows"]:
        print(
            f"{row['city']:8s} r={row['r_km']:.1f} km  {row['n_two_class_machines']:3d} "
            f"two-class machines  one call per machine {row['per_machine_ms']:7.1f} ms  "
            f"one call per fit {row['per_fit_ms']:7.1f} ms"
        )
    print(
        f"total {report['total_per_machine_ms']:.0f} ms -> {report['total_per_fit_ms']:.0f} ms, "
        "every machine bit-identical"
    )
