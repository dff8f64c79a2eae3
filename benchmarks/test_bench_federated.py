"""Bench: a 10^5-client federated round inside its memory budget.

Runs one dropout-tolerant federated aggregation round with 100,000
enrolled clients in a fresh subprocess and asserts the aggregate-side
memory claim for real: the subprocess's peak RSS (the interpreter, the
city, and the whole streaming merge) stays under the configured
``memory_budget_mb``.  A naive implementation that retains per-client
state — the ``(clients, cells, types)`` noise-share tensor alone would be
~2 GB here — cannot pass.

The peak is ``VmHWM`` from ``/proc/self/status``, the high-water mark of
the subprocess's own address space.  ``ru_maxrss`` is only the fallback
where there is no ``VmHWM``: on Linux a fork+exec'd child starts with
its parent's ``ru_maxrss``, so under a large pytest process it reports
the parent's peak, not the round's.

The second half records the privacy comparison the backend exists for:
region-attack success on the federated release versus the centralized
Gaussian defense at matched ``(epsilon, delta)``, via the ``federated``
experiment runner.  Results land in ``BENCH_federated.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from benchmarks.conftest import run_once

_REPO = Path(__file__).resolve().parent.parent
_RESULT_PATH = _REPO / "BENCH_federated.json"

#: The bench round: 10^5 clients, one committed round, 256 MB budget.
_N_CLIENTS = 100_000
_MEMORY_BUDGET_MB = 256.0

_SUBPROCESS_SCRIPT = """
import json, resource, sys
from repro.federated import FederatedConfig, run_campaign
from repro.poi.cities import small_city

def peak_kb():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

config = FederatedConfig(
    n_clients={n_clients},
    n_rounds=1,
    memory_budget_mb={budget},
)
city = small_city(seed=7)
baseline_kb = peak_kb()
import time
t0 = time.perf_counter()
result = run_campaign(city.database, config, seed=11)
wall_s = time.perf_counter() - t0
outcome = result.rounds[0]
outcome.ledger.require_accounted()
round_peak_kb = peak_kb()
print(json.dumps({{
    "committed": outcome.committed,
    "ledger": outcome.ledger.as_dict(),
    "merge_stats": outcome.merge_stats,
    "baseline_rss_mb": baseline_kb / 1024.0,
    "peak_rss_mb": round_peak_kb / 1024.0,
    "wall_s": wall_s,
    "n_cells": result.grid.n_cells,
}}))
"""


def _run_round_subprocess() -> dict:
    """One federated round in a fresh interpreter; returns its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src")
    script = _SUBPROCESS_SCRIPT.format(
        n_clients=_N_CLIENTS, budget=_MEMORY_BUDGET_MB
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=900,
        check=False,
    )
    assert proc.returncode == 0, f"federated round subprocess failed:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bench_federated(benchmark, bench_scale):
    report = run_once(benchmark, _run_round_subprocess)

    assert report["committed"], "healthy 10^5-client round must commit"
    ledger = report["ledger"]
    assert ledger["enrolled"] == _N_CLIENTS
    assert (
        ledger["accepted"]
        + ledger["clipped"]
        + ledger["rejected_malformed"]
        + ledger["dropped_out"]
        + ledger["refused_late"]
        == _N_CLIENTS
    )
    # The memory claim, measured at the process boundary: everything —
    # interpreter, city, accumulators, fold buffers — under the budget.
    assert report["peak_rss_mb"] < _MEMORY_BUDGET_MB, (
        f"peak RSS {report['peak_rss_mb']:.0f} MB over the "
        f"{_MEMORY_BUDGET_MB:.0f} MB memory budget"
    )
    # And the merger's own accounting agrees with the config's budget.
    assert report["merge_stats"]["peak_bytes"] < _MEMORY_BUDGET_MB * 1024 * 1024

    # --- attack comparison at matched (epsilon, delta) ---
    from repro.experiments.federated_comparison import run_federated_comparison

    comparison = run_federated_comparison(bench_scale)
    rates = {row["variant"]: row["success_rate"] for row in comparison.rows}
    delta = rates["federated"] - rates["centralized"]
    # The federated release carries at least the centralized noise, so
    # it must not be meaningfully easier to attack.
    assert delta <= 0.02, (
        f"federated release easier to attack than centralized: "
        f"{rates['federated']:.3f} vs {rates['centralized']:.3f}"
    )

    result = {
        "benchmark": "federated",
        "n_clients": _N_CLIENTS,
        "memory_budget_mb": _MEMORY_BUDGET_MB,
        "round": report,
        "comparison": {
            "scale": bench_scale.name,
            "config": comparison.config,
            "rows": comparison.rows,
            "success_delta_federated_minus_centralized": delta,
        },
    }
    _RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    print()
    print(
        f"{_N_CLIENTS} clients: round "
        f"{'committed' if report['committed'] else 'aborted'} in "
        f"{report['wall_s']:.1f}s, peak RSS {report['peak_rss_mb']:.0f} MB "
        f"(budget {_MEMORY_BUDGET_MB:.0f} MB, baseline "
        f"{report['baseline_rss_mb']:.0f} MB)"
    )
    print(
        "attack success: "
        + ", ".join(f"{v}={rates[v]:.3f}" for v in ("none", "centralized", "federated"))
        + f"  [delta {delta:+.3f}]  [{_RESULT_PATH.name}]"
    )
