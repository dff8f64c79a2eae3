"""Smoke test of the end-to-end benchmark at minimal sizes.

Not part of tier-1: run it with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
``--smoke`` uses 2 s arrival rungs, 5,000 in-process requests and one
radius per figure pass.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e.__main__ import main
from benchmarks.e2e.stats import verdict
from benchmarks.e2e.tracing import TARGETS, Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _smoke(out: Path, *extra: str) -> tuple[str, float]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke", "--repeats", "1",
         "--seed", "0", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return proc.stdout, time.monotonic() - start


def _assert_printed(stdout: str, metrics: list[dict]) -> None:
    for workload in WORKLOADS:
        for metric in metrics:
            pattern = rf"^{workload} {re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}$"
            assert re.search(pattern, stdout, re.MULTILINE), (workload, metric["name"])


def test_smoke_run_prints_every_end_to_end_metric(tmp_path: Path) -> None:
    stdout, wall = _smoke(tmp_path)
    assert wall < 60.0, f"smoke run took {wall:.1f}s"
    _assert_printed(stdout, BENCH["end_to_end"])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert sorted(summary["workloads"]) == sorted(WORKLOADS)


def test_traced_smoke_run_prints_every_per_layer_metric(tmp_path: Path) -> None:
    stdout, wall = _smoke(tmp_path, "--trace")
    assert wall < 60.0, f"traced smoke run took {wall:.1f}s"
    _assert_printed(stdout, BENCH["per_layer"])
    for workload in WORKLOADS:
        assert (tmp_path / f"trace-{workload}.jsonl").stat().st_size > 0


def test_tracer_restores_every_wrapped_attribute() -> None:
    import importlib

    from repro.poi.cities import small_city

    def owners() -> list[tuple[object, str]]:
        found = []
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner = module if target.owner is None else getattr(module, target.owner)
            found.append((owner, target.attr))
        return found

    before = [vars(owner).get(attr) for owner, attr in owners()]
    db = small_city(0).database
    tracer = Tracer()
    tracer.install()
    try:
        assert all(vars(owner).get(attr) is not b for (owner, attr), b in zip(owners(), before))
        db.freq_batch(np.array([[5_000.0, 5_000.0], [2_000.0, 3_000.0]]), 500.0)
    finally:
        tracer.uninstall()
    assert [vars(owner).get(attr) for owner, attr in owners()] == before
    assert [(s.name, s.attrs) for s in tracer.spans] == [("poi.freq_batch", {"n": 2})]


@pytest.mark.parametrize(
    ("parent", "change", "better", "expected"),
    [
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "lower", "improved"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [101, 100, 100, 99, 101, 99, 100, 100, 101, 99], "lower", "no worse"),
        ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [130, 131, 129, 130, 132, 128, 130, 131, 129, 130], "lower", "regressed"),
        ([50, 150, 100, 200, 60, 140, 90, 180, 70, 120],
         [55, 160, 95, 210, 65, 135, 95, 170, 75, 125], "lower", "unresolved"),
        ([1000, 1010, 990, 1000], [880, 885, 875, 880], "higher", "regressed"),
    ],
)
def test_verdicts(parent: list[float], change: list[float], better: str, expected: str) -> None:
    assert verdict(parent, change, better, 0.1).label == expected


def test_compare_command_on_synthetic_sets(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    def write(name: str, values: list[float]) -> Path:
        out = tmp_path / name
        out.mkdir()
        entry = {"unit": "ms", "values": values, "median": float(np.median(values)),
                 "q1": min(values), "q3": max(values), "n": len(values)}
        (out / "summary.json").write_text(
            json.dumps({"workloads": {"release_batch": {"latency_p50_ms": entry}}})
        )
        return out

    parent = write("parent", [10.0, 10.1, 9.9, 10.0, 10.0])
    slower = write("slower", [13.0, 13.1, 12.9, 13.0, 13.0])
    assert main(["compare", str(parent), str(slower)]) == 1
    assert capsys.readouterr().out.rstrip().endswith("regressed")
    assert main(["compare", str(parent), str(parent)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("no worse")
