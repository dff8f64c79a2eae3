"""Bench: the vectorized batch Freq engine versus the scalar oracle path.

Times a fig2/quick-scale region-attack workload — sample targets, compute
their frequency vectors, attack every release — two ways:

* **scalar reference**: the pre-batch-engine implementation.  One scalar
  ``Freq`` oracle call per target, then one scalar ``Freq(p, 2r)`` call
  per candidate anchor POI, memoised per ``(poi, radius)`` — exactly the
  work the old ``_poi_freq_cache`` dict did.
* **batch engine**: ``db.freq_batch`` for the targets plus
  ``RegionAttack.run_batch``, which groups releases by anchor type and
  fills the per-radius anchor rows in vectorized passes.

Asserts the two paths produce identical outcomes and that the batch
engine is at least 5x faster **at every radius** — including the 4 km
setting where the pre-pyramid engine collapsed to ~1.6x — and records
the measurements in ``BENCH_batch_engine.json`` at the repo root.  Each
per-radius row names the engine tier and kernel that actually ran, and a
whole-figure section times end-to-end ``fig6`` and ``fig7`` passes so
regressions that only show up at figure granularity (plan overhead,
cache churn) still move a recorded number.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.attacks.base import Release
from repro.attacks.region import RegionAttack
from repro.core.rng import derive_rng
from repro.poi import kernels
from repro.poi.cities import beijing
from repro.poi.engine import collecting_query_plans, summarize_query_plans
from repro.poi.frequency import dominates

from benchmarks.conftest import run_once

RADII_M = (500.0, 1_000.0, 2_000.0, 4_000.0)
#: Hard floor asserted per radius (the tentpole acceptance bar).
MIN_SPEEDUP = 5.0
_MAX_CANDIDATES = 4_000
_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch_engine.json"


def scalar_reference(db, targets, radius):
    """The region attack on top of the scalar ``Freq`` oracle only.

    Reproduces the pre-batch-engine hot path: per-target scalar queries
    and per-candidate anchor frequencies memoised in a plain dict.
    """
    memo: dict[int, object] = {}

    def anchor_freq(poi: int):
        row = memo.get(poi)
        if row is None:
            row = memo[poi] = db.freq(db.location_of(poi), 2 * radius)
        return row

    outcomes = []
    for target in targets:
        freq_vector = db.freq(target, radius)
        anchor_type = db.rarest_present_type(freq_vector)
        if anchor_type is None:
            outcomes.append((None, ()))
            continue
        candidates = db.pois_of_type(anchor_type)
        if len(candidates) > _MAX_CANDIDATES:
            outcomes.append((anchor_type, ()))
            continue
        survivors = tuple(
            int(p) for p in candidates if dominates(anchor_freq(int(p)), freq_vector)
        )
        outcomes.append((anchor_type, survivors))
    return outcomes


def test_bench_batch_engine(benchmark, bench_scale):
    city = beijing(bench_scale.seed)
    db = city.database
    attack = RegionAttack(db, max_candidates=_MAX_CANDIDATES)
    # A fig2-style workload at quick-scale target counts (see
    # ``repro.experiments.scale``); larger bench scales raise it further.
    n_targets = max(bench_scale.n_targets, 300)

    workload = {}
    for radius in RADII_M:
        rng = derive_rng(bench_scale.seed, "bench-batch", radius)
        workload[radius] = [
            city.interior(radius).sample_point(rng) for _ in range(n_targets)
        ]

    # Both paths are repeated and the per-radius minimum kept: wall-clock
    # noise on a shared machine only ever inflates a measurement, so the
    # minimum is the most faithful estimate of either path's true cost.
    n_repeats = 3

    # --- scalar reference path ---
    scalar_outcomes = {}
    scalar_seconds = {}
    for _ in range(n_repeats):
        for radius, targets in workload.items():
            t0 = time.perf_counter()
            scalar_outcomes[radius] = scalar_reference(db, targets, radius)
            elapsed = time.perf_counter() - t0
            scalar_seconds[radius] = min(
                scalar_seconds.get(radius, elapsed), elapsed
            )

    # --- batch engine (the timed, recorded closure) ---
    def batch_all():
        results = {}
        for radius, targets in workload.items():
            db.clear_cache()
            t0 = time.perf_counter()
            freqs = db.freq_batch(targets, radius)
            outcomes = attack.run_batch([Release(f, radius) for f in freqs])
            results[radius] = (time.perf_counter() - t0, outcomes)
        return results

    batch_seconds: dict[float, float] = {}

    def fold(results):
        """Check bit-identity and keep the per-radius best time."""
        for radius, (elapsed, outcomes) in results.items():
            got = [(o.anchor_type, o.candidates) for o in outcomes]
            assert got == scalar_outcomes[radius]
            batch_seconds[radius] = min(
                batch_seconds.get(radius, elapsed), elapsed
            )

    for _ in range(n_repeats - 1):
        fold(batch_all())
    fold(run_once(benchmark, batch_all))

    engine = db.engine
    kernel = kernels.active_kernel()
    rows = []
    for radius in RADII_M:
        rows.append(
            {
                "radius_m": radius,
                "n_targets": n_targets,
                "engine": engine.mode,
                "tier": engine.select_tier(radius),
                "kernel": kernel,
                "scalar_s": scalar_seconds[radius],
                "batch_s": batch_seconds[radius],
                "speedup": scalar_seconds[radius] / batch_seconds[radius],
            }
        )

    # --- whole-figure wall clock: end-to-end fig6 and fig7 passes ---
    figure_rows = [_figure_row(bench_scale, "fig6"), _figure_row(bench_scale, "fig7")]

    total_scalar = sum(r["scalar_s"] for r in rows)
    total_batch = sum(r["batch_s"] for r in rows)
    overall = total_scalar / total_batch
    report = {
        "benchmark": "batch_engine",
        "city": city.name,
        "n_pois": len(db),
        "scale": bench_scale.name,
        "n_targets": n_targets,
        "n_repeats": n_repeats,
        "timing": "per-radius minimum over repeats",
        "min_speedup": MIN_SPEEDUP,
        "rows": rows,
        "figures": figure_rows,
        "total_scalar_s": total_scalar,
        "total_batch_s": total_batch,
        "overall_speedup": overall,
    }
    _RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print()
    for row in rows:
        print(
            f"r={row['radius_m']:>6.0f} m  [{row['tier']}/{row['kernel']}]  "
            f"scalar {row['scalar_s']:.3f}s  "
            f"batch {row['batch_s']:.3f}s  speedup {row['speedup']:.1f}x"
        )
    for fig in figure_rows:
        print(f"{fig['figure']} wall-clock: {fig['wall_s']:.2f}s")
    print(f"overall speedup: {overall:.1f}x  [{_RESULT_PATH.name}]")

    for row in rows:
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"batch engine only {row['speedup']:.1f}x faster than scalar "
            f"at r={row['radius_m']:.0f} m (floor {MIN_SPEEDUP}x)"
        )
    assert overall >= MIN_SPEEDUP, (
        f"batch engine only {overall:.1f}x faster than scalar overall"
    )


def _figure_row(bench_scale, figure_id):
    """Time one whole figure end to end, with its engine-call summary."""
    from repro.experiments.registry import get_experiment

    runner = get_experiment(figure_id)
    with collecting_query_plans() as plans:
        t0 = time.perf_counter()
        runner(scale=bench_scale)
        wall = time.perf_counter() - t0
    summary = summarize_query_plans(plans)
    return {
        "figure": figure_id,
        "scale": bench_scale.name,
        "wall_s": wall,
        "freq_engine": summary,
    }
