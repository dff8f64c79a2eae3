"""Bench: the serve subsystem at paper-scale user counts.

Three measurements, recorded in ``BENCH_serve.json`` at the repo root:

* **paper-scale run** — the ``bench`` load profile (10,000 simulated
  users, 20,000 release requests) through a live threaded
  :class:`~repro.serve.service.ReleaseService`, reporting completed
  throughput and p50/p95/p99 release latency;
* **micro-batching ablation** — the same workload slice dispatched with
  ``batch_max=64`` versus ``batch_max=1`` (per-request dispatch).  The
  batched path amortises the :meth:`~repro.poi.database.POIDatabase.freq_batch`
  query, the ledger's WAL fsync, and the journal write across the whole
  batch, and must show a measurable throughput gain;
* **WAL growth under sustained load** — the same slice served with WAL
  compaction on (tight ``ledger_compact_every`` window) versus
  effectively off.  The compacted ledger's on-disk WAL must stay under a
  constant bound (one compaction window) while the uncompacted twin
  grows with the request count.

Submission is paced by backpressure: a rejected submit is retried after
a short sleep, so the queue — not the driver loop — sets the pace and
both ablation arms measure pure dispatch throughput.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.dp.mechanisms import PrivacyParams
from repro.poi.cities import small_city
from repro.serve import LOAD_PROFILES, ReleaseService, ServeConfig
from repro.serve.loadgen import generate_requests, latency_percentiles

from benchmarks.conftest import run_once

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: Ablation slice: enough batches for stable timing, small enough that
#: the per-request arm (one fsync per job) stays a few seconds.
_ABLATION_REQUESTS = 2_000

#: Per-user allowance generous enough that the bench measures dispatch,
#: not refusal (the bench mix averages ~2 laplace releases per user).
_BUDGET = PrivacyParams(50.0, 0.0)

#: WAL-growth arm: a tight compaction window so the sustained-load slice
#: crosses many windows, and a generous per-record ceiling for the bound.
_COMPACT_EVERY = 128
_RECORD_BYTES = 160


def _config(batch_max: int, **ledger_cfg) -> ServeConfig:
    return ServeConfig(
        queue_capacity=512,
        n_workers=2,
        batch_max=batch_max,
        batch_wait_s=0.002,
        poll_interval_s=0.005,
        deadline_s=60.0,
        # Ratios above 1 disable the shed ladder: this bench measures
        # raw dispatch throughput, not graceful degradation.
        degrade_queue_ratio=2.0,
        refuse_queue_ratio=2.0,
        **ledger_cfg,
    )


def _drive(service: ReleaseService, requests) -> dict:
    """Submit with backpressure pacing, drain, and reduce the run."""
    t0 = time.perf_counter()
    stuck = 0
    for request in requests:
        for _ in range(500):
            if service.submit(request).status != "rejected":
                break
            time.sleep(0.002)
        else:
            stuck += 1
    drained = service.drain(180.0)
    wall_s = max(time.perf_counter() - t0, 1e-9)
    counters = service.store.counters
    assert counters.consistent(), counters.as_dict()
    assert drained, "serve bench failed to drain"
    assert stuck == 0, f"{stuck} requests never got past backpressure"
    latencies = service.store.completed_latencies()
    fates = service.status()["fates"]
    return {
        "n_requests": len(requests),
        "fates": fates,
        "completed": fates["completed"],
        "latency_s": latency_percentiles(latencies),
        "throughput_rps": fates["completed"] / wall_s,
        "wall_s": wall_s,
        "n_batches": service.status()["n_batches"],
    }


def _run(db, tmp_path, tag: str, batch_max: int, requests, **ledger_cfg) -> dict:
    service = ReleaseService(
        db,
        _BUDGET,
        config=_config(batch_max, **ledger_cfg),
        ledger_dir=str(tmp_path / f"ledger-{tag}"),
        seed=0,
    )
    with service:
        result = _drive(service, requests)
        # Captured before close() runs its final compaction: this is the
        # steady-state footprint a long-lived server would carry.
        result["wal_bytes"] = service.ledger.wal_bytes_on_disk()
    return result


def test_bench_serve(benchmark, bench_scale, tmp_path):
    db = small_city(seed=7).database
    profile = LOAD_PROFILES["bench"]
    assert profile.n_users >= 10_000  # the paper-scale population
    requests = generate_requests(profile, seed=bench_scale.seed)

    # --- paper-scale run (the timed, recorded closure) ---
    paper = run_once(
        benchmark, lambda: _run(db, tmp_path, "paper", 64, requests)
    )
    assert paper["completed"] > 0.95 * profile.n_requests
    lat = paper["latency_s"]
    assert lat["p50"] <= lat["p95"] <= lat["p99"]

    # --- micro-batching ablation on a slice of the same workload ---
    slice_ = requests[:_ABLATION_REQUESTS]
    batched = _run(db, tmp_path, "batched", 64, slice_)
    per_request = _run(db, tmp_path, "per-request", 1, slice_)
    assert per_request["n_batches"] >= len(slice_)  # truly one job per batch
    speedup = batched["throughput_rps"] / per_request["throughput_rps"]

    # --- WAL growth under sustained load: compaction on vs off ---
    compacted = _run(
        db, tmp_path, "wal-compacted", 64, slice_,
        ledger_compact_every=_COMPACT_EVERY,
    )
    unbounded = _run(
        db, tmp_path, "wal-unbounded", 64, slice_,
        ledger_compact_every=10**9,
    )
    # Without compaction the WAL carries the full spend history; with it,
    # the footprint is one compaction window — a constant, not a function
    # of request count.
    wal_bound = _RECORD_BYTES * (_COMPACT_EVERY + 1)
    assert compacted["wal_bytes"] <= wal_bound, (
        f"compacted WAL {compacted['wal_bytes']}B exceeds bound {wal_bound}B"
    )
    assert compacted["wal_bytes"] < unbounded["wal_bytes"], (
        "compaction did not shrink the WAL: "
        f"{compacted['wal_bytes']}B vs {unbounded['wal_bytes']}B"
    )

    report = {
        "benchmark": "serve",
        "profile": profile.name,
        "n_users": profile.n_users,
        "n_requests": profile.n_requests,
        "scale": bench_scale.name,
        "paper_scale": paper,
        "ablation": {
            "n_requests": len(slice_),
            "batched": batched,
            "per_request": per_request,
            "batching_speedup": speedup,
        },
        "wal_growth": {
            "n_requests": len(slice_),
            "compact_every": _COMPACT_EVERY,
            "compacted_wal_bytes": compacted["wal_bytes"],
            "unbounded_wal_bytes": unbounded["wal_bytes"],
            "bound_bytes": wal_bound,
        },
    }
    _RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(
        f"bench profile: {paper['completed']}/{profile.n_requests} completed, "
        f"{paper['throughput_rps']:.0f} req/s, "
        f"p50 {lat['p50'] * 1e3:.1f} ms  p95 {lat['p95'] * 1e3:.1f} ms  "
        f"p99 {lat['p99'] * 1e3:.1f} ms"
    )
    print(
        f"micro-batching: {batched['throughput_rps']:.0f} vs "
        f"{per_request['throughput_rps']:.0f} req/s "
        f"({speedup:.1f}x)  [{_RESULT_PATH.name}]"
    )
    print(
        f"wal growth: {compacted['wal_bytes']}B compacted vs "
        f"{unbounded['wal_bytes']}B unbounded "
        f"(bound {wal_bound}B)"
    )

    assert speedup >= 1.2, f"micro-batching only {speedup:.2f}x per-request"
