"""Bench: shard supervision overhead and crash-recovery cost.

The supervisor (fresh process per attempt, polling event loop, journal,
checkpoints) must cost little over the in-process serial run when
nothing fails, and recovery from a crashed worker must cost roughly one
extra attempt — not a sweep restart.  Bit-identity of the rows across
serial, supervised, and chaos runs is asserted along the way.
"""

import time

from benchmarks.conftest import run_once
from repro.experiments.fig4_geoind import run_fig4
from repro.experiments.parallel import run_sharded
from repro.experiments.supervisor import ShardPolicy, WorkerFaultPlan

SHARDS = ("bj_random", "nyc_random")
KW = dict(radii=(1_000.0, 2_000.0), epsilons=(0.1,))
FAST = ShardPolicy(retries=1, poll_interval_s=0.01, heartbeat_interval_s=1.0)


def test_bench_supervisor_overhead(benchmark, bench_scale):
    t0 = time.perf_counter()
    serial = run_fig4(bench_scale, datasets=SHARDS, **KW)
    serial_s = time.perf_counter() - t0

    supervised = run_once(
        benchmark,
        lambda: run_sharded(
            "fig4", bench_scale, shards=SHARDS, max_workers=2, policy=FAST, **KW
        ),
    )
    supervised_s = benchmark.stats["mean"]
    print(f"\nserial {serial_s:.2f}s vs supervised {supervised_s:.2f}s "
          f"({supervised_s / serial_s:.2f}x)")

    assert supervised.rows == serial.rows  # same science either way
    # Supervision is bookkeeping, not compute: two shards on two workers
    # should beat the serial run; the 2 s absorb process start-up on
    # loaded CI machines.
    assert supervised_s < serial_s + 2.0


def test_bench_crash_recovery_costs_one_attempt(benchmark, bench_scale):
    serial = run_fig4(bench_scale, datasets=SHARDS, **KW)
    t0 = time.perf_counter()
    healthy = run_sharded(
        "fig4", bench_scale, shards=SHARDS, max_workers=2, policy=FAST, **KW
    )
    healthy_s = time.perf_counter() - t0
    assert healthy.rows == serial.rows

    plan = WorkerFaultPlan(crash_rate=1.0, max_faults_per_shard=1)
    chaos = run_once(
        benchmark,
        lambda: run_sharded(
            "fig4", bench_scale, shards=SHARDS, max_workers=2,
            policy=FAST, fault_plan=plan, **KW,
        ),
    )
    chaos_s = benchmark.stats["mean"]
    print(f"\nhealthy {healthy_s:.2f}s vs crash-on-first-attempt {chaos_s:.2f}s")

    assert chaos.rows == serial.rows
    for report in chaos.provenance["sharding"]["shards"]:
        assert report["status"] == "retried" and report["attempts"] == 2
    # Crashes fire before the shard computes, so recovery ≈ relaunch cost:
    # well under one full extra sweep on top of the healthy run.
    assert chaos_s < healthy_s * 2.0 + 2.0
