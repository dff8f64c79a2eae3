"""Chaos suite for supervised shard execution.

Drives every supervision path with the seeded :class:`WorkerFaultPlan`:
workers killed mid-shard, workers hung past the timeout, deterministic
retry success on attempt 2, serial fallback after persistent crashes,
and bit-identity of resumed-vs-uninterrupted sharded runs.

``POIAGG_CHAOS_SEEDS`` (space-separated ints, read by
:func:`repro.core.faults.seeds_from_env`) widens the seeded chaos sweep;
CI runs it with several seeds.
"""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.core.errors import ConfigError, ShardError
from repro.core.faults import seeds_from_env
from repro.experiments.fig4_geoind import run_fig4
from repro.experiments.parallel import run_sharded
from repro.experiments.scale import ExperimentScale
from repro.experiments.supervisor import (
    ShardPolicy,
    ShardReport,
    WorkerFaultPlan,
    clear_shard_checkpoints,
    shard_checkpoint_path,
    shard_journal_path,
    supervise_shards,
)

MICRO = ExperimentScale(
    name="ci",
    n_targets=12,
    n_train=50,
    n_validation=20,
    n_area_samples=1_000,
    n_taxis=10,
    n_users=8,
    seed=5,
)

KW = dict(radii=(1_000.0,), epsilons=(0.1,))
SHARDS = ("bj_random", "nyc_random")

#: Fast polling so fault-path tests spend milliseconds, not heartbeats.
FAST = dict(poll_interval_s=0.01, heartbeat_interval_s=0.05)

CHAOS_SEEDS = seeds_from_env(default=(0,))


@pytest.fixture(scope="module")
def serial_rows():
    """Rows of the uninterrupted serial run every chaos run must match."""
    return run_fig4(MICRO, datasets=SHARDS, **KW).rows


def _journal_events(out) -> list[str]:
    lines = shard_journal_path(out).read_text().strip().splitlines()
    return [json.loads(line)["event"] for line in lines]


def _reports_by_shard(result) -> dict:
    return {r["shard"]: r for r in result.provenance["sharding"]["shards"]}


class TestWorkerFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            WorkerFaultPlan(crash_rate=1.2)
        with pytest.raises(ConfigError):
            WorkerFaultPlan(crash_rate=0.6, hang_rate=0.6)
        with pytest.raises(ConfigError):
            WorkerFaultPlan(hang_s=-1.0)
        with pytest.raises(ConfigError):
            WorkerFaultPlan(overrides=(("a", "explode"),))

    def test_decide_is_deterministic_per_shard_and_attempt(self):
        plan = WorkerFaultPlan(crash_rate=0.4, hang_rate=0.3, error_rate=0.3, seed=7,
                               max_faults_per_shard=3)
        fates = [plan.decide("bj_random", a) for a in (1, 2, 3)]
        assert fates == [plan.decide("bj_random", a) for a in (1, 2, 3)]

    def test_attempts_beyond_budget_are_healthy(self):
        plan = WorkerFaultPlan(crash_rate=1.0, max_faults_per_shard=2)
        assert plan.decide("x", 1) == "crash"
        assert plan.decide("x", 2) == "crash"
        assert plan.decide("x", 3) is None

    def test_overrides_pin_fates(self):
        plan = WorkerFaultPlan(crash_rate=1.0, overrides=(("safe", "ok"), ("h", "hang")))
        assert plan.decide("safe", 1) is None
        assert plan.decide("h", 1) == "hang"
        assert plan.decide("other", 1) == "crash"


class TestShardPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ShardPolicy(timeout_s=0)
        with pytest.raises(ConfigError):
            ShardPolicy(retries=-1)
        with pytest.raises(ConfigError):
            ShardPolicy(poll_interval_s=0)

    def test_max_attempts(self):
        assert ShardPolicy(retries=2).max_attempts == 3


class TestSupervisionPaths:
    def test_worker_killed_mid_shard_is_retried_on_fresh_worker(self, serial_rows, tmp_path):
        """Crash isolation + deterministic retry success on attempt 2."""
        plan = WorkerFaultPlan(crash_rate=1.0, max_faults_per_shard=1)
        result = run_sharded(
            "fig4", MICRO, shards=SHARDS, max_workers=2, retries=1,
            out=tmp_path, fault_plan=plan,
            policy=ShardPolicy(retries=1, **FAST), **KW,
        )
        assert result.rows == serial_rows  # bit-identical despite the chaos
        for report in _reports_by_shard(result).values():
            assert report["status"] == "retried"
            assert report["attempts"] == 2
        events = _journal_events(tmp_path)
        assert "crashed" in events and "retry" in events and events[-1] == "done"

    def test_hung_worker_is_killed_at_timeout_and_retried(self, serial_rows, tmp_path):
        plan = WorkerFaultPlan(
            overrides=(("bj_random", "hang"),), hang_s=60.0, max_faults_per_shard=1
        )
        result = run_sharded(
            "fig4", MICRO, shards=SHARDS, max_workers=2, out=tmp_path, fault_plan=plan,
            policy=ShardPolicy(timeout_s=0.5, retries=1, **FAST), **KW,
        )
        assert result.rows == serial_rows
        reports = _reports_by_shard(result)
        hung = reports["bj_random"]
        assert hung["status"] == "retried" and hung["attempts"] == 2
        assert hung["durations_s"][0] >= 0.5  # first attempt ran to the deadline
        assert reports["nyc_random"]["status"] == "ok"
        assert "timed_out" in _journal_events(tmp_path)

    def test_exhausted_retries_fail_only_that_shard(self, tmp_path):
        """The sweep completes the healthy shards, then signals failure."""
        plan = WorkerFaultPlan(
            overrides=(("nyc_random", "crash"),), max_faults_per_shard=99
        )
        with pytest.raises(ShardError) as excinfo:
            run_sharded(
                "fig4", MICRO, shards=SHARDS, max_workers=2, out=tmp_path,
                fault_plan=plan, policy=ShardPolicy(retries=1, **FAST), **KW,
            )
        err = excinfo.value
        assert err.shard == "nyc_random"
        by_shard = {r.shard: r for r in err.reports}
        assert by_shard["bj_random"].status == "ok"  # completed, not discarded
        assert by_shard["nyc_random"].status == "crashed"
        assert by_shard["nyc_random"].attempts == 2
        # ... and its checkpoint survived for a future --resume.
        assert shard_checkpoint_path(tmp_path, "fig4", MICRO, "bj_random").exists()
        assert not shard_checkpoint_path(tmp_path, "fig4", MICRO, "nyc_random").exists()

    def test_serial_fallback_after_persistent_crashes(self, serial_rows):
        """The BrokenProcessPool analogue: finish the shard in the parent."""
        plan = WorkerFaultPlan(
            overrides=(("nyc_random", "crash"),), max_faults_per_shard=99
        )
        result = run_sharded(
            "fig4", MICRO, shards=SHARDS, max_workers=2, serial_fallback=True,
            fault_plan=plan, policy=ShardPolicy(retries=1, serial_fallback=True, **FAST),
            **KW,
        )
        assert result.rows == serial_rows
        report = _reports_by_shard(result)["nyc_random"]
        assert report["status"] == "retried"
        assert report["serial_fallback"] is True
        assert report["attempts"] == 3  # two dead workers + the in-parent run

    def test_failed_worker_exception_reaches_the_report(self):
        plan = WorkerFaultPlan(overrides=(("bj_random", "error"),), max_faults_per_shard=99)
        with pytest.raises(ShardError) as excinfo:
            run_sharded(
                "fig4", MICRO, shards=("bj_random",), max_workers=1,
                fault_plan=plan, policy=ShardPolicy(**FAST), **KW,
            )
        (report,) = excinfo.value.reports
        assert report.status == "failed"
        assert "injected worker fault" in report.error
        assert "TransientError" in report.traceback


class TestShardResume:
    def test_resume_reruns_only_incomplete_shards_bit_identically(
        self, serial_rows, tmp_path
    ):
        """The SIGKILL-mid-sweep scenario: one shard checkpointed, one not."""
        plan = WorkerFaultPlan(
            overrides=(("nyc_random", "error"),), max_faults_per_shard=99
        )
        with pytest.raises(ShardError):
            run_sharded(
                "fig4", MICRO, shards=SHARDS, max_workers=2, out=tmp_path,
                fault_plan=plan, policy=ShardPolicy(**FAST), **KW,
            )
        result = run_sharded(
            "fig4", MICRO, shards=SHARDS, max_workers=2, out=tmp_path, resume=True,
            policy=ShardPolicy(**FAST), **KW,
        )
        assert result.rows == serial_rows  # resumed == uninterrupted, row for row
        reports = _reports_by_shard(result)
        assert reports["bj_random"]["status"] == "resumed"
        assert reports["bj_random"]["attempts"] == 0  # never relaunched
        assert reports["nyc_random"]["status"] == "ok"
        assert "resume" in _journal_events(tmp_path)

    def test_resume_after_parent_sigkill(self, serial_rows, tmp_path):
        """SIGKILL the supervising process itself; resume finishes the sweep.

        Shard A completes and checkpoints; shard B hangs (no timeout), so
        the sweep stalls deterministically — then the whole parent is
        SIGKILLed, exactly like an operator's OOM or a preempted node.
        """
        import signal
        import subprocess
        import sys
        import time as _time

        script = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parents[2] / "src")!r})
from repro.experiments.parallel import run_sharded
from repro.experiments.scale import ExperimentScale
from repro.experiments.supervisor import ShardPolicy, WorkerFaultPlan

scale = ExperimentScale(name="ci", n_targets=12, n_train=50, n_validation=20,
                        n_area_samples=1_000, n_taxis=10, n_users=8, seed=5)
plan = WorkerFaultPlan(overrides=(("nyc_random", "hang"),), hang_s=10.0,
                       max_faults_per_shard=99)
run_sharded("fig4", scale, shards=("bj_random", "nyc_random"), max_workers=1,
            out={str(tmp_path)!r}, fault_plan=plan,
            policy=ShardPolicy(poll_interval_s=0.01, heartbeat_interval_s=0.05),
            radii=(1_000.0,), epsilons=(0.1,))
"""
        proc = subprocess.Popen([sys.executable, "-c", script])
        ckpt_a = shard_checkpoint_path(tmp_path, "fig4", MICRO, "bj_random")
        deadline = _time.monotonic() + 60
        try:
            while not ckpt_a.exists():  # max_workers=1: A finishes, then B hangs
                assert proc.poll() is None, "sweep exited before it could be killed"
                assert _time.monotonic() < deadline, "shard A never checkpointed"
                _time.sleep(0.02)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        result = run_sharded(
            "fig4", MICRO, shards=SHARDS, max_workers=2, out=tmp_path, resume=True,
            policy=ShardPolicy(**FAST), **KW,
        )
        assert result.rows == serial_rows
        reports = _reports_by_shard(result)
        assert reports["bj_random"]["status"] == "resumed"
        assert reports["nyc_random"]["status"] == "ok"  # the only shard re-run

    def test_resume_ignores_checkpoints_from_different_kwargs(self, tmp_path):
        run_sharded(
            "fig4", MICRO, shards=("bj_random",), max_workers=1, out=tmp_path,
            policy=ShardPolicy(**FAST), **KW,
        )
        result = run_sharded(
            "fig4", MICRO, shards=("bj_random",), max_workers=1, out=tmp_path,
            resume=True, policy=ShardPolicy(**FAST),
            radii=(500.0,), epsilons=(0.1,),  # different grid: checkpoint must not match
        )
        assert _reports_by_shard(result)["bj_random"]["status"] == "ok"

    def test_resume_without_out_is_a_config_error(self):
        with pytest.raises(ConfigError):
            supervise_shards(
                "fig4", MICRO, SHARDS, "datasets", KW, max_workers=1,
                resume=True,
            )

    def test_run_many_clears_subsumed_shard_checkpoints(self, tmp_path):
        from repro.experiments.results import ExperimentResult
        from repro.experiments.runner import run_many, write_checkpoint

        stale = shard_checkpoint_path(tmp_path, "alpha", MICRO, "bj_random")
        write_checkpoint(stale, {"experiment_id": "alpha", "result": {}})
        summary = run_many(
            ["alpha"], MICRO, out=tmp_path,
            run_fn=lambda eid, scale: ExperimentResult(experiment_id=eid, title="stub"),
        )
        assert summary.exit_code == 0
        assert not stale.exists()  # subsumed by the experiment-level checkpoint

    def test_clear_shard_checkpoints_counts(self, tmp_path):
        from repro.experiments.runner import write_checkpoint

        for shard in SHARDS:
            write_checkpoint(
                shard_checkpoint_path(tmp_path, "fig4", MICRO, shard), {"result": {}}
            )
        assert clear_shard_checkpoints(tmp_path, "fig4", MICRO) == 2
        assert clear_shard_checkpoints(tmp_path, "fig4", MICRO) == 0


class TestChaosSweep:
    """The acceptance scenario and the seeded chaos sweep."""

    def test_one_crashed_one_hung_shard_sweep_still_completes(self, serial_rows, tmp_path):
        plan = WorkerFaultPlan(
            overrides=(("bj_random", "crash"), ("nyc_random", "hang")),
            hang_s=60.0,
            max_faults_per_shard=1,
        )
        result = run_sharded(
            "fig4", MICRO, shards=SHARDS, max_workers=2, out=tmp_path, fault_plan=plan,
            policy=ShardPolicy(timeout_s=0.5, retries=1, **FAST), **KW,
        )
        assert result.rows == serial_rows
        reports = _reports_by_shard(result)
        assert reports["bj_random"]["status"] == "retried"
        assert reports["nyc_random"]["status"] == "retried"
        events = _journal_events(tmp_path)
        assert "crashed" in events and "timed_out" in events

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_seeded_chaos_is_deterministically_survivable(self, serial_rows, seed):
        """Any seed's fault timeline must end in a complete, correct sweep."""
        plan = WorkerFaultPlan(
            crash_rate=0.3, hang_rate=0.2, error_rate=0.3,
            seed=seed, max_faults_per_shard=1, hang_s=30.0,
        )
        result = run_sharded(
            "fig4", MICRO, shards=SHARDS, max_workers=2, fault_plan=plan,
            policy=ShardPolicy(timeout_s=1.0, retries=1, **FAST), **KW,
        )
        assert result.rows == serial_rows
        for report in _reports_by_shard(result).values():
            assert report["status"] in ("ok", "retried")


class TestReportShape:
    def test_report_ok_property(self):
        assert ShardReport(shard="x", status="ok").ok
        assert ShardReport(shard="x", status="retried").ok
        assert ShardReport(shard="x", status="resumed").ok
        assert not ShardReport(shard="x", status="timed_out").ok

    def test_provenance_records_policy_and_mode(self, tmp_path):
        result = run_sharded(
            "fig4", MICRO, shards=("bj_random",), max_workers=1, out=tmp_path,
            policy=ShardPolicy(retries=2, **FAST), **KW,
        )
        sharding = result.provenance["sharding"]
        assert sharding["max_workers"] == 1
        assert sharding["policy"]["retries"] == 2
        assert len(sharding["shards"]) == 1

    def test_fork_start_method_assumed_by_fault_tests(self):
        # Documents the assumption: injected-fault workers rely on the
        # plan crossing the process boundary, which any start method
        # supports (the plan is picklable) — verify that invariant.
        import pickle

        plan = WorkerFaultPlan(crash_rate=0.5, overrides=(("a", "hang"),))
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert multiprocessing.get_context() is not None
