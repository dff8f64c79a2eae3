"""ReleaseService admission, dispatch, and fate-accounting tests."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigError
from repro.dp.mechanisms import PrivacyParams
from repro.serve import ReleaseRequest, ReleaseService, ServeConfig
from repro.serve.faults import ServeFaultPlan


def make_service(db, tmp_path=None, *, budget_eps=50.0, fault_plan=None, **cfg):
    defaults = dict(
        queue_capacity=32,
        n_workers=1,
        batch_max=8,
        batch_wait_s=0.002,
        poll_interval_s=0.01,
        deadline_s=5.0,
        retry_after_s=0.25,
    )
    defaults.update(cfg)
    return ReleaseService(
        db,
        PrivacyParams(budget_eps, 0.0),
        config=ServeConfig(**defaults),
        ledger_dir=None if tmp_path is None else str(tmp_path),
        seed=11,
        fault_plan=fault_plan,
    )


def request(user="alice", defense="laplace", x=500.0, y=500.0, radius=150.0):
    return ReleaseRequest(user_id=user, x=x, y=y, radius=radius, defense=defense)


def test_unknown_defense_is_a_config_error(db):
    service = make_service(db)
    with pytest.raises(ConfigError):
        service.submit(request(defense="nonesuch"))
    service.stop()


def test_happy_path_completes_with_result(db):
    with make_service(db) as service:
        outcome = service.submit(request())
        assert outcome.status == "queued"
        assert service.drain(10.0)
        job = service.job(outcome.job.job_id)
        assert job.fate == "completed"
        assert job.result is not None
        assert job.result.shape == (db.n_types,)
        assert job.latency_s is not None and job.latency_s >= 0
    assert service.store.counters.consistent()


def test_raw_and_sanitize_are_not_charged(db):
    with make_service(db) as service:
        service.submit(request(defense="raw"))
        service.submit(request(defense="sanitize"))
        assert service.drain(10.0)
        assert service.ledger.stats()["n_granted"] == 0
        assert service.store.counters.completed == 2


def test_budget_refusal_at_admission_is_a_typed_429(db, tmp_path):
    service = make_service(db, tmp_path, budget_eps=1.0)
    with service:
        first = service.submit(request())
        assert first.status == "queued"
        assert service.drain(10.0)
        second = service.submit(request())
        assert second.status == "refused"
        assert second.payload["error"] == "BudgetExhausted"
        assert second.payload["user_id"] == "alice"
        # The refused submit is accepted and terminally refused.
        assert service.job(second.job.job_id).fate == "refused"
    counters = service.store.counters
    assert counters.completed == 1 and counters.refused == 1
    assert counters.consistent()


def test_dispatch_time_refusal_when_admission_raced(db):
    """Jobs queued before the budget ran dry are refused at commit time."""
    service = make_service(db, budget_eps=2.0)
    # Submit while the dispatcher is stopped: the advisory pre-check sees
    # an untouched ledger for every submit, so all four jobs queue.
    for _ in range(4):
        assert service.submit(request()).status == "queued"
    with service:
        assert service.drain(10.0)
    counters = service.store.counters
    assert counters.completed == 2
    assert counters.refused == 2
    assert counters.consistent()


def test_backpressure_rejects_without_creating_jobs(db):
    service = make_service(db, queue_capacity=4, refuse_queue_ratio=2.0,
                           degrade_queue_ratio=2.0)
    # Dispatcher not started: the queue can only fill.
    outcomes = [service.submit(request(user=f"u{i}")) for i in range(8)]
    statuses = [o.status for o in outcomes]
    assert statuses.count("queued") == 4
    assert statuses.count("rejected") == 4
    rejected = [o for o in outcomes if o.status == "rejected"]
    assert all(o.retry_after_s == 0.25 for o in rejected)
    assert all(o.job is None for o in rejected)
    counters = service.store.counters
    assert counters.accepted == 4 and counters.rejected == 4
    with service:  # drain the four queued jobs
        assert service.drain(10.0)
    assert service.store.counters.consistent()


def test_open_breaker_sheds_at_admission(db):
    service = make_service(db)
    for _ in range(service.config.breaker_failure_threshold):
        service.shedder.record_failure()
    outcome = service.submit(request())
    assert outcome.status == "shed"
    assert outcome.retry_after_s == 0.25
    assert service.job(outcome.job.job_id).fate == "shed"
    status = service.status()
    assert status["ladder"]["level_name"] == "refuse"
    assert status["ladder"]["breaker"]["state"] == "open"
    assert service.store.counters.consistent()
    service.stop()


def test_degraded_rung_swaps_to_sanitizer(db):
    service = make_service(
        db, queue_capacity=10, degrade_queue_ratio=0.1, refuse_queue_ratio=5.0
    )
    # Queue three laplace jobs before starting: depth 3/10 > 0.1 puts the
    # ladder on the degraded rung when the dispatcher picks them up.
    jobs = [service.submit(request(user=f"u{i}")) for i in range(3)]
    with service:
        assert service.drain(10.0)
    degraded = [service.job(o.job.job_id) for o in jobs]
    assert all(j.fate == "completed" for j in degraded)
    assert any(j.degraded for j in degraded)
    # Degraded jobs were served by the sanitizer: nothing was charged.
    charged = service.ledger.stats()["n_granted"]
    assert charged < len(jobs)
    assert service.shedder.n_degraded > 0


def test_expired_deadline_is_shed_not_served(db):
    import time

    service = make_service(db, deadline_s=0.01)
    outcome = service.submit(request())
    assert outcome.status == "queued"
    time.sleep(0.05)  # the deadline expires before the dispatcher starts
    with service:
        assert service.drain(10.0)
    assert service.job(outcome.job.job_id).fate == "shed"
    assert service.store.counters.consistent()


def test_worker_crashes_exhaust_retries_into_failed(db):
    plan = ServeFaultPlan(worker_crash_rate=1.0)
    service = make_service(db, fault_plan=plan, max_attempts=2)
    with service:
        outcome = service.submit(request())
        assert service.drain(10.0)
    job = service.job(outcome.job.job_id)
    assert job.fate == "failed"
    assert job.attempts == 2
    assert "attempts exhausted" in job.error
    assert service.injector.counts["crash"] >= 2
    assert service.store.counters.consistent()


def test_mid_commit_kill_fails_without_refund(db, tmp_path):
    plan = ServeFaultPlan(mid_commit_kill_rate=1.0)
    service = make_service(db, tmp_path, budget_eps=10.0, fault_plan=plan)
    with service:
        outcome = service.submit(request())
        assert service.drain(10.0)
    job = service.job(outcome.job.job_id)
    assert job.fate == "failed"
    # The spend is durable and NOT refunded: the worst crash window
    # burns budget but can never double-spend.
    assert service.ledger.user_state("alice")["spent_epsilon"] == pytest.approx(1.0)
    assert service.store.counters.consistent()


def test_shutdown_sheds_undrained_jobs(db):
    service = make_service(db)
    for i in range(5):
        service.submit(request(user=f"u{i}"))
    # Never started: stop() must still give every accepted job a fate.
    service.stop(drain_timeout_s=0.0)
    counters = service.store.counters
    assert counters.shed == 5
    assert counters.consistent()


def test_status_document_shape(db):
    with make_service(db) as service:
        service.submit(request())
        assert service.drain(10.0)
        status = service.status()
    assert set(status) >= {
        "fates", "ladder", "ledger", "queue_depth", "n_batches", "defenses"
    }
    assert status["fates"]["completed"] == 1
    assert "breaker" in status["ladder"]
    assert status["defenses"] == ["laplace", "raw", "sanitize"]


def test_micro_batching_groups_requests(db):
    service = make_service(db, batch_max=16, batch_wait_s=0.05)
    for i in range(16):
        service.submit(request(user=f"u{i}", defense="raw"))
    with service:
        assert service.drain(10.0)
    # 16 requests queued ahead of the first dequeue collapse into far
    # fewer batch attempts than per-request dispatch would take.
    assert service.dispatcher.n_batches <= 4
    assert service.store.counters.completed == 16
