"""The ISSUE acceptance path: ENOSPC during serve degrades to typed
503 + Retry-After refusals, the ledger stays consistent, and a clean
restart picks up where the disk left off."""

import errno

from repro.core.vfs import DiskFaultPlan, FaultyVFS, install_vfs
from repro.dp.mechanisms import PrivacyParams
from repro.serve import ReleaseRequest, ReleaseService, ServeConfig


def make_service(db, tmp_path, **cfg):
    defaults = dict(
        queue_capacity=32,
        n_workers=1,
        batch_max=8,
        batch_wait_s=0.002,
        poll_interval_s=0.01,
        deadline_s=5.0,
        retry_after_s=0.25,
        disk_retry_after_s=30.0,  # long horizon: no flaky expiry mid-test
    )
    defaults.update(cfg)
    return ReleaseService(
        db,
        PrivacyParams(50.0, 0.0),
        config=ServeConfig(**defaults),
        ledger_dir=str(tmp_path / "ledger"),
        seed=11,
    )


def request(user="alice", defense="laplace"):
    return ReleaseRequest(user_id=user, x=500.0, y=500.0, radius=150.0, defense=defense)


def full_disk():
    """Every WAL write refuses with ENOSPC; everything else is healthy."""
    return FaultyVFS(
        DiskFaultPlan(enospc_rate=1.0, path_substring="ledger.wal")
    )


def test_enospc_degrades_to_unavailable_and_restart_is_clean(db, tmp_path):
    service = make_service(db, tmp_path)
    with service:
        # Healthy disk: a charged release completes and is durably spent.
        assert service.submit(request()).status == "queued"
        assert service.drain(10.0)
        assert service.ledger.stats()["n_granted"] == 1

        with install_vfs(full_disk()):
            # Queued before the pressure is visible; the dispatch-time
            # charge hits ENOSPC and fails the job without committing.
            racing = service.submit(request())
            assert racing.status == "queued"
            assert service.drain(10.0)
            job = service.job(racing.job.job_id)
            assert job.fate == "failed"
            assert "disk" in (job.error or "").lower()

            # Admission now refuses charged work up front: 503-shaped
            # outcome with a Retry-After horizon, journalled as such.
            refused = service.submit(request())
            assert refused.status == "unavailable"
            assert refused.job is None  # no job was created
            assert refused.retry_after_s is not None
            assert 0 < refused.retry_after_s <= 30.0

            # Uncharged work keeps flowing under the same full disk.
            raw = service.submit(request(defense="raw"))
            assert raw.status == "queued"
            assert service.drain(10.0)
            assert service.job(raw.job.job_id).fate == "completed"

        counters = service.store.counters
        assert counters.completed == 2 and counters.failed == 1
        assert counters.consistent()
        # Nothing was committed for the failed/refused submits.
        assert service.ledger.stats()["n_granted"] == 1

    # The disk recovered and the process restarted: the reopened ledger
    # replays to exactly the acknowledged spend, and service resumes.
    restarted = make_service(db, tmp_path)
    assert restarted.ledger.user_state("alice")["spent_epsilon"] == 1.0
    with restarted:
        assert restarted.submit(request()).status == "queued"
        assert restarted.drain(10.0)
    assert restarted.ledger.user_state("alice")["spent_epsilon"] == 2.0


def test_unavailable_submits_do_not_leak_jobs_or_budget(db, tmp_path):
    service = make_service(db, tmp_path)
    with service:
        with install_vfs(full_disk()):
            first = service.submit(request())
            assert service.drain(10.0)
            for _ in range(5):
                assert service.submit(request()).status == "unavailable"
        assert service.job(first.job.job_id).fate == "failed"
    stats = service.ledger.stats()
    assert stats["n_granted"] == 0
    counters = service.store.counters
    assert counters.failed == 1
    assert counters.consistent()


def test_enospc_error_is_typed_all_the_way_down(db, tmp_path):
    """The DiskPressureError the ledger raises carries the errno, so the
    journal and operators can tell a full disk from a dying one."""
    from repro.core.errors import DiskPressureError

    service = make_service(db, tmp_path)
    try:
        with install_vfs(full_disk()):
            try:
                service.ledger.spend("alice", 1.0)
            except DiskPressureError as exc:
                assert exc.errno == errno.ENOSPC
            else:
                raise AssertionError("full disk accepted a spend")
    finally:
        service.ledger.close()


def test_refused_journal_open_starts_the_service_with_its_journal_off(db, tmp_path):
    """A disk that refuses the journal costs the journal, not the service."""
    refusing = FaultyVFS(DiskFaultPlan(enospc_rate=1.0, path_substring="serve.jsonl"))
    with install_vfs(refusing):
        service = ReleaseService(
            db,
            PrivacyParams(50.0, 0.0),
            config=ServeConfig(n_workers=1, batch_wait_s=0.002, poll_interval_s=0.01),
            ledger_dir=str(tmp_path / "ledger"),
            journal_path=str(tmp_path / "serve.jsonl"),
            seed=11,
        )
        with service:
            outcome = service.submit(request())
            assert outcome.status == "queued"
            assert service.drain(10.0)
            assert service.job(outcome.job.job_id).fate == "completed"
            journal = service.status()["journal"]
    assert journal["enabled"] is False
    assert journal["disabled_reason"].startswith("journal open refused")
    assert str(errno.ENOSPC) in journal["disabled_reason"]
    assert service.ledger.stats()["n_granted"] == 1
