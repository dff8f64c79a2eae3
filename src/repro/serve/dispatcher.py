"""The micro-batching dispatcher: queue → ledger → batch engine → fates.

Concurrent requests arriving over the wire are funnelled into the PR 2
batch engine: a worker drains up to ``batch_max`` requests from the
admission queue (waiting at most ``batch_wait_s`` after the first),
charges the whole batch against the budget ledger with one durable WAL
append, answers all of its ``Freq`` geometry with one
:meth:`~repro.poi.database.POIDatabase.freq_batch` call per radius
group, and (optionally) audits the completed releases in bulk with
:meth:`~repro.attacks.region.RegionAttack.run_batch`.

Robustness model per batch attempt:

* requests past their deadline are shed before any work is spent;
* the ledger commit happens *before* compute — a refusal is terminal
  (fate ``refused``), and a crash after the commit can only over-count;
* a worker crash (injected or real) feeds the circuit breaker and
  re-enqueues the affected jobs for a bounded number of attempts, after
  which they fail terminally;
* a mid-commit kill fails the batch terminally without a refund —
  the kill-and-restart suite proves the ledger stays sound across it.

Every blocking dequeue carries a timeout (rule PL008), so shutdown and
shedding can always intervene.
"""

from __future__ import annotations

import queue as queue_module
import threading
from dataclasses import dataclass

import numpy as np

from repro.attacks.base import Release
from repro.attacks.region import RegionAttack
from repro.core.clock import Clock
from repro.core.errors import (
    ConfigError,
    DiskPressureError,
    MidCommitKillFault,
    WorkerCrashFault,
)
from repro.core.events import EventLog
from repro.core.rng import derive_rng
from repro.defense.base import Defense
from repro.defense.laplace_release import LaplaceHistogramDefense
from repro.defense.sanitization import Sanitizer
from repro.geo.point import Point
from repro.poi.database import POIDatabase
from repro.serve.config import ServeConfig
from repro.serve.faults import ServeFaultInjector
from repro.serve.jobs import Job, JobStore
from repro.serve.ledger import BudgetLedger
from repro.serve.shedding import LoadShedder, ShedLevel

__all__ = ["DefenseSpec", "MicroBatchDispatcher"]

#: Post-processing modes a spec can use against batched Freq rows.
_MODES = ("raw", "sanitize", "noise", "release")


@dataclass(frozen=True)
class DefenseSpec:
    """How the service serves (and charges) one defense kind.

    ``mode`` selects the batch path: ``raw`` releases the Freq row
    verbatim, ``sanitize`` post-processes it with
    :meth:`~repro.defense.sanitization.Sanitizer.sanitize_vector`,
    ``noise`` with
    :meth:`~repro.defense.laplace_release.LaplaceHistogramDefense.apply`
    (the mechanism call stays inside the defense layer), and
    ``release`` falls back to per-request ``Defense.release`` for
    arbitrary mechanisms the batch engine cannot amortize.
    ``(epsilon, delta)`` is the per-release ledger charge; zero-cost
    kinds (non-DP releases) skip the ledger entirely.
    """

    kind: str
    mode: str
    epsilon: float = 0.0
    delta: float = 0.0
    defense: "Defense | None" = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"unknown defense mode {self.mode!r}; expected {_MODES}")
        if self.mode != "raw" and self.defense is None:
            raise ConfigError(f"defense kind {self.kind!r} (mode {self.mode}) needs a defense")
        if self.mode == "sanitize" and not isinstance(self.defense, Sanitizer):
            raise ConfigError(f"mode 'sanitize' needs a Sanitizer, got {type(self.defense)}")
        if self.mode == "noise" and not isinstance(self.defense, LaplaceHistogramDefense):
            raise ConfigError(
                f"mode 'noise' needs a LaplaceHistogramDefense, got {type(self.defense)}"
            )
        if self.epsilon < 0 or self.delta < 0:
            raise ConfigError(f"spec cost must be non-negative, got ({self.epsilon}, {self.delta})")

    @property
    def charged(self) -> bool:
        return self.epsilon > 0 or self.delta > 0


class MicroBatchDispatcher:
    """Worker threads turning queued jobs into terminal fates."""

    def __init__(
        self,
        *,
        database: POIDatabase,
        jobs: "queue_module.Queue[Job]",
        store: JobStore,
        ledger: BudgetLedger,
        shedder: LoadShedder,
        specs: dict[str, DefenseSpec],
        config: ServeConfig,
        clock: Clock,
        journal: EventLog,
        seed: int,
        injector: "ServeFaultInjector | None" = None,
    ) -> None:
        self._db = database
        self._queue = jobs
        self._store = store
        self._ledger = ledger
        self._shedder = shedder
        self._specs = specs
        self._config = config
        self._clock = clock
        self._journal = journal
        self._seed = seed
        self._injector = injector
        self._attack = RegionAttack(database) if config.attack_audit else None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._heartbeat_lock = threading.Lock()
        self._last_heartbeat = clock.now()
        self.n_batches = 0
        self.n_requeues = 0
        self.n_disk_pressure = 0
        #: Clock time until which charged admissions are refused because
        #: the ledger's disk refused an append (503 + Retry-After); the
        #: first charged batch after the horizon probes the disk again.
        self._disk_pressure_until = 0.0

    @property
    def disk_pressure_retry_after(self) -> "float | None":
        """Seconds to advertise in Retry-After, or ``None`` if healthy."""
        remaining = self._disk_pressure_until - self._clock.now()
        return remaining if remaining > 0 else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            raise ConfigError("dispatcher already started")
        self._stop.clear()
        for index in range(self._config.n_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"poiagg-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout_s: float = 10.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self._threads = []

    def drain(self, timeout_s: float) -> bool:
        """Wait (bounded) until every accepted job has a terminal fate."""
        deadline = self._clock.now() + timeout_s
        while self._clock.now() < deadline:
            if self._store.pending_count() == 0:
                return True
            self._clock.sleep(min(0.005, self._config.poll_interval_s))
        return self._store.pending_count() == 0

    def shed_remaining(self, reason: str) -> int:
        """Finalize every still-queued job as shed (shutdown path)."""
        n = 0
        while True:
            try:
                job = self._queue.get(timeout=0.001)
            except queue_module.Empty:
                return n
            if not job.terminal:
                self._store.finalize(job, "shed", error=reason)
                self._journal.event("shed", job_id=job.job_id, reason=reason)
                n += 1

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=self._config.poll_interval_s)
            except queue_module.Empty:
                self._maybe_heartbeat()
                continue
            batch = [first]
            wait_deadline = self._clock.now() + self._config.batch_wait_s
            while len(batch) < self._config.batch_max:
                remaining = wait_deadline - self._clock.now()
                if remaining <= 0:
                    break
                try:
                    batch.append(self._queue.get(timeout=remaining))
                except queue_module.Empty:
                    break
            self._process_batch(batch)
            self._maybe_heartbeat()

    def _maybe_heartbeat(self) -> None:
        if not self._journal.enabled:
            return
        now = self._clock.now()
        with self._heartbeat_lock:
            if now - self._last_heartbeat < self._config.heartbeat_interval_s:
                return
            self._last_heartbeat = now
        self._journal.event(
            "heartbeat",
            ladder=self._shedder.snapshot(self._queue.qsize()),
            fates=self._store.counters.as_dict(),
            ledger=self._ledger.stats(),
            n_batches=self.n_batches,
        )

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------

    def _process_batch(self, batch: list[Job]) -> None:
        self.n_batches += 1
        # Backlog includes the batch in hand: it was queue depth a moment
        # ago, and draining it into a local list must not hide pressure.
        level = self._shedder.level(self._queue.qsize() + len(batch))
        ready = self._shed_expired(batch)
        if not ready:
            return
        try:
            if self._injector is not None:
                self._injector.before_batch()  # may crash, hang, or stall
        except WorkerCrashFault as exc:
            self._crash(ready, exc)
            return
        # A hang/stall may have outlived some deadlines; re-check.
        ready = self._shed_expired(ready)
        if not ready:
            return
        granted = self._charge(ready, level)
        if not granted:
            return
        try:
            results = self._compute(granted)
            if self._injector is not None:
                self._injector.mid_commit()
            self._audit(granted, results)
        except MidCommitKillFault as exc:
            # The spends are durable but the responses never leave: the
            # jobs fail terminally and the budget is NOT refunded (a
            # refund could double-spend if a release had escaped).
            self._shedder.record_failure()
            for job in granted:
                self._store.finalize(job, "failed", error=str(exc))
                self._journal.event("failed", job_id=job.job_id, reason="mid-commit kill")
            return
        except Exception as exc:  # crash isolation: the worker survives
            self._crash(granted, exc)
            return
        now = self._clock.now()
        for job, vector in zip(granted, results):
            # The taint pass flags this: under a spec whose kind is "raw",
            # vector is an unsanitized Freq row crossing the release
            # boundary. That is the documented contract — "raw" is an
            # explicitly configured menu entry (experiments/audits), the
            # spec menu is the sanctioned gate, and production menus omit
            # it (docs/serving.md). Every other kind arrives here already
            # sanitized by spec.defense with its spend charged upstream.
            self._store.finalize(job, "completed", result=vector)  # poiagg: disable=PL011
            self._journal.event(
                "completed",
                job_id=job.job_id,
                degraded=job.degraded,
                attempts=job.attempts,
            )
            self._shedder.observe_latency(now - job.submitted_at)
        self._shedder.record_success()

    def _shed_expired(self, batch: list[Job]) -> list[Job]:
        now = self._clock.now()
        ready: list[Job] = []
        for job in batch:
            if now > job.deadline_at:
                self._store.finalize(job, "shed", error="deadline exceeded before dispatch")
                self._journal.event("shed", job_id=job.job_id, reason="deadline")
            else:
                ready.append(job)
        return ready

    def _effective_spec(self, job: Job, level: ShedLevel) -> DefenseSpec:
        spec = self._specs[job.request.defense]
        if level >= ShedLevel.DEGRADED and spec.mode in ("noise", "release"):
            degraded = self._specs.get("sanitize")
            if degraded is not None:
                if not job.degraded:
                    job.degraded = True
                    self._shedder.count_degraded()
                return degraded
        return spec

    def _charge(self, ready: list[Job], level: ShedLevel) -> list[Job]:
        """Commit the batch's budget spends; refusals are terminal."""
        granted: list[Job] = []
        to_spend: list[tuple[Job, DefenseSpec]] = []
        for job in ready:
            spec = self._effective_spec(job, level)
            if job.charged or not spec.charged:
                granted.append(job)
            else:
                to_spend.append((job, spec))
        if to_spend:
            try:
                outcomes = self._ledger.spend_batch(
                    [
                        (job.request.user_id, spec.epsilon, spec.delta)
                        for job, spec in to_spend
                    ]
                )
            except DiskPressureError as exc:
                # Nothing was committed — durably or in memory — so the
                # charged jobs fail cleanly while uncharged work (raw /
                # sanitize) keeps flowing.  Admission refuses charged
                # submits with 503 + Retry-After until the horizon.
                self.n_disk_pressure += 1
                self._disk_pressure_until = (
                    self._clock.now() + self._config.disk_retry_after_s
                )
                self._shedder.record_failure()
                for job, _spec in to_spend:
                    self._store.finalize(job, "failed", error=str(exc))
                    self._journal.event(
                        "failed", job_id=job.job_id, reason="disk pressure"
                    )
                return granted
            for (job, spec), refusal in zip(to_spend, outcomes):
                if refusal is None:
                    job.charged = True
                    granted.append(job)
                else:
                    self._store.finalize(job, "refused", error=str(refusal))
                    self._journal.event(
                        "refused",
                        job_id=job.job_id,
                        user_id=job.request.user_id,
                        payload=refusal.payload(),
                    )
        return granted

    def _compute(self, granted: list[Job]) -> list[np.ndarray]:
        """Answer the batch's geometry with freq_batch, then post-process."""
        results: dict[str, np.ndarray] = {}
        # Group the batchable jobs by radius: one freq_batch per group.
        by_radius: dict[float, list[Job]] = {}
        for job in granted:
            spec = self._current_spec(job)
            if spec.mode == "release":
                assert spec.defense is not None
                rng = derive_rng(self._seed, "serve-job", job.job_id, job.attempts)
                results[job.job_id] = spec.defense.release(
                    self._db,
                    Point(job.request.x, job.request.y),
                    job.request.radius,
                    rng,
                )
            else:
                by_radius.setdefault(job.request.radius, []).append(job)
        for radius, group in by_radius.items():
            coords = np.array(
                [[job.request.x, job.request.y] for job in group], dtype=float
            )
            rows = self._db.freq_batch(coords, radius)
            for job, row in zip(group, rows):
                spec = self._current_spec(job)
                if spec.mode == "raw":
                    results[job.job_id] = row
                elif spec.mode == "sanitize":
                    assert isinstance(spec.defense, Sanitizer)
                    results[job.job_id] = spec.defense.sanitize_vector(row)
                else:  # noise
                    assert isinstance(spec.defense, LaplaceHistogramDefense)
                    rng = derive_rng(self._seed, "serve-job", job.job_id, job.attempts)
                    results[job.job_id] = spec.defense.apply(row, rng)
        return [results[job.job_id] for job in granted]

    def _current_spec(self, job: Job) -> DefenseSpec:
        if job.degraded:
            return self._specs["sanitize"]
        return self._specs[job.request.defense]

    def _audit(self, granted: list[Job], results: list[np.ndarray]) -> None:
        """Bulk re-identification audit via the batched region attack."""
        if self._attack is None:
            return
        releases = [
            Release(vector, job.request.radius)
            for job, vector in zip(granted, results)
        ]
        outcomes = self._attack.run_batch(releases)
        for job, outcome in zip(granted, outcomes):
            job.reidentified = outcome.success

    def _crash(self, jobs: list[Job], exc: BaseException) -> None:
        """Bounded-retry crash handling: requeue or fail terminally."""
        self._shedder.record_failure()
        self._journal.event("crash", error=str(exc), n_jobs=len(jobs))
        now = self._clock.now()
        for job in jobs:
            job.attempts += 1
            if job.attempts >= self._config.max_attempts:
                self._store.finalize(
                    job,
                    "failed",
                    error=f"{self._config.max_attempts} attempts exhausted: {exc}",
                )
                self._journal.event("failed", job_id=job.job_id, reason="retries exhausted")
            elif now > job.deadline_at:
                self._store.finalize(job, "shed", error="deadline exceeded after crash")
                self._journal.event("shed", job_id=job.job_id, reason="deadline")
            else:
                try:
                    self._queue.put_nowait(job)
                    self.n_requeues += 1
                except queue_module.Full:
                    self._store.finalize(
                        job, "failed", error=f"requeue refused (queue full) after: {exc}"
                    )
                    self._journal.event("failed", job_id=job.job_id, reason="requeue full")
