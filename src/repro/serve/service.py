"""The release service: admission control in front of the dispatcher.

:class:`ReleaseService` is the transport-agnostic core that the HTTP
edge (:mod:`repro.serve.httpapi`), the CLI, and the tests all drive.
Its admission path decides, synchronously, one of four things about
every submit:

* **rejected** — the bounded queue is full (backpressure).  The caller
  gets a retry-after hint; no job is created and nothing is counted as
  accepted.
* **refused** — the user's budget ledger cannot cover the requested
  defense.  The request *is* accepted (it becomes a job) and refusal is
  its terminal fate, reported with the typed ``BudgetExhausted``
  payload — the HTTP 429 analog.
* **shed** — the load-shedding ladder is on its refuse rung.  Accepted,
  terminally shed, retry-after hinted.
* **queued** — the job enters the micro-batching dispatcher and will
  reach its terminal fate asynchronously.

The admission-time budget check is advisory (it never writes the WAL);
the authoritative charge happens in the dispatcher just before compute,
so a race between two submits for the same user's last epsilon is
settled durably in exactly one place.
"""

from __future__ import annotations

import queue as queue_module
from dataclasses import dataclass
from typing import Any

from repro.core.clock import Clock, SystemClock
from repro.core.errors import ConfigError
from repro.core.events import EventLog
from repro.core.rng import derive_rng
from repro.defense.laplace_release import LaplaceHistogramDefense
from repro.defense.sanitization import Sanitizer
from repro.dp.mechanisms import PrivacyParams
from repro.poi.database import POIDatabase
from repro.serve.config import ServeConfig
from repro.serve.dispatcher import DefenseSpec, MicroBatchDispatcher
from repro.serve.faults import ServeFaultInjector, ServeFaultPlan
from repro.serve.jobs import Job, JobStore, ReleaseRequest
from repro.serve.ledger import BudgetLedger
from repro.serve.shedding import LoadShedder, ShedLevel

__all__ = ["DefenseSpec", "ReleaseService", "SubmitOutcome", "build_default_specs"]


@dataclass(frozen=True)
class SubmitOutcome:
    """What the admission path decided about one submit."""

    status: str  # "queued" | "rejected" | "refused" | "shed" | "unavailable"
    job: "Job | None" = None
    retry_after_s: "float | None" = None
    payload: "dict[str, Any] | None" = None

    @property
    def accepted(self) -> bool:
        return self.job is not None


def build_default_specs(
    database: POIDatabase, *, epsilon: float = 1.0, sanitize_threshold: int = 10
) -> dict[str, DefenseSpec]:
    """The stock defense menu: raw, sanitize, and laplace.

    ``laplace`` is the only budgeted kind (pure epsilon-DP at *epsilon*
    per release); ``sanitize`` doubles as the ladder's degraded rung.
    """
    sanitizer = Sanitizer(database, threshold=sanitize_threshold)
    laplace = LaplaceHistogramDefense(epsilon=epsilon)
    return {
        "raw": DefenseSpec(kind="raw", mode="raw"),
        "sanitize": DefenseSpec(kind="sanitize", mode="sanitize", defense=sanitizer),
        "laplace": DefenseSpec(
            kind="laplace",
            mode="noise",
            epsilon=laplace.epsilon,
            delta=laplace.delta,
            defense=laplace,
        ),
    }


class ReleaseService:
    """Fault-tolerant online release-and-defense service (ISSUE 6 core)."""

    def __init__(
        self,
        database: POIDatabase,
        budget: PrivacyParams,
        *,
        config: "ServeConfig | None" = None,
        specs: "dict[str, DefenseSpec] | None" = None,
        ledger_dir: "str | None" = None,
        journal_path: "str | None" = None,
        clock: "Clock | None" = None,
        seed: int = 0,
        fault_plan: "ServeFaultPlan | None" = None,
        epsilon: float = 1.0,
    ) -> None:
        self._clock = clock if clock is not None else SystemClock()
        self.config = config if config is not None else ServeConfig()
        self.specs = (
            specs
            if specs is not None
            else build_default_specs(database, epsilon=epsilon)
        )
        if "sanitize" not in self.specs:
            raise ConfigError(
                "the spec menu must include 'sanitize' (the ladder's degraded rung)"
            )
        self.ledger = BudgetLedger(
            budget,
            directory=ledger_dir,
            compact_every=self.config.ledger_compact_every,
        )
        self.journal = EventLog(
            journal_path, self._clock, max_bytes=self.config.journal_max_bytes
        )
        self.store = JobStore(self._clock)
        self.shedder = LoadShedder(self.config, self._clock)
        self._queue: "queue_module.Queue[Job]" = queue_module.Queue(
            maxsize=self.config.queue_capacity
        )
        injector = (
            ServeFaultInjector(
                fault_plan, derive_rng(seed, "serve-faults"), self._clock
            )
            if fault_plan is not None and fault_plan.any_faults
            else None
        )
        self.injector = injector
        self.dispatcher = MicroBatchDispatcher(
            database=database,
            jobs=self._queue,
            store=self.store,
            ledger=self.ledger,
            shedder=self.shedder,
            specs=self.specs,
            config=self.config,
            clock=self._clock,
            journal=self.journal,
            seed=seed,
            injector=injector,
        )
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise ConfigError("service already started")
        self._started = True
        self.dispatcher.start()
        self.journal.event("started", config=str(self.config))

    def stop(self, *, drain_timeout_s: float = 10.0) -> None:
        """Drain (bounded), shed the stragglers, and release resources."""
        if self._started:
            self.dispatcher.drain(drain_timeout_s)
            self.dispatcher.stop()
            self._started = False
        # Even a never-started service owes every accepted job a fate.
        self.dispatcher.shed_remaining("service shutdown")
        self.journal.event("stopped", fates=self.store.counters.as_dict())
        self.journal.close()
        self.ledger.close()

    def __enter__(self) -> "ReleaseService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(self, request: ReleaseRequest) -> SubmitOutcome:
        """Admit one request; see the module docstring for the outcomes."""
        if request.defense not in self.specs:
            raise ConfigError(
                f"unknown defense {request.defense!r}; "
                f"expected one of {sorted(self.specs)}"
            )
        level = self.shedder.level(self._queue.qsize())
        if level >= ShedLevel.REFUSE:
            job = self.store.create(request, self.config.deadline_s)
            self.store.finalize(job, "shed", error="load shed at admission")
            self.shedder.count_admission_refusal()
            self.journal.event("shed", job_id=job.job_id, reason="admission ladder")
            return SubmitOutcome(
                status="shed", job=job, retry_after_s=self.config.retry_after_s
            )
        spec = self.specs[request.defense]
        if spec.charged:
            # Disk pressure: the ledger's device refused a WAL append
            # recently, so a charged release cannot be durably accounted.
            # Refuse at admission (503 + Retry-After) instead of queueing
            # work that would fail at the commit point; uncharged
            # defenses keep flowing, and the horizon's expiry lets the
            # next charged batch probe the disk again.
            retry_after = self.dispatcher.disk_pressure_retry_after
            if retry_after is not None:
                self.journal.event(
                    "unavailable", user_id=request.user_id, reason="disk pressure"
                )
                return SubmitOutcome(status="unavailable", retry_after_s=retry_after)
            refusal = self.ledger.would_refuse(
                request.user_id, spec.epsilon, spec.delta
            )
            if refusal is not None:
                job = self.store.create(request, self.config.deadline_s)
                self.store.finalize(job, "refused", error=str(refusal))
                payload = refusal.payload()
                self.journal.event(
                    "refused", job_id=job.job_id, user_id=request.user_id,
                    payload=payload,
                )
                return SubmitOutcome(status="refused", job=job, payload=payload)
        job = self.store.create(request, self.config.deadline_s)
        try:
            self._queue.put_nowait(job)
        except queue_module.Full:
            self.store.discard(job)
            self.journal.event("rejected", user_id=request.user_id, reason="queue full")
            return SubmitOutcome(
                status="rejected", retry_after_s=self.config.retry_after_s
            )
        self.journal.event("queued", job_id=job.job_id, user_id=request.user_id)
        return SubmitOutcome(status="queued", job=job)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def job(self, job_id: str) -> "Job | None":
        return self.store.get(job_id)

    def drain(self, timeout_s: float = 10.0) -> bool:
        return self.dispatcher.drain(timeout_s)

    def status(self) -> dict[str, Any]:
        """The ``/v1/status`` document: fates, ladder, breaker, ledger, journal."""
        depth = self._queue.qsize()
        counts = dict(self.injector.counts) if self.injector is not None else None
        return {
            "fates": self.store.counters.as_dict(),
            "ladder": self.shedder.snapshot(depth),
            "ledger": self.ledger.stats(),
            "queue_depth": depth,
            "n_batches": self.dispatcher.n_batches,
            "n_requeues": self.dispatcher.n_requeues,
            "faults": counts,
            "journal": {
                "enabled": self.journal.enabled,
                "disabled_reason": self.journal.disabled_reason,
            },
            "defenses": sorted(self.specs),
        }
