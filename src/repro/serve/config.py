"""Configuration knobs for the serve subsystem.

One frozen config describes a deployment: admission-queue bounds, the
micro-batching window, per-request deadlines and retry budgets, the
shed-ladder thresholds, and the worker circuit breaker.  Validation is
eager so a bad rollout fails at construction, not mid-traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigError

__all__ = ["ServeConfig"]


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Per-deployment knobs for :class:`~repro.serve.service.ReleaseService`.

    Parameters
    ----------
    queue_capacity:
        Bound on the admission queue.  A full queue is *backpressure*:
        the submit is rejected with a retry-after hint instead of
        growing memory without bound.
    n_workers:
        Dispatcher worker threads draining the queue.
    batch_max / batch_wait_s:
        Micro-batching window: a worker takes up to ``batch_max``
        requests, waiting at most ``batch_wait_s`` after the first, and
        answers the whole batch with one
        :meth:`~repro.poi.database.POIDatabase.freq_batch` call.  The
        window is most of a lightly loaded release's latency, and it
        caps a busy worker at about one batch per window, so a batch's
        fixed cost ``a`` (a ``freq_batch`` call per radius and one WAL
        fsync, about 0.2 ms of CPU) costs at most ``a / batch_wait_s``
        of a core: about 5% at the 5 ms default.
    poll_interval_s:
        Idle worker wake-up period (every blocking dequeue carries this
        timeout — rule PL008).
    deadline_s:
        Per-request deadline from admission; a request that cannot start
        before its deadline is shed rather than served stale.
    max_attempts:
        Total processing attempts per request across worker crashes.
    retry_after_s:
        The hint returned with backpressure rejections.
    degrade_queue_ratio / refuse_queue_ratio:
        Queue-depth fractions at which the shed ladder moves to the
        degraded (cheaper sanitization) and refuse rungs.
    degrade_latency_s / refuse_latency_s:
        Worker-latency EWMA thresholds for the same two rungs.
    ewma_alpha:
        Smoothing factor of the latency EWMA.
    breaker_failure_threshold / breaker_reset_timeout_s /
    breaker_half_open_probes:
        The worker circuit breaker (an open breaker pins the ladder to
        the refuse rung until probes succeed).
    heartbeat_interval_s:
        JSONL journal heartbeat period.
    attack_audit:
        When true, completed releases are audited in bulk with
        :meth:`~repro.attacks.region.RegionAttack.run_batch` and each
        result carries whether the region attack re-identifies it.
    ledger_compact_every:
        Budget-ledger WAL compaction cadence
        (:class:`~repro.serve.ledger.BudgetLedger`); it bounds ledger
        disk usage under sustained load.
    journal_max_bytes:
        Rotate the JSONL heartbeat/audit journal at this size (``None``
        leaves it unbounded — short-lived runs and tests).
    disk_retry_after_s:
        Retry-After horizon advertised when the ledger's disk refuses a
        WAL append (the 503 DiskPressure path).
    """

    queue_capacity: int = 256
    n_workers: int = 1
    batch_max: int = 64
    batch_wait_s: float = 0.005
    poll_interval_s: float = 0.05
    deadline_s: float = 10.0
    max_attempts: int = 3
    retry_after_s: float = 0.5
    degrade_queue_ratio: float = 0.6
    refuse_queue_ratio: float = 0.9
    degrade_latency_s: float = 1.0
    refuse_latency_s: float = 5.0
    ewma_alpha: float = 0.2
    breaker_failure_threshold: int = 3
    breaker_reset_timeout_s: float = 1.0
    breaker_half_open_probes: int = 1
    heartbeat_interval_s: float = 5.0
    attack_audit: bool = False
    ledger_compact_every: int = 1024
    journal_max_bytes: "int | None" = None
    disk_retry_after_s: float = 2.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.batch_max < 1:
            raise ConfigError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.batch_wait_s < 0:
            raise ConfigError(f"batch_wait_s must be >= 0, got {self.batch_wait_s}")
        if self.poll_interval_s <= 0:
            raise ConfigError(f"poll_interval_s must be > 0, got {self.poll_interval_s}")
        if self.deadline_s <= 0:
            raise ConfigError(f"deadline_s must be > 0, got {self.deadline_s}")
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.retry_after_s <= 0:
            raise ConfigError(f"retry_after_s must be > 0, got {self.retry_after_s}")
        # Ratios above 1 are legal: the queue can never reach them, which
        # disables that rung (useful to isolate one signal in tests).
        if not 0.0 < self.degrade_queue_ratio <= self.refuse_queue_ratio:
            raise ConfigError(
                "need 0 < degrade_queue_ratio <= refuse_queue_ratio, got "
                f"{self.degrade_queue_ratio}/{self.refuse_queue_ratio}"
            )
        if not 0.0 < self.degrade_latency_s <= self.refuse_latency_s:
            raise ConfigError(
                "need 0 < degrade_latency_s <= refuse_latency_s, got "
                f"{self.degrade_latency_s}/{self.refuse_latency_s}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if self.breaker_failure_threshold < 1:
            raise ConfigError(
                f"breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}"
            )
        if self.breaker_reset_timeout_s <= 0:
            raise ConfigError(
                f"breaker_reset_timeout_s must be > 0, got "
                f"{self.breaker_reset_timeout_s}"
            )
        if self.breaker_half_open_probes < 1:
            raise ConfigError(
                f"breaker_half_open_probes must be >= 1, got "
                f"{self.breaker_half_open_probes}"
            )
        if self.heartbeat_interval_s <= 0:
            raise ConfigError(
                f"heartbeat_interval_s must be > 0, got {self.heartbeat_interval_s}"
            )
        if self.ledger_compact_every < 1:
            raise ConfigError(
                f"ledger_compact_every must be >= 1, got {self.ledger_compact_every}"
            )
        if self.journal_max_bytes is not None and self.journal_max_bytes < 1:
            raise ConfigError(
                f"journal_max_bytes must be >= 1 or None, got {self.journal_max_bytes}"
            )
        if self.disk_retry_after_s <= 0:
            raise ConfigError(
                f"disk_retry_after_s must be > 0, got {self.disk_retry_after_s}"
            )
