"""The load-shedding ladder: full defense → cheaper sanitization → refuse.

Under overload a service that keeps accepting work at full cost melts
down; one that drops everything wastes the capacity it still has.  The
ladder degrades in two observable steps, driven by three signals:

* **queue depth** relative to the admission queue's capacity,
* a worker-latency **EWMA** (slow workers mean the queue is about to
  grow even if it has not yet),
* the worker **circuit breaker** (:mod:`repro.core.breaker`) — crashing
  workers pin the ladder to the refuse rung until a half-open probe
  succeeds.

Rung semantics (enforced by the dispatcher and the admission path):

* ``FULL`` — requests are served with their requested defense;
* ``DEGRADED`` — requests are served with the cheap
  :class:`~repro.defense.sanitization.Sanitizer` instead of their
  requested mechanism.  Degraded results are marked ``degraded`` so the
  caller knows the guarantee differs (sanitization is not DP);
* ``REFUSE`` — new submissions are shed at admission with a
  retry-after hint, and queued work is still drained.

The ladder *degrades*; it never crashes: every rung maps each request
to a terminal fate.
"""

from __future__ import annotations

import threading
from enum import IntEnum
from typing import Any

from repro.core.breaker import CircuitBreaker
from repro.core.clock import Clock
from repro.serve.config import ServeConfig

__all__ = ["Ewma", "LoadShedder", "ShedLevel"]


class ShedLevel(IntEnum):
    """The ladder's rungs, in degradation order."""

    FULL = 0
    DEGRADED = 1
    REFUSE = 2


class Ewma:
    """Exponentially weighted moving average of worker latency."""

    def __init__(self, alpha: float) -> None:
        self._alpha = alpha
        self._value: "float | None" = None

    def update(self, sample: float) -> float:
        if self._value is None:
            self._value = sample
        else:
            self._value = self._alpha * sample + (1.0 - self._alpha) * self._value
        return self._value

    @property
    def value(self) -> float:
        return 0.0 if self._value is None else self._value


class LoadShedder:
    """Thread-safe ladder state shared by admission and dispatcher paths."""

    def __init__(self, config: ServeConfig, clock: Clock) -> None:
        self._config = config
        self._lock = threading.Lock()
        self._latency = Ewma(config.ewma_alpha)
        self._breaker = CircuitBreaker(
            clock,
            failure_threshold=config.breaker_failure_threshold,
            reset_timeout_s=config.breaker_reset_timeout_s,
            half_open_max_probes=config.breaker_half_open_probes,
        )
        self.n_degraded = 0
        self.n_refused_at_admission = 0

    def level(self, queue_depth: int) -> ShedLevel:
        """The current rung for *queue_depth* waiting requests."""
        with self._lock:
            if self._breaker.state == "open":
                return ShedLevel.REFUSE
            ratio = queue_depth / self._config.queue_capacity
            latency = self._latency.value
            if (
                ratio >= self._config.refuse_queue_ratio
                or latency >= self._config.refuse_latency_s
            ):
                return ShedLevel.REFUSE
            if (
                ratio >= self._config.degrade_queue_ratio
                or latency >= self._config.degrade_latency_s
            ):
                return ShedLevel.DEGRADED
            return ShedLevel.FULL

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._latency.update(seconds)

    def record_success(self) -> None:
        with self._lock:
            self._breaker.record_success()

    def record_failure(self) -> None:
        with self._lock:
            self._breaker.record_failure()

    def count_degraded(self, n: int = 1) -> None:
        with self._lock:
            self.n_degraded += n

    def count_admission_refusal(self) -> None:
        with self._lock:
            self.n_refused_at_admission += 1

    def snapshot(self, queue_depth: int) -> dict[str, Any]:
        """Ladder + breaker state for ``/status`` and journal heartbeats."""
        level = self.level(queue_depth)
        with self._lock:
            return {
                "level": int(level),
                "level_name": level.name.lower(),
                "queue_depth": queue_depth,
                "queue_capacity": self._config.queue_capacity,
                "latency_ewma_s": self._latency.value,
                "breaker": self._breaker.snapshot(),
                "n_degraded": self.n_degraded,
                "n_refused_at_admission": self.n_refused_at_admission,
            }
