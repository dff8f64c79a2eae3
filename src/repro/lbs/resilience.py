"""Resilience policies for the LBS simulation: retries, breaker, degradation.

Under the fault model of :mod:`repro.lbs.faults`, a mobile user that
gives up on the first failed geo-query loses its whole release stream.
This module provides the standard production countermeasures, all
deterministic under a :class:`~repro.core.clock.SimulatedClock`:

* :class:`RetryPolicy` — capped exponential backoff with seeded jitter
  and a per-release deadline budget;
* :class:`~repro.core.breaker.CircuitBreaker` (built by
  :meth:`ResilienceConfig.build_breaker`) — trips open after consecutive
  GSP failures so a down provider is not hammered, half-opens after a
  reset window;
* the graceful-degradation ladder lives in
  :meth:`repro.lbs.entities.MobileUser.release_at`: retry → serve the
  last-known-good cached vector → skip the release.  Its outcomes are
  tallied per user in :class:`UserSessionStats` and surfaced in the
  :class:`~repro.lbs.simulation.SessionReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.breaker import CircuitBreaker
from repro.core.clock import Clock
from repro.core.errors import ConfigError

__all__ = ["RetryPolicy", "ResilienceConfig", "UserSessionStats"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter and a deadline budget.

    Attempt ``i`` (0-based) failing sleeps
    ``min(base_delay_s * 2**i, max_delay_s) * (1 + jitter * u)`` with
    ``u ~ U[0, 1)`` drawn from the caller's seeded generator, then
    retries — unless attempts are exhausted or sleeping would bust the
    per-release ``deadline_s`` budget.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.1
    max_delay_s: float = 2.0
    jitter: float = 0.1
    deadline_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ConfigError(
                f"need 0 <= base_delay_s <= max_delay_s, got "
                f"{self.base_delay_s}/{self.max_delay_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline_s <= 0:
            raise ConfigError(f"deadline_s must be positive, got {self.deadline_s}")

    def backoff_delay(self, attempt: int, rng: np.random.Generator) -> float:
        """The sleep before retrying after failed attempt *attempt* (0-based)."""
        if attempt < 0:
            raise ConfigError(f"attempt must be non-negative, got {attempt}")
        delay = min(self.base_delay_s * (2.0**attempt), self.max_delay_s)
        return delay * (1.0 + self.jitter * float(rng.random()))


@dataclass(frozen=True, slots=True)
class ResilienceConfig:
    """Bundle of the per-deployment resilience knobs.

    One config describes a rollout; :meth:`build_breaker` instantiates
    the (stateful, per-simulation) breaker against a clock.
    """

    retry: RetryPolicy = RetryPolicy()
    breaker_failure_threshold: int = 5
    breaker_reset_timeout_s: float = 30.0
    breaker_half_open_probes: int = 1

    def build_breaker(self, clock: Clock) -> CircuitBreaker:
        return CircuitBreaker(
            clock,
            failure_threshold=self.breaker_failure_threshold,
            reset_timeout_s=self.breaker_reset_timeout_s,
            half_open_max_probes=self.breaker_half_open_probes,
        )


@dataclass
class UserSessionStats:
    """Per-user tally of the degradation ladder's outcomes."""

    n_attempted: int = 0
    n_released: int = 0
    n_degraded: int = 0
    n_skipped: int = 0
    n_retries: int = 0
    n_short_circuits: int = 0

    def add(self, other: "UserSessionStats") -> None:
        """Accumulate *other* into this tally (for fleet-wide sums)."""
        self.n_attempted += other.n_attempted
        self.n_released += other.n_released
        self.n_degraded += other.n_degraded
        self.n_skipped += other.n_skipped
        self.n_retries += other.n_retries
        self.n_short_circuits += other.n_short_circuits
