"""A three-state circuit breaker on an injectable clock.

Shared by the LBS simulation, where it guards the geo-service provider
(:mod:`repro.lbs.entities`), and the serve layer, where crashing workers
pin the load-shedding ladder to its refuse rung
(:mod:`repro.serve.shedding`).
"""

from __future__ import annotations

from repro.core.clock import Clock
from repro.core.errors import CircuitOpenError, ConfigError

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """A three-state (closed/open/half-open) breaker guarding a dependency.

    ``failure_threshold`` consecutive failures trip it open; after
    ``reset_timeout_s`` of clock time up to ``half_open_max_probes``
    probe calls are let through (half-open) — a success closes the
    breaker, a failure re-opens it and restarts the window.  All timing
    goes through the injected :class:`~repro.core.clock.Clock`, so
    breaker behaviour is exactly reproducible in simulation.
    """

    def __init__(
        self,
        clock: Clock,
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        half_open_max_probes: int = 1,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout_s <= 0:
            raise ConfigError(
                f"reset_timeout_s must be positive, got {reset_timeout_s}"
            )
        if half_open_max_probes < 1:
            raise ConfigError(
                f"half_open_max_probes must be >= 1, got {half_open_max_probes}"
            )
        self._clock = clock
        self._failure_threshold = failure_threshold
        self._reset_timeout_s = reset_timeout_s
        self._half_open_max_probes = half_open_max_probes
        self._half_open_probes = 0
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.n_opens = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"`` (time-aware)."""
        self._maybe_half_open()
        return self._state

    def snapshot(self) -> dict[str, "str | int | float"]:
        """Inspectable breaker state for status endpoints and telemetry.

        Returns a plain JSON-friendly dict rather than internals, so the
        serve layer's ``/status`` response and the shed ladder can
        surface the breaker without reaching into private attributes.
        """
        self._maybe_half_open()
        return {
            "state": self._state,
            "consecutive_failures": self._consecutive_failures,
            "failure_threshold": self._failure_threshold,
            "reset_timeout_s": self._reset_timeout_s,
            "opened_at": self._opened_at,
            "n_opens": self.n_opens,
            "half_open_max_probes": self._half_open_max_probes,
            "half_open_probes_used": self._half_open_probes,
        }

    def _maybe_half_open(self) -> None:
        if (
            self._state == "open"
            and self._clock.now() - self._opened_at >= self._reset_timeout_s
        ):
            self._state = "half_open"
            self._half_open_probes = 0

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In the half-open state each ``True`` consumes one of the
        ``half_open_max_probes`` probe slots; further calls are refused
        until a probe resolves via :meth:`record_success` /
        :meth:`record_failure`.
        """
        self._maybe_half_open()
        if self._state == "half_open":
            if self._half_open_probes >= self._half_open_max_probes:
                return False
            self._half_open_probes += 1
            return True
        return self._state != "open"

    def guard(self) -> None:
        """Raise :class:`CircuitOpenError` instead of returning False."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit open since t={self._opened_at:.3f} s "
                f"({self._consecutive_failures} consecutive failures)"
            )

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._half_open_probes = 0
        self._state = "closed"

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        self._maybe_half_open()
        if self._state == "half_open" or (
            self._consecutive_failures >= self._failure_threshold
            and self._state == "closed"
        ):
            self._trip()

    def _trip(self) -> None:
        self._state = "open"
        self._opened_at = self._clock.now()
        self._half_open_probes = 0
        self.n_opens += 1
