"""Seeded fault injection for the serve dispatcher (chaos harness).

A :class:`ServeFaultPlan` declares rates, a :class:`ServeFaultInjector`
draws every decision from one seeded stream in batch-arrival order, and
the same ``(seed, plan)`` always produces the same fault timeline.  Rate
checks, the one-draw pick and the tally come from
:mod:`repro.core.faults`.

Fault kinds (as tallied in :attr:`ServeFaultInjector.counts`) and where
they strike:

* ``crash`` — the batch attempt raises
  :class:`~repro.core.errors.WorkerCrashFault`; affected jobs are
  retried on a later batch (bounded by ``max_attempts``) and the crash
  feeds the circuit breaker.
* ``hang`` — the worker stalls for ``hang_s`` before touching
  the batch, long enough (by test construction) that deadlines expire
  and the batch is shed.
* ``slow`` — a ``slow_s`` stall that completes anyway, driving
  the latency EWMA and thereby the shed ladder.
* ``mid_commit_kill`` — raised *after* the ledger spend is durable but
  *before* jobs complete: the worst crash window.  Jobs fail without a
  refund; the kill-and-restart tests prove the ledger never
  double-spends across it.

Queue floods are not injected here — they are a workload shape, produced
by the load generator's ``flood`` profile against a small queue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clock import Clock
from repro.core.errors import ConfigError, MidCommitKillFault, WorkerCrashFault
from repro.core.faults import FaultCounts, check_rates, pick

__all__ = ["ServeFaultInjector", "ServeFaultPlan"]

#: One uniform per batch attempt picks at most one of these; fault kind
#: -> rate field of :class:`ServeFaultPlan`.
_BATCH_RATES = {
    "crash": "worker_crash_rate",
    "hang": "worker_hang_rate",
    "slow": "slow_response_rate",
}


@dataclass(frozen=True, slots=True)
class ServeFaultPlan:
    """Declarative description of the dispatcher faults to inject.

    The three batch-start rates (crash / hang / slow) are mutually
    exclusive per draw, so their sum must be at most 1.
    ``mid_commit_kill_rate`` is drawn independently per batch that
    reaches the commit point.
    """

    worker_crash_rate: float = 0.0
    worker_hang_rate: float = 0.0
    slow_response_rate: float = 0.0
    mid_commit_kill_rate: float = 0.0
    hang_s: float = 0.2
    slow_s: float = 0.02

    def __post_init__(self) -> None:
        check_rates(
            self,
            _BATCH_RATES.values(),
            exceeds="batch fault rates (crash + hang + slow) exceed 1",
        )
        check_rates(self, ("mid_commit_kill_rate",))
        if self.hang_s < 0 or self.slow_s < 0:
            raise ConfigError("hang_s and slow_s must be non-negative")

    @property
    def any_faults(self) -> bool:
        fields = (*_BATCH_RATES.values(), "mid_commit_kill_rate")
        return any(getattr(self, name) > 0 for name in fields)


class ServeFaultInjector:
    """Draws fault decisions from one seeded stream.

    The dispatcher calls :meth:`before_batch` once per batch attempt and
    :meth:`mid_commit` once per batch that reached the commit point;
    both are cheap no-ops under a fault-free plan.  Decisions are drawn
    from the single generator handed in, so a ``(seed, plan)`` pair
    fully determines the fault timeline for a given request order.
    :attr:`counts` tallies the fired faults by kind: ``"crash"``,
    ``"hang"``, ``"slow"`` and ``"mid_commit_kill"``.
    """

    def __init__(
        self, plan: ServeFaultPlan, rng: np.random.Generator, clock: Clock
    ) -> None:
        self._plan = plan
        self._rng = rng
        self._clock = clock
        self.counts = FaultCounts(dict.fromkeys([*_BATCH_RATES, "mid_commit_kill"], 0))

    def before_batch(self) -> None:
        """Maybe crash, hang, or slow down the imminent batch attempt."""
        plan = self._plan
        if not any(getattr(plan, name) for name in _BATCH_RATES.values()):
            return  # no draw at all: a fault-free group leaves the stream alone
        fault = pick(float(self._rng.random()), plan, _BATCH_RATES)
        if fault is None:
            return
        self.counts.count(fault)
        if fault == "crash":
            raise WorkerCrashFault("injected worker crash before batch compute")
        self._clock.sleep(plan.hang_s if fault == "hang" else plan.slow_s)

    def mid_commit(self) -> None:
        """Maybe kill the worker after the ledger commit, before completion."""
        if self._plan.mid_commit_kill_rate <= 0:
            return
        if float(self._rng.random()) < self._plan.mid_commit_kill_rate:
            self.counts.count("mid_commit_kill")
            raise MidCommitKillFault(
                "injected kill between ledger commit and job completion"
            )
