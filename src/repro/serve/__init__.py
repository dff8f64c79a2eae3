"""`poiagg serve`: the fault-tolerant online release-and-defense service.

The paper's threat model is ultimately an online one — an LBS
continuously answering POI-aggregate queries while a defense mediates
each release.  This package turns the offline experiment platform into
that long-running service, with robustness as the headline:

* :mod:`repro.serve.ledger` — per-user ``(epsilon, delta)`` budget
  ledgers persisted through a write-ahead spend log plus atomic
  snapshots, so a crash-and-restart can never double-spend;
* :mod:`repro.serve.service` — submit/status/result with a bounded
  admission queue (backpressure) and a load-shedding ladder
  (:mod:`repro.serve.shedding`) driven by the shared
  :class:`~repro.core.breaker.CircuitBreaker`;
* :mod:`repro.serve.dispatcher` — a micro-batching dispatcher that
  funnels concurrent requests into
  :meth:`~repro.poi.database.POIDatabase.freq_batch` and
  :meth:`~repro.attacks.region.RegionAttack.run_batch`, with per-request
  deadlines and bounded retries on worker crashes;
* :mod:`repro.serve.faults` — the seeded :class:`ServeFaultPlan` chaos
  harness driving the fate invariant
  (``completed + refused + shed + failed == accepted``), built on
  :mod:`repro.core.faults`;
* :mod:`repro.serve.httpapi` — the stdlib ``ThreadingHTTPServer`` edge,
  whose handler sockets time out;
* :mod:`repro.serve.loadgen` — the deterministic in-process load
  generator behind ``poiagg loadgen`` and ``BENCH_serve.json``.

The heartbeat/audit journal is a :class:`repro.core.events.EventLog`;
a journal the disk refuses is disabled, never fatal, and ``/v1/status``
reports why.  Importing the service loads neither the offline LBS
simulation (:mod:`repro.lbs`) nor the dataset generators.
"""

from repro.serve.config import ServeConfig
from repro.serve.faults import ServeFaultInjector, ServeFaultPlan
from repro.serve.jobs import FATES, FateCounters, Job, JobStore, ReleaseRequest
from repro.serve.ledger import BudgetLedger
from repro.serve.loadgen import LOAD_PROFILES, LoadProfile, LoadgenReport, run_loadgen
from repro.serve.service import DefenseSpec, ReleaseService, SubmitOutcome
from repro.serve.shedding import Ewma, LoadShedder, ShedLevel

__all__ = [
    "FATES",
    "LOAD_PROFILES",
    "BudgetLedger",
    "DefenseSpec",
    "Ewma",
    "FateCounters",
    "Job",
    "JobStore",
    "LoadProfile",
    "LoadShedder",
    "LoadgenReport",
    "ReleaseRequest",
    "ReleaseService",
    "ServeConfig",
    "ServeFaultInjector",
    "ServeFaultPlan",
    "ShedLevel",
    "SubmitOutcome",
    "run_loadgen",
]
