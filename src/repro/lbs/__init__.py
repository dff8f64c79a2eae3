"""The LBS architecture of paper Fig. 1 as a deterministic simulation.

Includes the fault-injection and resilience layer that turns the
perfect-world reproduction into a robustness testbed: seeded
:class:`FaultPlan`/:class:`FaultInjector` faults on the GSP and release
paths, retry/circuit-breaker/degradation policies, and release-fate
accounting in :class:`SessionReport`.  The rate checks, the one-draw
fault pick and the fired-fault tally come from :mod:`repro.core.faults`;
the circuit breaker, which the serve layer shares, is
:class:`repro.core.breaker.CircuitBreaker`.
"""

from repro.lbs.entities import GeoServiceProvider, MobileUser, POIService
from repro.lbs.faults import (
    FaultInjector,
    FaultPlan,
    FaultyGeoServiceProvider,
    FaultyPOIService,
)
from repro.lbs.messages import AggregateRelease, GeoQuery, GeoResponse
from repro.lbs.resilience import ResilienceConfig, RetryPolicy, UserSessionStats
from repro.lbs.simulation import SessionReport, simulate_sessions

__all__ = [
    "GeoQuery",
    "GeoResponse",
    "AggregateRelease",
    "GeoServiceProvider",
    "MobileUser",
    "POIService",
    "FaultPlan",
    "FaultInjector",
    "FaultyGeoServiceProvider",
    "FaultyPOIService",
    "RetryPolicy",
    "ResilienceConfig",
    "UserSessionStats",
    "SessionReport",
    "simulate_sessions",
]
