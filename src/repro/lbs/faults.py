"""Deterministic fault injection for the LBS deployment simulation.

Real deployments of the paper's Fig. 1 architecture are not the perfect
world :mod:`repro.lbs.entities` models: geo-queries fail transiently,
time out, releases are lost in transit, vectors arrive corrupted, and
replicas serve stale map snapshots.  This module injects exactly those
imperfections, *reproducibly*: a :class:`FaultPlan` declares the rates,
a :class:`FaultInjector` draws every fault decision from one seeded
stream (one uniform per operation, turned into a fault kind by
:func:`repro.core.faults.pick`), and the same ``(seed, plan)`` pair
always produces the same fault timeline.

The injector wraps the two server-side entities:

* :func:`FaultInjector.wrap_gsp` intercepts the user → GSP path
  (transient errors, timeouts, stale snapshots);
* :func:`FaultInjector.wrap_service` intercepts the user → LBS path
  (dropped releases, corrupted vectors).

Corruption deliberately produces vectors that violate the release
contract (NaN or negative entries) so the validation at
:meth:`~repro.lbs.entities.POIService.recommend` — not the injector —
is what keeps garbage out of the adversary's log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clock import Clock
from repro.core.errors import ConfigError, TimeoutExceeded, TransientError
from repro.core.faults import FaultCounts, check_rates, pick
from repro.core.rng import as_generator
from repro.lbs.entities import GeoServiceProvider, POIService
from repro.lbs.messages import AggregateRelease, GeoQuery, GeoResponse
from repro.poi.database import POIDatabase

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultyGeoServiceProvider",
    "FaultyPOIService",
]

#: One uniform per GSP operation (query or snapshot fetch) picks at most
#: one of these; fault kind -> rate field of :class:`FaultPlan`.
_GSP_RATES = {
    "transient": "transient_error_rate",
    "timeout": "timeout_rate",
    "stale": "stale_snapshot_rate",
}
#: Likewise one uniform per release in transit.
_RELEASE_RATES = {"drop": "drop_release_rate", "corrupt": "corrupt_vector_rate"}


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Declarative description of the faults to inject.

    The first three rates apply per GSP operation (query or snapshot
    fetch) and are mutually exclusive per draw, so their sum must be at
    most 1; likewise the two release-path rates.  ``timeout_s`` is the
    simulated time a timed-out operation burns before failing, which is
    what makes timeouts interact with retry deadline budgets.
    """

    transient_error_rate: float = 0.0
    timeout_rate: float = 0.0
    stale_snapshot_rate: float = 0.0
    drop_release_rate: float = 0.0
    corrupt_vector_rate: float = 0.0
    timeout_s: float = 1.0

    def __post_init__(self) -> None:
        check_rates(
            self,
            _GSP_RATES.values(),
            exceeds="GSP fault rates (transient + timeout + stale) exceed 1",
        )
        check_rates(
            self,
            _RELEASE_RATES.values(),
            exceeds="release fault rates (drop + corrupt) exceed 1",
        )
        if self.timeout_s < 0:
            raise ConfigError(f"timeout_s must be non-negative, got {self.timeout_s}")

    @property
    def any_faults(self) -> bool:
        """Whether this plan injects anything at all."""
        fields = (*_GSP_RATES.values(), *_RELEASE_RATES.values())
        return any(getattr(self, name) > 0 for name in fields)


@dataclass
class FaultInjector:
    """Draws fault decisions from one seeded stream and wraps entities.

    All randomness comes from the single generator handed in at
    construction, and the simulation is single-threaded, so the sequence
    of fault decisions — and therefore the whole session outcome — is a
    pure function of ``(seed, plan)``.  :attr:`counts` tallies the
    fired faults by kind (``"transient"``, ``"timeout"``, ``"stale"``,
    ``"drop"``, ``"corrupt"``).
    """

    plan: FaultPlan
    rng: "int | np.random.Generator | None" = None
    clock: "Clock | None" = None
    counts: FaultCounts = field(default_factory=FaultCounts)

    def __post_init__(self) -> None:
        self.rng = as_generator(self.rng)

    def wrap_gsp(
        self,
        gsp: GeoServiceProvider,
        stale_database: "POIDatabase | None" = None,
    ) -> "FaultyGeoServiceProvider":
        """Wrap *gsp* so its query/snapshot path rolls the GSP faults."""
        return FaultyGeoServiceProvider(gsp, self, stale_database)

    def wrap_service(self, service: POIService) -> "FaultyPOIService":
        """Wrap *service* so the release path rolls drop/corrupt faults."""
        return FaultyPOIService(service, self)

    # --- fault rolls (one uniform draw per operation) ---

    def roll_gsp_fault(self) -> "str | None":
        """Decide the fate of one GSP operation.

        Returns ``None`` (healthy), ``"stale"``, or raises the fault.
        Exactly one uniform is drawn regardless of the rates, so changing
        a rate never desynchronises an otherwise-identical run.
        """
        fault = pick(float(self.rng.random()), self.plan, _GSP_RATES)
        if fault is None:
            return None
        self.counts.count(fault)
        if fault == "transient":
            raise TransientError("injected transient GSP failure")
        if fault == "timeout":
            if self.clock is not None:
                self.clock.sleep(self.plan.timeout_s)
            raise TimeoutExceeded(
                f"injected GSP timeout after {self.plan.timeout_s:.3f} s"
            )
        return fault

    def roll_release_fault(self) -> "str | None":
        """Decide the fate of one release in transit: None/"drop"/"corrupt"."""
        fault = pick(float(self.rng.random()), self.plan, _RELEASE_RATES)
        if fault is not None:
            self.counts.count(fault)
        return fault

    def corrupt(self, vector: np.ndarray) -> np.ndarray:
        """Deterministically damage one frequency vector.

        Alternates (by seeded draw) between the two contract violations
        the validator must catch: a NaN entry and a negative count.
        """
        damaged = np.asarray(vector, dtype=float).copy()
        index = int(self.rng.integers(0, damaged.shape[0])) if damaged.shape[0] else 0
        if damaged.shape[0] == 0:
            return damaged
        if self.rng.random() < 0.5:
            damaged[index] = np.nan
        else:
            damaged[index] = -1.0 - abs(damaged[index])
        return damaged


class FaultyGeoServiceProvider:
    """A :class:`GeoServiceProvider` front that injects query-path faults.

    Exposes the same interface the :class:`~repro.lbs.entities.MobileUser`
    consumes (``snapshot``/``handle``/``database``); healthy operations
    delegate to the wrapped provider.
    """

    def __init__(
        self,
        inner: GeoServiceProvider,
        injector: FaultInjector,
        stale_database: "POIDatabase | None" = None,
    ) -> None:
        self._inner = inner
        self._injector = injector
        self._stale_db = stale_database

    @property
    def database(self) -> POIDatabase:
        """The live map (fault-free: the adversary's copy is out of band)."""
        return self._inner.database

    @property
    def n_queries_served(self) -> int:
        return self._inner.n_queries_served

    def snapshot(self) -> POIDatabase:
        """The map snapshot used to answer this query (may be stale)."""
        fate = self._injector.roll_gsp_fault()
        if fate == "stale" and self._stale_db is not None:
            return self._stale_db
        return self._inner.snapshot()

    def handle(self, query: GeoQuery) -> GeoResponse:
        fate = self._injector.roll_gsp_fault()
        if fate == "stale" and self._stale_db is not None:
            indices = self._stale_db.query(query.location, query.radius)
            return GeoResponse(query=query, poi_indices=tuple(int(i) for i in indices))
        return self._inner.handle(query)


class FaultyPOIService:
    """A :class:`POIService` front that injects release-path faults.

    ``recommend`` returns ``None`` for a dropped release (the message
    never reached the service); corrupted vectors are forwarded to the
    wrapped service, whose contract validation raises
    :class:`~repro.core.errors.ReleaseValidationError`.
    """

    def __init__(self, inner: POIService, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    @property
    def observed_releases(self) -> tuple[AggregateRelease, ...]:
        return self._inner.observed_releases

    def releases_of(self, user_id: int) -> list[AggregateRelease]:
        return self._inner.releases_of(user_id)

    def recommend(self, release: AggregateRelease) -> "frozenset[int] | None":
        fate = self._injector.roll_release_fault()
        if fate == "drop":
            return None
        if fate == "corrupt":
            release = AggregateRelease(
                user_id=release.user_id,
                frequency_vector=self._injector.corrupt(release.frequency_vector),
                radius=release.radius,
                timestamp=release.timestamp,
            )
        return self._inner.recommend(release)
