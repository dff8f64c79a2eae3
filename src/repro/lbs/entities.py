"""The three parties of the LBS architecture, as simulation entities.

:class:`GeoServiceProvider` owns the POI database and answers range
queries.  :class:`MobileUser` walks a trajectory, queries the GSP, applies
its configured :class:`~repro.defense.base.Defense`, and releases
aggregates.  :class:`POIService` is the LBS application: it consumes
aggregates to serve Top-K type recommendations — and, when instantiated as
honest-but-curious, logs every release for the attack layer.

The simulation is deliberately synchronous and deterministic: it models
the *information flow* of the architecture (who learns what), which is
what the privacy analysis needs, not network timing.  Timing enters only
through the optional resilience machinery (:mod:`repro.lbs.resilience`),
and even there it runs on a simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.breaker import CircuitBreaker
from repro.core.clock import Clock, SimulatedClock
from repro.core.errors import CircuitOpenError, ConfigError, TransientError
from repro.core.rng import RngLike, as_generator
from repro.datasets.trajectory import Trajectory
from repro.defense.base import Defense, NoDefense
from repro.geo.point import Point
from repro.lbs.messages import AggregateRelease, GeoQuery, GeoResponse
from repro.lbs.resilience import RetryPolicy, UserSessionStats
from repro.poi.database import POIDatabase
from repro.poi.frequency import top_k_types, validate_frequency_vector

__all__ = ["GeoServiceProvider", "MobileUser", "POIService"]


class GeoServiceProvider:
    """The GSP: answers ``Query(l, r)`` over its POI database."""

    def __init__(self, database: POIDatabase) -> None:
        self._db = database
        self.n_queries_served = 0

    @property
    def database(self) -> POIDatabase:
        """The public map (the adversary holds a copy of this too)."""
        return self._db

    def snapshot(self) -> POIDatabase:
        """The map snapshot backing the next query.

        Users resolve their queries against this; the fault-injection
        wrapper overrides it to fail transiently, time out, or serve a
        stale map, which is why it is a method and not an attribute.
        """
        return self._db

    def handle(self, query: GeoQuery) -> GeoResponse:
        """Serve one range query."""
        if query.radius <= 0:
            raise ConfigError(f"query radius must be positive, got {query.radius}")
        indices = self._db.query(query.location, query.radius)
        self.n_queries_served += 1
        return GeoResponse(query=query, poi_indices=tuple(int(i) for i in indices))


class MobileUser:
    """A user that releases (defended) aggregates along its trajectory.

    Without resilience parameters the user is the perfect-world entity of
    the paper: every release succeeds.  With a :class:`RetryPolicy` (and
    optionally a shared :class:`CircuitBreaker`) it applies the
    graceful-degradation ladder on GSP failures:

    1. **retry** with capped exponential backoff inside the per-release
       deadline budget;
    2. **degrade** — re-release the last-known-good vector (stale but
       well-formed; privacy-wise it only repeats information already
       released);
    3. **skip** the release entirely.

    Outcomes are tallied in :attr:`stats`.
    """

    def __init__(
        self,
        user_id: int,
        gsp: GeoServiceProvider,
        defense: "Defense | None" = None,
        rng: RngLike = None,
        retry_policy: "RetryPolicy | None" = None,
        breaker: "CircuitBreaker | None" = None,
        clock: "Clock | None" = None,
    ) -> None:
        self.user_id = user_id
        self._gsp = gsp
        self._defense = defense if defense is not None else NoDefense()
        self._rng = as_generator(rng)
        self._retry_policy = retry_policy
        self._breaker = breaker
        self._clock = clock if clock is not None else SimulatedClock()
        self._last_good: "np.ndarray | None" = None
        self.stats = UserSessionStats()

    @property
    def defense_name(self) -> str:
        return self._defense.name

    def _defended_vector(self, location: Point, radius: float) -> np.ndarray:
        """One query + defense round against the GSP's current snapshot."""
        snapshot = self._gsp.snapshot()
        return self._defense.release(snapshot, location, radius, self._rng)

    def _fetch_vector(self, location: Point, radius: float) -> "np.ndarray | None":
        """Run the degradation ladder; ``None`` means the release is skipped."""
        policy = self._retry_policy
        if policy is None:
            return self._defended_vector(location, radius)
        try:
            if self._breaker is not None:
                self._breaker.guard()
            start = self._clock.now()
            attempt = 0
            while True:
                try:
                    vector = self._defended_vector(location, radius)
                except TransientError:
                    if self._breaker is not None:
                        self._breaker.record_failure()
                        if not self._breaker.allow():
                            break  # the breaker tripped mid-ladder: stop retrying
                    if attempt + 1 >= policy.max_attempts:
                        break
                    delay = policy.backoff_delay(attempt, self._rng)
                    elapsed = self._clock.now() - start
                    if elapsed + delay > policy.deadline_s:
                        break  # sleeping would bust the release's deadline budget
                    self._clock.sleep(delay)
                    self.stats.n_retries += 1
                    attempt += 1
                else:
                    if self._breaker is not None:
                        self._breaker.record_success()
                    self._last_good = vector
                    return vector
        except CircuitOpenError:
            self.stats.n_short_circuits += 1
        # --- degraded path: last-known-good, else skip ---
        if self._last_good is not None:
            self.stats.n_degraded += 1
            return self._last_good
        return None

    def release_at(
        self, location: Point, radius: float, timestamp: float
    ) -> "AggregateRelease | None":
        """One LBS interaction: query the GSP, defend, release.

        The defense abstraction already covers both placement points the
        paper considers — location-level defenses perturb before the GSP
        query, aggregate-level ones perturb the vector afterwards — so the
        user simply delegates to it.  Returns ``None`` when the ladder
        exhausted every fallback and the release is skipped.
        """
        if isinstance(self._clock, SimulatedClock):
            self._clock.advance_to(timestamp)
        self.stats.n_attempted += 1
        vector = self._fetch_vector(location, radius)
        if vector is None:
            self.stats.n_skipped += 1
            return None
        self.stats.n_released += 1
        return AggregateRelease(
            user_id=self.user_id,
            frequency_vector=vector,
            radius=radius,
            timestamp=timestamp,
        )

    def walk(self, trajectory: Trajectory, radius: float) -> list[AggregateRelease]:
        """Release one aggregate per trajectory sample (skips drop out)."""
        releases = (
            self.release_at(point.location, radius, point.timestamp)
            for point in trajectory.points
        )
        return [release for release in releases if release is not None]


@dataclass
class POIService:
    """The LBS application: Top-K recommendations over received aggregates.

    With ``curious=True`` it also keeps the full release log — the
    honest-but-curious adversary of the threat model, which follows the
    protocol but retains everything it sees.  When ``n_types`` is set the
    service additionally enforces the vocabulary width, so malformed
    releases (wrong width, NaN, negative counts) are rejected at ingest
    with :class:`~repro.core.errors.ReleaseValidationError` — and never
    reach the log or a recommendation.
    """

    top_k: int = 10
    curious: bool = False
    n_types: "int | None" = None
    _log: list[AggregateRelease] = field(default_factory=list)

    def recommend(self, release: AggregateRelease) -> frozenset[int]:
        """Serve the Top-K POI types for one (validated) release."""
        vector = validate_frequency_vector(
            release.frequency_vector,
            n_types=self.n_types,
            context=f"release from user {release.user_id}",
        )
        if self.curious:
            self._log.append(release)
        return top_k_types(vector, self.top_k)

    @property
    def observed_releases(self) -> tuple[AggregateRelease, ...]:
        """What the adversary has collected (empty unless curious)."""
        return tuple(self._log)

    def releases_of(self, user_id: int) -> list[AggregateRelease]:
        """The time-ordered release history of one user."""
        mine = [r for r in self._log if r.user_id == user_id]
        return sorted(mine, key=lambda r: r.timestamp)
