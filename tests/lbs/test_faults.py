"""Tests for the seeded fault-injection layer."""

import numpy as np
import pytest

from repro.core.clock import SimulatedClock
from repro.core.errors import (
    ConfigError,
    ReleaseValidationError,
    TimeoutExceeded,
    TransientError,
)
from repro.core.rng import derive_rng
from repro.geo.point import Point
from repro.lbs.entities import GeoServiceProvider, POIService
from repro.lbs.faults import FaultInjector, FaultPlan
from repro.lbs.messages import AggregateRelease, GeoQuery


def _release(db, location=Point(500, 500), radius=100.0, timestamp=0.0, user_id=1):
    return AggregateRelease(
        user_id=user_id,
        frequency_vector=db.freq(location, radius),
        radius=radius,
        timestamp=timestamp,
    )


class TestFaultPlan:
    def test_default_plan_is_fault_free(self):
        assert not FaultPlan().any_faults

    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(drop_release_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(transient_error_rate=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(timeout_s=-1.0)

    def test_exclusive_rates_must_fit(self):
        with pytest.raises(ConfigError):
            FaultPlan(transient_error_rate=0.6, timeout_rate=0.3, stale_snapshot_rate=0.2)
        with pytest.raises(ConfigError):
            FaultPlan(drop_release_rate=0.7, corrupt_vector_rate=0.4)
        # exactly 1.0 in total is allowed
        assert FaultPlan(drop_release_rate=0.5, corrupt_vector_rate=0.5).any_faults


class TestFaultyGeoServiceProvider:
    def test_certain_transient_error(self, tiny_db):
        injector = FaultInjector(FaultPlan(transient_error_rate=1.0), derive_rng(1, "f"))
        gsp = injector.wrap_gsp(GeoServiceProvider(tiny_db))
        with pytest.raises(TransientError):
            gsp.snapshot()
        assert injector.counts["transient"] == 1

    def test_timeout_burns_simulated_time(self, tiny_db):
        clock = SimulatedClock()
        injector = FaultInjector(
            FaultPlan(timeout_rate=1.0, timeout_s=2.5), derive_rng(2, "f"), clock=clock
        )
        gsp = injector.wrap_gsp(GeoServiceProvider(tiny_db))
        with pytest.raises(TimeoutExceeded):
            gsp.handle(GeoQuery(1, Point(500, 500), 60.0, 0.0))
        assert clock.now() == 2.5
        assert injector.counts["timeout"] == 1

    def test_stale_snapshot_served(self, tiny_db, db):
        injector = FaultInjector(FaultPlan(stale_snapshot_rate=1.0), derive_rng(3, "f"))
        gsp = injector.wrap_gsp(GeoServiceProvider(db), stale_database=tiny_db)
        assert gsp.snapshot() is tiny_db
        assert injector.counts["stale"] == 1
        # Without a stale copy the fault degenerates to a fresh snapshot.
        fresh = injector.wrap_gsp(GeoServiceProvider(db))
        assert fresh.snapshot() is db

    def test_healthy_path_delegates(self, tiny_db):
        inner = GeoServiceProvider(tiny_db)
        injector = FaultInjector(FaultPlan(), derive_rng(4, "f"))
        gsp = injector.wrap_gsp(inner)
        response = gsp.handle(GeoQuery(1, Point(500, 500), 60.0, 0.0))
        assert set(response.poi_indices) == {2, 3, 5}
        assert gsp.database is tiny_db
        assert gsp.n_queries_served == 1


class TestFaultyPOIService:
    def test_certain_drop_returns_none_and_logs_nothing(self, tiny_db):
        inner = POIService(curious=True)
        injector = FaultInjector(FaultPlan(drop_release_rate=1.0), derive_rng(5, "f"))
        service = injector.wrap_service(inner)
        assert service.recommend(_release(tiny_db)) is None
        assert service.observed_releases == ()
        assert injector.counts["drop"] == 1

    def test_corruption_is_rejected_by_validation(self, tiny_db):
        inner = POIService(curious=True, n_types=tiny_db.n_types)
        injector = FaultInjector(FaultPlan(corrupt_vector_rate=1.0), derive_rng(6, "f"))
        service = injector.wrap_service(inner)
        n_rejected = 0
        for i in range(8):
            try:
                service.recommend(_release(tiny_db, timestamp=float(i)))
            except ReleaseValidationError:
                n_rejected += 1
        assert n_rejected == 8
        assert injector.counts["corrupt"] == 8
        assert inner.observed_releases == ()  # corruption never reaches the log

    def test_healthy_release_served_and_logged(self, tiny_db):
        inner = POIService(curious=True, n_types=tiny_db.n_types)
        injector = FaultInjector(FaultPlan(), derive_rng(7, "f"))
        service = injector.wrap_service(inner)
        served = service.recommend(_release(tiny_db))
        assert isinstance(served, frozenset)
        assert len(service.releases_of(1)) == 1


class TestDeterminism:
    def test_same_seed_same_fault_timeline(self, tiny_db):
        plan = FaultPlan(
            transient_error_rate=0.2,
            timeout_rate=0.1,
            drop_release_rate=0.3,
            corrupt_vector_rate=0.1,
        )

        def timeline(seed):
            injector = FaultInjector(plan, derive_rng(seed, "det"))
            gsp_fates, release_fates = [], []
            for _ in range(50):
                try:
                    gsp_fates.append(injector.roll_gsp_fault())
                except TransientError as exc:
                    gsp_fates.append(type(exc).__name__)
                release_fates.append(injector.roll_release_fault())
            return gsp_fates, release_fates

        assert timeline(11) == timeline(11)
        assert timeline(11) != timeline(12)  # seeds actually matter

    def test_drop_decisions_nest_across_rates(self):
        """The single-uniform-per-op scheme makes fault sets monotone in
        the rate: every release dropped at rate p is dropped at p' > p."""
        def dropped(rate):
            injector = FaultInjector(
                FaultPlan(drop_release_rate=rate), derive_rng(8, "nest")
            )
            return {
                i for i in range(200) if injector.roll_release_fault() == "drop"
            }

        low, high = dropped(0.2), dropped(0.6)
        assert low < high

    def test_corrupt_always_violates_contract(self, tiny_db):
        from repro.poi.frequency import validate_frequency_vector

        injector = FaultInjector(FaultPlan(corrupt_vector_rate=1.0), derive_rng(9, "c"))
        vector = tiny_db.freq(Point(500, 500), 100.0)
        for _ in range(20):
            with pytest.raises(ReleaseValidationError):
                validate_frequency_vector(injector.corrupt(vector))
