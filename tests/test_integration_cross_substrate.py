"""Cross-substrate integration: taxi traces through the full attack stack.

End-to-end path no single unit test covers: synthesize a taxi fleet over
the city's POI hotspots, release aggregates through the LBS entities, and
track the drivers with the continuous tracker — every substrate touching
every other.
"""

import pytest

from repro.attacks.tracker import ContinuousTracker, TimedRelease
from repro.core.rng import derive_rng
from repro.datasets.tdrive import TaxiFleetConfig, synthesize_taxi_trajectories
from repro.lbs.entities import GeoServiceProvider, MobileUser, POIService


@pytest.fixture(scope="module")
def trajectories(db):
    config = TaxiFleetConfig(n_taxis=6, trips_per_taxi=3, gps_noise_m=5.0)
    return synthesize_taxi_trajectories(db, config, derive_rng(2, "xsub"))


class TestTaxiTracesThroughTheStack:
    RADIUS = 700.0

    def test_releases_flow_through_lbs_entities(self, db, trajectories):
        gsp = GeoServiceProvider(db)
        service = POIService(curious=True)
        for traj in trajectories:
            user = MobileUser(traj.user_id, gsp, rng=derive_rng(3, "u", traj.user_id))
            for release in user.walk(traj, self.RADIUS):
                service.recommend(release)
        assert len(service.observed_releases) == sum(len(t) for t in trajectories)

    def test_tracker_consumes_taxi_traces(self, db, trajectories):
        tracker = ContinuousTracker(db, max_speed_mps=25.0)
        n_unique = n_correct = 0
        for traj in trajectories:
            releases = [
                TimedRelease(db.freq(p.location, self.RADIUS), p.timestamp)
                for p in traj.points
            ]
            result = tracker.track(releases, self.RADIUS)
            for step in result.unique_steps:
                n_unique += 1
                anchor = result.candidate_at(step)
                dist = db.location_of(anchor).distance_to(traj.points[step].location)
                n_correct += dist <= self.RADIUS + 1e-6
        # Soundness holds on the synthesized fleet's motion too.
        assert n_correct == n_unique

    def test_taxi_speeds_respect_tracker_bound(self, trajectories):
        """The tracker's 25 m/s bound is actually sound for this fleet."""
        for traj in trajectories:
            for a, b in zip(traj.points, traj.points[1:]):
                dt = b.timestamp - a.timestamp
                if dt <= 0:
                    continue
                assert a.location.distance_to(b.location) / dt <= 25.0
