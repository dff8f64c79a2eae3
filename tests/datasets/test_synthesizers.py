"""Tests for the T-drive and Foursquare synthesizers."""

import numpy as np
import pytest

from repro.core.errors import DatasetError
from repro.datasets.foursquare import (
    _WEEK_S as _CHECKIN_WEEK_S,
    CheckinConfig,
    checkin_locations,
    synthesize_checkins,
)
from repro.datasets.tdrive import (
    _WEEK_S,
    TaxiFleetConfig,
    _sample_hotspots,
    synthesize_taxi_trajectories,
    taxi_locations,
)
from repro.datasets.trajectory import Trajectory, TrajectoryPoint
from repro.geo.distance import euclidean
from repro.geo.point import Point
from repro.poi.cities import DEFAULT_SEED, beijing, new_york


class TestTaxiSynthesis:
    def test_counts(self, db):
        trajs = synthesize_taxi_trajectories(db, TaxiFleetConfig(n_taxis=5), rng=1)
        assert len(trajs) == 5
        assert all(len(t) >= 2 for t in trajs)

    def test_deterministic(self, db):
        a = synthesize_taxi_trajectories(db, TaxiFleetConfig(n_taxis=3), rng=2)
        b = synthesize_taxi_trajectories(db, TaxiFleetConfig(n_taxis=3), rng=2)
        assert [p.location for t in a for p in t.points] == [
            p.location for t in b for p in t.points
        ]

    def test_points_inside_city(self, db):
        trajs = synthesize_taxi_trajectories(db, TaxiFleetConfig(n_taxis=4), rng=3)
        margin = 100.0  # GPS noise can step just past the clipped path
        for t in trajs:
            for p in t.points:
                assert db.bounds.expanded(margin).contains(p.location)

    def test_speeds_are_plausible(self, db):
        config = TaxiFleetConfig(n_taxis=6, gps_noise_m=0.0)
        trajs = synthesize_taxi_trajectories(db, config, rng=4)
        for t in trajs:
            for a, b in zip(t.points, t.points[1:]):
                dt = b.timestamp - a.timestamp
                if dt <= 0:
                    continue
                speed = euclidean(a.location, b.location) / dt
                assert speed <= config.speed_max_mps + 1.0

    def test_invalid_config_raises(self):
        with pytest.raises(DatasetError):
            TaxiFleetConfig(n_taxis=0)
        with pytest.raises(DatasetError):
            TaxiFleetConfig(speed_min_mps=20.0, speed_max_mps=10.0)

    def test_taxi_locations_sampler(self, db):
        locs = taxi_locations(db, 50, TaxiFleetConfig(n_taxis=5), rng=5)
        assert len(locs) == 50


def _reference_fleet(db, config, gen):
    """The per-step fleet loop over NumPy vectors, which ``_walk_fleet`` must match."""
    trajectories: list[Trajectory] = []
    for taxi in range(config.n_taxis):
        n_stops = config.trips_per_taxi + 1
        stops = _sample_hotspots(db, n_stops, config.hotspot_jitter_m, gen)
        t = float(gen.uniform(0.0, _WEEK_S * 0.5))
        points: list[TrajectoryPoint] = []
        pos = stops[0]
        points.append(TrajectoryPoint(Point(float(pos[0]), float(pos[1])), t))
        for stop in stops[1:]:
            speed = float(gen.uniform(config.speed_min_mps, config.speed_max_mps))
            dest = stop
            while True:
                step_s = float(
                    gen.uniform(config.sample_interval_min_s, config.sample_interval_max_s)
                )
                leg = dest - pos
                dist = float(np.hypot(leg[0], leg[1]))
                travel = speed * step_s
                t += step_s
                if travel >= dist:
                    pos = dest
                else:
                    pos = pos + leg / dist * travel
                noisy = pos + gen.normal(0.0, config.gps_noise_m, size=2)
                points.append(TrajectoryPoint(Point(float(noisy[0]), float(noisy[1])), t))
                if travel >= dist:
                    break
            # Dwell at the stop (passenger exchange) before the next trip.
            t += float(gen.uniform(60.0, 900.0))
        trajectories.append(Trajectory(user_id=taxi, points=tuple(points)))
    return trajectories


def _reference_taxi_locations(db, n, config, gen):
    trajectories = _reference_fleet(db, config, gen)
    pool = [p.location for traj in trajectories for p in traj.points]
    picks = gen.integers(0, len(pool), size=n)
    return [pool[int(i)] for i in picks]


def _columns(trajectories):
    points = [p for traj in trajectories for p in traj.points]
    return (
        [p.location.x for p in points],
        [p.location.y for p in points],
        [p.timestamp for p in points],
    )


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_same_bits(got, expected):
    np.testing.assert_array_equal(_bits(got), _bits(expected))


WIDE_FLEET = TaxiFleetConfig(
    n_taxis=30,
    trips_per_taxi=3,
    gps_noise_m=0.0,
    speed_min_mps=1.0,
    speed_max_mps=40.0,
    sample_interval_min_s=10.0,
    sample_interval_max_s=900.0,
)


@pytest.fixture(params=["db", "beijing"])
def fleet_db(request):
    if request.param == "db":
        return request.getfixturevalue("db")
    return beijing(DEFAULT_SEED).database


@pytest.mark.parametrize("config", [TaxiFleetConfig(), WIDE_FLEET], ids=["default", "wide"])
@pytest.mark.parametrize("seed", [0, 1, 7])
class TestFleetMatchesReference:
    """The scalar walk is bit-identical to the per-step reference loop.

    Comparing against the loop rather than a pinned digest keeps the
    test valid whatever rounding the platform's ``hypot`` does.
    """

    def test_trajectories(self, fleet_db, config, seed):
        ref_gen, gen = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _reference_fleet(fleet_db, config, ref_gen)
        got = synthesize_taxi_trajectories(fleet_db, config, gen)
        assert [t.user_id for t in got] == [t.user_id for t in expected]
        assert [len(t) for t in got] == [len(t) for t in expected]
        for got_column, expected_column in zip(_columns(got), _columns(expected)):
            _assert_same_bits(got_column, expected_column)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_taxi_locations(self, fleet_db, config, seed):
        ref_gen, gen = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _reference_taxi_locations(fleet_db, 480, config, ref_gen)
        got = taxi_locations(fleet_db, 480, config, gen)
        _assert_same_bits([p.x for p in got], [p.x for p in expected])
        _assert_same_bits([p.y for p in got], [p.y for p in expected])
        assert gen.bit_generator.state == ref_gen.bit_generator.state


def _reference_checkins(db, config, gen):
    """``synthesize_checkins`` drawing each popular venue with ``Generator.choice``."""
    n_pois = len(db)
    perm = gen.permutation(n_pois)
    weights = 1.0 / np.arange(1, n_pois + 1, dtype=float) ** config.popularity_exponent
    popularity = np.empty(n_pois)
    popularity[perm] = weights / weights.sum()
    users = []
    for user in range(config.n_users):
        favourites = gen.choice(n_pois, size=config.favourites_per_user, replace=False, p=popularity)
        times = np.sort(gen.uniform(0.0, _CHECKIN_WEEK_S, size=config.checkins_per_user))
        points = []
        for t in times:
            if gen.uniform() < config.favourite_probability:
                venue = int(favourites[gen.integers(0, len(favourites))])
            else:
                venue = int(gen.choice(n_pois, p=popularity))
            loc = db.location_of(venue)
            jitter = gen.normal(0.0, config.position_jitter_m, size=2)
            p = db.bounds.clamp(Point(loc.x + float(jitter[0]), loc.y + float(jitter[1])))
            points.append(TrajectoryPoint(p, float(t)))
        users.append(Trajectory(user_id=user, points=tuple(points)))
    return users


@pytest.fixture(params=["db", "new_york"])
def checkin_db(request):
    if request.param == "db":
        return request.getfixturevalue("db")
    return new_york(DEFAULT_SEED).database


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_checkins_match_the_choice_loop(checkin_db, seed):
    """One CDF per call draws the venues ``Generator.choice`` drew."""
    ref_gen, gen = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _reference_checkins(checkin_db, CheckinConfig(), ref_gen)
    got = synthesize_checkins(checkin_db, CheckinConfig(), gen)
    assert [t.user_id for t in got] == [t.user_id for t in expected]
    assert [len(t) for t in got] == [len(t) for t in expected]
    for got_column, expected_column in zip(_columns(got), _columns(expected), strict=True):
        _assert_same_bits(got_column, expected_column)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


class TestCheckinSynthesis:
    def test_counts(self, db):
        users = synthesize_checkins(db, CheckinConfig(n_users=4, checkins_per_user=10), rng=1)
        assert len(users) == 4
        assert all(len(u) == 10 for u in users)

    def test_checkins_near_pois(self, db):
        config = CheckinConfig(n_users=5, checkins_per_user=20, position_jitter_m=25.0)
        users = synthesize_checkins(db, config, rng=2)
        xy = np.array([p.location.as_tuple() for u in users for p in u.points])
        pois = db.positions
        dists = np.hypot(xy[:, None, 0] - pois[:, 0], xy[:, None, 1] - pois[:, 1]).min(axis=1)
        # Check-ins sit within a few jitter radii of some POI.
        assert np.median(dists) < 4 * config.position_jitter_m

    def test_favourite_revisits(self, db):
        config = CheckinConfig(
            n_users=1,
            checkins_per_user=60,
            favourite_probability=1.0,
            position_jitter_m=0.0,
        )
        users = synthesize_checkins(db, config, rng=3)
        # With jitter off and only favourites, check-ins land on at most
        # favourites_per_user distinct venues.
        venues = {p.location.as_tuple() for p in users[0].points}
        assert len(venues) <= config.favourites_per_user

    def test_deterministic(self, db):
        a = checkin_locations(db, 20, CheckinConfig(n_users=3), rng=7)
        b = checkin_locations(db, 20, CheckinConfig(n_users=3), rng=7)
        assert a == b

    def test_invalid_config_raises(self):
        with pytest.raises(DatasetError):
            CheckinConfig(n_users=0)
        with pytest.raises(DatasetError):
            CheckinConfig(favourite_probability=1.5)
