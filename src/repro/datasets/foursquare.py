"""Synthetic Foursquare-style check-ins (offline substitute, see DESIGN.md).

The real dataset (Yang et al., 2015) holds 227,428 NYC check-ins from 824
users.  Check-ins happen *at* venues, so target locations drawn from them
are maximally biased toward POI-dense areas — the property that makes the
paper's real-trace success rates exceed the uniform-random ones.  The
synthesizer models each user with a small personal set of favourite venues
(people revisit the same places) mixed with city-wide popular venues under
a Zipf popularity law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import DatasetError
from repro.core.rng import RngLike, as_generator
from repro.datasets.trajectory import Trajectory, TrajectoryPoint
from repro.geo.point import Point
from repro.poi.database import POIDatabase

__all__ = ["CheckinConfig", "synthesize_checkins", "checkin_locations"]

_WEEK_S = 7 * 86400.0


@dataclass(frozen=True, slots=True)
class CheckinConfig:
    """Parameters of the synthetic check-in population."""

    n_users: int = 120
    checkins_per_user: int = 40
    favourites_per_user: int = 8
    favourite_probability: float = 0.7
    popularity_exponent: float = 1.2
    position_jitter_m: float = 25.0

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.checkins_per_user <= 0:
            raise DatasetError("need positive n_users and checkins_per_user")
        if self.favourites_per_user <= 0:
            raise DatasetError("favourites_per_user must be positive")
        if not 0.0 <= self.favourite_probability <= 1.0:
            raise DatasetError("favourite_probability must be in [0, 1]")


def synthesize_checkins(
    db: POIDatabase,
    config: CheckinConfig = CheckinConfig(),
    rng: RngLike = None,
) -> list[Trajectory]:
    """Generate per-user check-in sequences over one week."""
    gen = as_generator(rng)
    n_pois = len(db)
    # City-wide venue popularity: Zipf over a random permutation of venues.
    perm = gen.permutation(n_pois)
    weights = 1.0 / np.arange(1, n_pois + 1, dtype=float) ** config.popularity_exponent
    popularity = np.empty(n_pois)
    popularity[perm] = weights / weights.sum()
    # Generator.choice(n_pois, p=popularity) builds this CDF on every call,
    # then takes the right searchsorted of one random().
    cdf = popularity.cumsum()
    cdf /= cdf[-1]

    users: list[Trajectory] = []
    for user in range(config.n_users):
        favourites = gen.choice(n_pois, size=config.favourites_per_user, replace=False, p=popularity)
        times = np.sort(gen.uniform(0.0, _WEEK_S, size=config.checkins_per_user))
        points: list[TrajectoryPoint] = []
        for t in times:
            if gen.uniform() < config.favourite_probability:
                venue = int(favourites[gen.integers(0, len(favourites))])
            else:
                venue = int(cdf.searchsorted(gen.random(), side="right"))
            loc = db.location_of(venue)
            jitter = gen.normal(0.0, config.position_jitter_m, size=2)
            p = db.bounds.clamp(Point(loc.x + float(jitter[0]), loc.y + float(jitter[1])))
            points.append(TrajectoryPoint(p, float(t)))
        users.append(Trajectory(user_id=user, points=tuple(points)))
    return users


def checkin_locations(
    db: POIDatabase,
    n: int,
    config: CheckinConfig = CheckinConfig(),
    rng: RngLike = None,
) -> list[Point]:
    """Draw *n* single target locations from synthetic check-ins.

    This is the paper's "NYC: Foursquare" target sampler.
    """
    if n < 0:
        raise DatasetError(f"n must be non-negative, got {n}")
    gen = as_generator(rng)
    users = synthesize_checkins(db, config, gen)
    pool = [p.location for u in users for p in u.points]
    if not pool:
        raise DatasetError("check-in synthesis produced no points")
    picks = gen.integers(0, len(pool), size=n)
    return [pool[int(i)] for i in picks]
