"""The paper's four evaluation target samplers, behind one name-keyed API.

Every attack/defense figure draws target locations from one of four
datasets: (a) T-drive taxi locations in Beijing, (b) uniform random
locations in Beijing, (c) Foursquare check-ins in NYC, (d) uniform random
locations in NYC.  :func:`sample_targets` reproduces that menu on the
synthetic substrates.

Targets are restricted to the city interior (a margin of the query radius)
so that a query disk never leaves the mapped area; the paper's OSM extract
"given area of the city" plays the same role.
"""

from __future__ import annotations

from repro.core.errors import DatasetError
from repro.core.rng import derive_rng
from repro.datasets.foursquare import CheckinConfig, checkin_locations
from repro.datasets.random_locations import random_locations
from repro.datasets.tdrive import TaxiFleetConfig, taxi_locations
from repro.geo.point import Point
from repro.poi.cities import City, beijing, new_york

__all__ = ["DATASET_NAMES", "sample_targets", "dataset_city"]

#: The four datasets of the paper's evaluation, in figure order.
DATASET_NAMES = ("bj_tdrive", "bj_random", "nyc_foursquare", "nyc_random")


def dataset_city(name: str, seed: int) -> City:
    """The city a named dataset lives in."""
    if name.startswith("bj_"):
        return beijing(seed)
    if name.startswith("nyc_"):
        return new_york(seed)
    raise DatasetError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")


def sample_targets(
    name: str,
    n: int,
    radius: float,
    seed: int,
) -> tuple[City, list[Point]]:
    """Draw *n* target locations from the named dataset.

    Returns the city (so callers share its POI database) and the targets,
    all at least *radius* meters from the city boundary.
    """
    if name not in DATASET_NAMES:
        raise DatasetError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    if n < 0:
        raise DatasetError(f"n must be non-negative, got {n}")
    city = dataset_city(name, seed)
    rng = derive_rng(seed, "targets", name, n, radius)
    interior = city.interior(radius)

    if name.endswith("_random"):
        return city, random_locations(interior, n, rng)

    if name == "bj_tdrive":
        raw = taxi_locations(city.database, 4 * n, TaxiFleetConfig(), rng)
    else:  # nyc_foursquare
        raw = checkin_locations(city.database, 4 * n, CheckinConfig(), rng)
    inside = [p for p in raw if interior.contains(p)]
    while len(inside) < n:
        # Boundary-heavy draws are rare; top up with fresh samples.
        extra = (
            taxi_locations(city.database, 2 * n, TaxiFleetConfig(), rng)
            if name == "bj_tdrive"
            else checkin_locations(city.database, 2 * n, CheckinConfig(), rng)
        )
        inside.extend(p for p in extra if interior.contains(p))
    return city, inside[:n]
