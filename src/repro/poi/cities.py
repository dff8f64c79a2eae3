"""City presets calibrated to the paper's dataset statistics (§II-E).

The paper's OSM extracts: Beijing — 10,249 POIs, 177 types; New York City —
30,056 POIs, 272 types.  The presets below generate synthetic cities with
exactly those counts (see :mod:`repro.poi.generator` for why the synthetic
distribution preserves the phenomena under study).  A ``small`` preset is
provided for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.geo.bbox import BBox
from repro.poi.database import POIDatabase
from repro.poi.generator import SyntheticCityConfig, generate_city

__all__ = [
    "City",
    "beijing",
    "new_york",
    "small_city",
    "CITY_BUILDERS",
]

#: Default seed used by experiment configs; any seed works.
DEFAULT_SEED = 20210414  # ICDCS 2021 notification-ish date; arbitrary.

# Type-count profiles are calibrated so the number of rare types (city
# frequency <= 10) matches the paper's sanitization counts — 90 of 177
# types in Beijing, 138 of 272 in NYC (paper §III-A) — while keeping a
# singleton tail, which drives large-radius location uniqueness.
BEIJING_CONFIG = SyntheticCityConfig(
    name="beijing",
    extent_m=40_000.0,
    n_pois=10_249,
    n_types=177,
    n_clusters=70,
    n_rare_types=90,
)

NEW_YORK_CONFIG = SyntheticCityConfig(
    name="nyc",
    extent_m=36_000.0,
    n_pois=30_056,
    n_types=272,
    n_clusters=90,
    n_rare_types=138,
)

SMALL_CONFIG = SyntheticCityConfig(
    name="small",
    extent_m=10_000.0,
    n_pois=1_500,
    n_types=40,
    n_clusters=15,
    cluster_sigma_min=150.0,
    cluster_sigma_max=800.0,
    n_rare_types=18,
)


@dataclass(frozen=True)
class City:
    """A named city: its POI database plus sampling helpers."""

    name: str
    database: POIDatabase
    seed: int

    @property
    def bounds(self) -> BBox:
        return self.database.bounds

    def interior(self, margin: float) -> BBox:
        """The city bounds shrunk by *margin* on every side.

        Experiment targets are sampled from the interior so a query disk of
        radius ``margin`` never leaves the mapped area, avoiding boundary
        artefacts the paper's OSM extracts do not have.
        """
        b = self.bounds
        margin = min(margin, (b.width / 2) * 0.49, (b.height / 2) * 0.49)
        return BBox(
            b.min_x + margin, b.min_y + margin, b.max_x - margin, b.max_y - margin
        )


@lru_cache(maxsize=8)
def _build_beijing(seed: int) -> City:
    return City("beijing", generate_city(BEIJING_CONFIG, seed), seed)


@lru_cache(maxsize=8)
def _build_new_york(seed: int) -> City:
    return City("nyc", generate_city(NEW_YORK_CONFIG, seed), seed)


@lru_cache(maxsize=8)
def _build_small_city(seed: int) -> City:
    return City("small", generate_city(SMALL_CONFIG, seed), seed)


def beijing(seed: int = DEFAULT_SEED) -> City:
    """The Beijing preset: 10,249 POIs, 177 types over a 40 km square."""
    return _build_beijing(seed)


def new_york(seed: int = DEFAULT_SEED) -> City:
    """The NYC preset: 30,056 POIs, 272 types over a 36 km square."""
    return _build_new_york(seed)


def small_city(seed: int = DEFAULT_SEED) -> City:
    """A small city for fast tests: 1,500 POIs, 40 types over 10 km."""
    return _build_small_city(seed)


#: Name → builder map used by the CLI and experiment registry.
CITY_BUILDERS = {"beijing": beijing, "nyc": new_york, "small": small_city}
