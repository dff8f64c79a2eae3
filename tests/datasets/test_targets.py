"""Tests for the named target samplers.

These exercise the full-size Beijing/NYC cities, so the sample counts are
kept small.
"""

import pytest

from repro.core.errors import DatasetError
from repro.datasets import targets
from repro.datasets.foursquare import checkin_locations
from repro.datasets.targets import DATASET_NAMES, dataset_city, sample_targets
from repro.datasets.tdrive import taxi_locations


class TestDatasetCity:
    def test_prefix_routing(self):
        assert dataset_city("bj_random", seed=1).name == "beijing"
        assert dataset_city("nyc_random", seed=1).name == "nyc"

    def test_unknown_raises(self):
        with pytest.raises(DatasetError):
            dataset_city("paris_random", seed=1)


class TestSampleTargets:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_count_and_interior(self, name):
        radius = 2_000.0
        city, targets = sample_targets(name, 25, radius, seed=11)
        assert len(targets) == 25
        interior = city.interior(radius)
        assert all(interior.contains(p) for p in targets)

    def test_deterministic(self):
        _, a = sample_targets("bj_random", 10, 1_000.0, seed=3)
        _, b = sample_targets("bj_random", 10, 1_000.0, seed=3)
        assert a == b

    def test_seed_changes_targets(self):
        _, a = sample_targets("bj_random", 10, 1_000.0, seed=3)
        _, b = sample_targets("bj_random", 10, 1_000.0, seed=4)
        assert a != b

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            sample_targets("mars_random", 5, 500.0, seed=1)

    def test_trace_targets_are_poi_biased(self):
        """Trace-derived targets see denser POI neighbourhoods than random."""
        import numpy as np

        radius = 1_000.0
        city, trace = sample_targets("bj_tdrive", 40, radius, seed=5)
        _, rand = sample_targets("bj_random", 40, radius, seed=5)
        db = city.database
        dens_trace = np.mean([db.freq(p, radius).sum() for p in trace])
        dens_rand = np.mean([db.freq(p, radius).sum() for p in rand])
        assert dens_trace > dens_rand


class TestNegativeCount:
    """A negative count is refused with a typed error before any synthesis."""

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_sample_targets_refuses_before_building_a_city(self, name, monkeypatch):
        def no_city(name, seed):
            raise AssertionError("built a city for a negative count")

        monkeypatch.setattr(targets, "dataset_city", no_city)
        with pytest.raises(DatasetError, match="non-negative"):
            sample_targets(name, -1, 500.0, seed=0)

    @pytest.mark.parametrize("sampler", [taxi_locations, checkin_locations])
    def test_samplers_refuse(self, sampler, db):
        with pytest.raises(DatasetError, match="non-negative"):
            sampler(db, -1, rng=0)
