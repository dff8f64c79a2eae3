"""Tests for the POI database (the GSP query interfaces)."""

import numpy as np
import pytest

from repro.core.errors import DatasetError
from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.poi.database import POIDatabase
from repro.poi.models import POI
from repro.poi.vocabulary import TypeVocabulary


class TestConstruction:
    def test_shape_validation(self):
        vocab = TypeVocabulary(["a"])
        with pytest.raises(DatasetError):
            POIDatabase(np.zeros((2, 3)), np.zeros(2, dtype=int), vocab)
        with pytest.raises(DatasetError):
            POIDatabase(np.zeros((2, 2)), np.zeros(3, dtype=int), vocab)

    def test_type_range_validation(self):
        vocab = TypeVocabulary(["a", "b"])
        with pytest.raises(DatasetError):
            POIDatabase(np.zeros((1, 2)), np.array([5]), vocab)

    def test_empty_without_bounds_raises(self):
        vocab = TypeVocabulary(["a"])
        with pytest.raises(DatasetError):
            POIDatabase(np.empty((0, 2)), np.empty(0, dtype=int), vocab)

    def test_from_pois(self):
        vocab = TypeVocabulary(["a", "b"])
        pois = [POI(0, Point(1, 2), 0), POI(1, Point(3, 4), 1)]
        db = POIDatabase.from_pois(pois, vocab)
        assert len(db) == 2
        assert db.type_of(1) == 1


class TestQueries:
    def test_query_radius(self, tiny_db):
        # Around (500, 500): the three central POIs within 60 m.
        got = set(tiny_db.query(Point(500, 500), 60.0).tolist())
        assert got == {2, 3, 5}

    def test_freq_counts_types(self, tiny_db):
        freq = tiny_db.freq(Point(500, 500), 60.0)
        # POIs 2, 3 are type b(1); POI 5 is type a(0).
        np.testing.assert_array_equal(freq, [1, 2, 0])

    def test_freq_full_city(self, tiny_db):
        freq = tiny_db.freq(Point(500, 500), 10_000.0)
        np.testing.assert_array_equal(freq, tiny_db.city_frequency)

    def test_freq_empty_region(self, tiny_db):
        freq = tiny_db.freq(Point(0, 1000), 10.0)
        assert freq.sum() == 0
        assert freq.shape == (3,)

    def test_freq_at_poi_matches_freq(self, tiny_db):
        direct = tiny_db.freq(tiny_db.location_of(2), 100.0)
        cached = tiny_db.freq_at_poi(2, 100.0)
        np.testing.assert_array_equal(direct, cached)

    def test_freq_at_poi_cache_is_reused_and_readonly(self, tiny_db):
        a = tiny_db.freq_at_poi(0, 250.0)
        b = tiny_db.freq_at_poi(0, 250.0)
        np.testing.assert_array_equal(a, b)
        # Both are views of the same stored row, which anchor_freqs gathers.
        assert np.shares_memory(a, b)
        np.testing.assert_array_equal(a, tiny_db.anchor_freqs(250.0, [0])[0])
        with pytest.raises(ValueError):
            a[0] = 99

    def test_clear_cache(self, tiny_db):
        a = tiny_db.freq_at_poi(1, 123.0)
        tiny_db.clear_cache()
        b = tiny_db.freq_at_poi(1, 123.0)
        assert a is not b
        np.testing.assert_array_equal(a, b)


class TestCityAggregates:
    def test_city_frequency(self, tiny_db):
        np.testing.assert_array_equal(tiny_db.city_frequency, [3, 2, 1])

    def test_city_frequency_readonly(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.city_frequency[0] = 7

    def test_infrequent_ranks(self, tiny_db):
        # Type c (count 1) ranks 1, b (2) ranks 2, a (3) ranks 3.
        np.testing.assert_array_equal(tiny_db.infrequent_ranks, [3, 2, 1])

    def test_pois_of_type(self, tiny_db):
        assert set(tiny_db.pois_of_type(0).tolist()) == {0, 1, 5}
        assert set(tiny_db.pois_of_type(2).tolist()) == {4}

    def test_pois_of_type_is_read_only(self, tiny_db):
        # A write through the returned array used to reach the database's
        # own per-type index and every later candidate set.
        ids = tiny_db.pois_of_type(0)
        with pytest.raises(ValueError):
            ids[0] = 99999
        np.testing.assert_array_equal(tiny_db.pois_of_type(0), [0, 1, 5])

    def test_pois_of_type_out_of_range(self, tiny_db):
        with pytest.raises(DatasetError):
            tiny_db.pois_of_type(99)

    def test_rarest_present_type(self, tiny_db):
        # Vector containing types a and c: c is city-rarest.
        assert tiny_db.rarest_present_type(np.array([2, 0, 1])) == 2
        assert tiny_db.rarest_present_type(np.array([1, 1, 0])) == 1
        assert tiny_db.rarest_present_type(np.array([0, 0, 0])) is None

    def test_rarest_present_type_shape_check(self, tiny_db):
        with pytest.raises(DatasetError):
            tiny_db.rarest_present_type(np.array([1, 2]))


class TestConsistencyOnGeneratedCity:
    def test_city_frequency_sums_to_poi_count(self, db):
        assert int(db.city_frequency.sum()) == len(db)

    def test_ranks_are_a_permutation(self, db):
        ranks = db.infrequent_ranks
        assert sorted(ranks.tolist()) == list(range(1, db.n_types + 1))

    def test_rank_ordering_respects_counts(self, db):
        freq = db.city_frequency
        ranks = db.infrequent_ranks
        order = np.argsort(ranks)
        sorted_counts = freq[order]
        assert (np.diff(sorted_counts) >= 0).all()

    def test_freq_monotone_in_radius(self, db, rng):
        b = db.bounds
        for _ in range(5):
            center = b.sample_point(rng)
            small = db.freq(center, 400.0)
            large = db.freq(center, 1200.0)
            assert (large >= small).all()

    def test_positions_readonly(self, db):
        with pytest.raises(ValueError):
            db.positions[0, 0] = 1.0
