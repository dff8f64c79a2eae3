"""Tests for distance computations."""

import numpy as np
import pytest

from repro.geo.distance import haversine, l1_distance
from repro.geo.point import GeoPoint


class TestHaversine:
    def test_zero_distance(self):
        p = GeoPoint(40.0, 116.0)
        assert haversine(p, p) == 0.0

    def test_equator_degree(self):
        d = haversine(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
        assert d == pytest.approx(111_195, rel=1e-3)

    def test_symmetric(self):
        a, b = GeoPoint(39.9, 116.4), GeoPoint(40.7, -74.0)
        assert haversine(a, b) == pytest.approx(haversine(b, a))

    def test_beijing_to_nyc_magnitude(self):
        d = haversine(GeoPoint(39.9, 116.4), GeoPoint(40.71, -74.01))
        assert 10_900_000 < d < 11_100_000


class TestL1Distance:
    def test_basic(self):
        assert l1_distance(np.array([1, 2, 3]), np.array([3, 2, 0])) == 5.0

    def test_zero_for_identical(self):
        v = np.array([5, 0, 7])
        assert l1_distance(v, v) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            l1_distance(np.array([1, 2]), np.array([1, 2, 3]))
