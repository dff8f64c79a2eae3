"""Tests for disks, coverage, and the lens-area formula."""

import math

import numpy as np
import pytest

from repro.core.errors import GeometryError
from repro.geo.disk import Disk, covers, lens_area
from repro.geo.point import Point


class TestDisk:
    def test_area(self):
        assert Disk(Point(0, 0), 2.0).area == pytest.approx(4 * math.pi)

    def test_negative_radius_raises(self):
        with pytest.raises(GeometryError):
            Disk(Point(0, 0), -1.0)

    @pytest.mark.parametrize("radius", (float("nan"), float("inf")))
    def test_non_finite_radius_raises(self, radius):
        with pytest.raises(GeometryError):
            Disk(Point(0, 0), radius)

    def test_contains_boundary(self):
        d = Disk(Point(0, 0), 5.0)
        assert d.contains(Point(5, 0))
        assert d.contains(Point(0, 0))
        assert not d.contains(Point(5.01, 0))

    def test_contains_many_matches_scalar(self):
        d = Disk(Point(1, 1), 2.0)
        xs = np.array([1.0, 3.0, 3.1, -1.0])
        ys = np.array([1.0, 1.0, 1.0, 1.0])
        got = d.contains_many(xs, ys)
        expected = [d.contains(Point(x, y)) for x, y in zip(xs, ys)]
        assert list(got) == expected

    def test_sample_points_inside(self, rng):
        d = Disk(Point(10, -5), 3.0)
        pts = d.sample_points(500, rng)
        assert pts.shape == (500, 2)
        assert d.contains_many(pts[:, 0], pts[:, 1]).all()

    def test_sample_points_fill_the_disk(self, rng):
        # Mean radius of uniform samples in a disk is 2R/3.
        d = Disk(Point(0, 0), 3.0)
        pts = d.sample_points(20_000, rng)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert radii.mean() == pytest.approx(2.0, abs=0.05)


class TestCovers:
    def test_coverage_property_of_the_attack(self):
        """If dist(p, l) <= r then Disk(p, 2r) covers Disk(l, r)."""
        r = 100.0
        l = Point(0, 0)
        p = Point(60, 80)  # dist = 100 = r
        assert covers(Disk(p, 2 * r), Disk(l, r))

    def test_not_covered_when_too_far(self):
        r = 100.0
        assert not covers(Disk(Point(150, 0), 2 * r), Disk(Point(0, 0), r))

    def test_identical_disks_cover(self):
        d = Disk(Point(1, 1), 5.0)
        assert covers(d, d)


class TestLensArea:
    def test_disjoint(self):
        assert lens_area(Disk(Point(0, 0), 1.0), Disk(Point(3, 0), 1.0)) == 0.0

    def test_contained(self):
        big = Disk(Point(0, 0), 5.0)
        small = Disk(Point(1, 0), 1.0)
        assert lens_area(big, small) == pytest.approx(math.pi)

    def test_identical(self):
        d = Disk(Point(2, 2), 3.0)
        assert lens_area(d, d) == pytest.approx(d.area)

    def test_symmetric(self):
        a = Disk(Point(0, 0), 2.0)
        b = Disk(Point(1.5, 1.0), 3.0)
        assert lens_area(a, b) == pytest.approx(lens_area(b, a))

    def test_half_overlap_known_value(self):
        # Two unit circles with centers distance 1 apart:
        # area = 2*acos(1/2) - sqrt(3)/2 ... (standard lens formula)
        a = Disk(Point(0, 0), 1.0)
        b = Disk(Point(1, 0), 1.0)
        expected = 2 * math.acos(0.5) - math.sin(2 * math.acos(0.5))
        assert lens_area(a, b) == pytest.approx(expected)

    def test_tangent_circles_zero(self):
        a = Disk(Point(0, 0), 1.0)
        b = Disk(Point(2, 0), 1.0)
        assert lens_area(a, b) == pytest.approx(0.0, abs=1e-12)
