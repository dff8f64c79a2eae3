"""Tests for disk-intersection feasible regions."""

import math

import numpy as np
import pytest

from repro.core.errors import GeometryError
from repro.core.rng import as_generator
from repro.geo.disk import Disk, lens_area
from repro.geo.point import Point
from repro.geo.region import DiskIntersection


def _reference_points(base, n_samples, gen):
    """The estimator's draws: every sample's coordinates, as an ``(n, 2)`` array."""
    theta = gen.uniform(0.0, 2 * math.pi, size=n_samples)
    rad = base.radius * np.sqrt(gen.uniform(0.0, 1.0, size=n_samples))
    return np.column_stack(
        [base.center.x + rad * np.cos(theta), base.center.y + rad * np.sin(theta)]
    )


def _reference_inside(disk, pts):
    dx = pts[:, 0] - disk.center.x
    dy = pts[:, 1] - disk.center.y
    return dx * dx + dy * dy <= disk.radius * disk.radius


def _reference_area(region, n_samples=20_000, rng=None):
    """Every sample tested against every disk, which ``DiskIntersection.area`` must match."""
    if n_samples <= 0:
        raise GeometryError(f"n_samples must be positive, got {n_samples}")
    if not region.constraints:
        return region.base.area
    gen = as_generator(rng)
    pts = _reference_points(region.base, n_samples, gen)
    keep = np.ones(n_samples, dtype=bool)
    for d in region.constraints:
        keep &= _reference_inside(d, pts)
        if not keep.any():
            return 0.0
    return region.base.area * float(keep.mean())


def _reference_centroid(region, n_samples=20_000, rng=None):
    """The loop form of ``DiskIntersection.centroid``."""
    gen = as_generator(rng)
    pts = _reference_points(region.base, n_samples, gen)
    keep = np.ones(n_samples, dtype=bool)
    for d in region.constraints:
        keep &= _reference_inside(d, pts)
    if not keep.any():
        return None
    sel = pts[keep]
    return Point(float(sel[:, 0].mean()), float(sel[:, 1].mean()))


class TestDiskIntersection:
    def test_no_constraints_is_base_area(self):
        region = DiskIntersection(Disk(Point(0, 0), 10.0))
        assert region.area() == pytest.approx(100 * math.pi)

    def test_contains_requires_all_disks(self):
        region = DiskIntersection(
            Disk(Point(0, 0), 10.0), (Disk(Point(15, 0), 10.0),)
        )
        assert region.contains(Point(7, 0))
        assert not region.contains(Point(-7, 0))  # outside constraint
        assert not region.contains(Point(16, 0))  # outside base

    def test_monte_carlo_matches_lens_area(self):
        base = Disk(Point(0, 0), 100.0)
        other = Disk(Point(120, 0), 100.0)
        region = DiskIntersection(base, (other,))
        exact = lens_area(base, other)
        estimate = region.area(n_samples=60_000, rng=3)
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_empty_intersection_has_zero_area(self):
        region = DiskIntersection(
            Disk(Point(0, 0), 10.0), (Disk(Point(100, 0), 10.0),)
        )
        assert region.area(n_samples=5_000, rng=1) == 0.0

    def test_area_decreases_with_more_constraints(self):
        base = Disk(Point(0, 0), 100.0)
        r1 = DiskIntersection(base, (Disk(Point(50, 0), 100.0),))
        r2 = r1.with_constraint(Disk(Point(0, 80), 100.0))
        a1 = r1.area(n_samples=30_000, rng=5)
        a2 = r2.area(n_samples=30_000, rng=5)
        assert a2 <= a1

    def test_centroid_inside_region(self):
        base = Disk(Point(0, 0), 100.0)
        region = DiskIntersection(base, (Disk(Point(120, 0), 100.0),))
        c = region.centroid(n_samples=20_000, rng=2)
        assert c is not None
        assert region.contains(c)

    def test_centroid_none_for_empty_region(self):
        region = DiskIntersection(
            Disk(Point(0, 0), 1.0), (Disk(Point(100, 0), 1.0),)
        )
        assert region.centroid(n_samples=2_000, rng=2) is None

    def test_invalid_sample_count_raises(self):
        region = DiskIntersection(Disk(Point(0, 0), 1.0))
        with pytest.raises(GeometryError):
            region.area(n_samples=0)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_centroid_rejects_non_positive_sample_counts(self, n_samples):
        region = DiskIntersection(Disk(Point(0, 0), 1.0), (Disk(Point(0.5, 0), 1.0),))
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        with pytest.raises(GeometryError):
            region.centroid(n_samples=n_samples, rng=gen)
        with pytest.raises(GeometryError):
            region.area(n_samples=n_samples, rng=gen)
        assert gen.bit_generator.state == state
