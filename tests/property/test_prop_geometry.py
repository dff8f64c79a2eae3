"""Property-based tests for the geometry substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.bbox import BBox
from repro.geo.disk import Disk, covers, lens_area
from repro.geo.point import Point
from repro.geo.region import DiskIntersection
from tests.geo.test_region import _reference_area, _reference_centroid

coords = st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False)
radii = st.floats(0.1, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def points(draw):
    return Point(draw(coords), draw(coords))


@st.composite
def disks(draw):
    return Disk(draw(points()), draw(radii))


class TestDistanceProperties:
    @given(points(), points())
    def test_symmetry(self, a, b):
        assert a.distance_to(b) == b.distance_to(a)

    @given(points(), points(), points())
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(points())
    def test_identity(self, p):
        assert p.distance_to(p) == 0.0


class TestDiskProperties:
    @given(disks(), disks())
    @settings(max_examples=60)
    def test_lens_area_bounded_by_smaller_disk(self, a, b):
        area = lens_area(a, b)
        assert -1e-9 <= area <= min(a.area, b.area) + 1e-6

    @given(disks(), disks())
    @settings(max_examples=60)
    def test_lens_area_symmetric(self, a, b):
        assert lens_area(a, b) == lens_area(b, a)

    @given(points(), points(), radii)
    @settings(max_examples=60)
    def test_coverage_property_of_region_attack(self, l, p, r):
        """dist(p, l) <= r implies Disk(p, 2r) covers Disk(l, r)."""
        if l.distance_to(p) <= r:
            assert covers(Disk(p, 2 * r), Disk(l, r))

    @given(disks())
    @settings(max_examples=40)
    def test_sampled_points_are_inside(self, d):
        pts = d.sample_points(64, np.random.default_rng(0))
        assert d.contains_many(pts[:, 0], pts[:, 1]).all()


#: Where a constraint disk sits relative to the base disk.
_PLACEMENTS = (
    "overlapping",
    "external_tangent",
    "internal_tangent",
    "concentric",
    "disjoint",
    "nested",
    "radial_boundary",
    "tangent_boundary",
)


@st.composite
def estimator_cases(draw):
    """A region, a sample count and a seed for the estimator's draws.

    Each constraint overlaps the base, touches it from outside or inside,
    shares its centre, misses it or nests with it, at the base's radius or
    its own.  The two boundary placements pass a constraint's circle
    within 1e-9 m of one of the samples the seed draws: where the circle
    comes nearest the base centre along that sample's ray, or where the ray
    touches it.  Half the cases hold one boundary disk alone, so that it is
    the classifying disk and its sample meets the classifier's margin.
    """
    base = Disk(
        Point(draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))), draw(st.floats(1.0, 4e3))
    )
    n_samples = draw(st.integers(1, 64) | st.integers(1, 20_000))
    seed = draw(st.integers(0, 2**32 - 1))
    pts = base.sample_points(n_samples, np.random.default_rng(seed))
    if draw(st.booleans()):
        placements, n_constraints = _PLACEMENTS[-2:], 1
    else:
        placements, n_constraints = _PLACEMENTS, draw(st.integers(0, 2) | st.integers(0, 20))
    base_r = base.radius
    constraints = []
    for _ in range(n_constraints):
        placement = draw(st.sampled_from(placements))
        r = base_r if draw(st.booleans()) else draw(st.floats(1.0, 4e3))
        if placement.endswith("_boundary"):
            px, py = pts[draw(st.integers(0, n_samples - 1))]
            ex, ey = px - base.center.x, py - base.center.y
            norm = math.hypot(ex, ey) or 1.0
            ex, ey = ex / norm, ey / norm
            if placement == "tangent_boundary":
                ex, ey = (-ey, ex) if draw(st.booleans()) else (ey, -ex)
            centre = Point(px + r * ex, py + r * ey)
            nudge = draw(st.just(0.0) | st.floats(-1e-9, 1e-9))
            constraints.append(Disk(centre, r + nudge))
            continue
        gap = {
            "overlapping": draw(st.floats(abs(base_r - r), base_r + r)),
            "external_tangent": base_r + r,
            "internal_tangent": abs(base_r - r),
            "concentric": 0.0,
            "disjoint": base_r + r + draw(st.floats(1e-6, 1e4)),
            "nested": draw(st.floats(0.0, abs(base_r - r))),
        }[placement]
        # Bearings near 0 put the classifier's bearing window across the
        # wrap at 2*pi.
        bearing = draw(st.floats(-0.5, 0.5) | st.floats(0.0, 2 * math.pi))
        centre = base.center.translated(gap * math.cos(bearing), gap * math.sin(bearing))
        constraints.append(Disk(centre, r))
    return DiskIntersection(base, tuple(constraints)), n_samples, seed


class TestDiskIntersectionEstimator:
    @given(estimator_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop_bit_for_bit(self, case):
        """Area, centroid and generator state equal the every-sample loop's.

        Only the order of work differs from the loop, so this holds for
        whatever ``cos``/``sin`` the platform's NumPy dispatches, as long as
        an element's result does not depend on its position in the array.
        """
        region, n_samples, seed = case
        for estimate, reference in (
            (region.area, _reference_area),
            (region.centroid, _reference_centroid),
        ):
            gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            assert estimate(n_samples, gen) == reference(region, n_samples, ref_gen)
            assert gen.bit_generator.state == ref_gen.bit_generator.state


class TestBBoxProperties:
    @given(coords, coords, st.floats(0.1, 1e4), st.floats(0.1, 1e4))
    @settings(max_examples=60)
    def test_quadrants_partition(self, x, y, w, h):
        box = BBox(x, y, x + w, y + h)
        quads = box.quadrants()
        assert sum(q.area for q in quads) == pytest.approx(box.area, rel=1e-9)
        assert all(box.intersects(q) for q in quads)

    @given(coords, coords, st.floats(0.1, 1e4), st.floats(0.1, 1e4), points())
    @settings(max_examples=60)
    def test_clamp_result_inside(self, x, y, w, h, p):
        box = BBox(x, y, x + w, y + h)
        assert box.contains(box.clamp(p))

    @given(coords, coords, st.floats(0.1, 1e4), st.floats(0.1, 1e4), points())
    @settings(max_examples=60)
    def test_clamp_is_idempotent(self, x, y, w, h, p):
        box = BBox(x, y, x + w, y + h)
        once = box.clamp(p)
        assert box.clamp(once) == once
