"""Property-based tests for the spatial indexes and frequency invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geo.grid_index import GridIndex
from repro.geo.point import Point

point_sets = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 80), st.just(2)),
    elements=st.floats(-1_000, 1_000, allow_nan=False, allow_infinity=False),
)
queries = st.tuples(
    st.floats(-1_200, 1_200, allow_nan=False),
    st.floats(-1_200, 1_200, allow_nan=False),
)


class TestGridIndexProperties:
    @given(point_sets, queries, st.floats(0.0, 500.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_query_radius_matches_brute_force(self, pts, q, radius):
        index = GridIndex(pts, cell_size=75.0)
        center = Point(*q)
        got = set(index.query_radius(center, radius).tolist())
        dist = np.hypot(pts[:, 0] - center.x, pts[:, 1] - center.y)
        expected = set(np.flatnonzero(dist <= radius).tolist())
        assert got == expected

    @given(point_sets, queries, st.floats(1.0, 300.0), st.floats(1.0, 300.0))
    @settings(max_examples=60, deadline=None)
    def test_radius_monotonicity(self, pts, q, r1, r2):
        index = GridIndex(pts, cell_size=75.0)
        center = Point(*q)
        small, large = sorted([r1, r2])
        inner = set(index.query_radius(center, small).tolist())
        outer = set(index.query_radius(center, large).tolist())
        assert inner <= outer

