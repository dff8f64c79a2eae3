"""Batch grid queries must be bit-identical to the scalar path.

``GridIndex.query_batch`` answers many disk queries in one vectorized
pass; these property-style tests compare its CSR output against
``query_radius`` called per center, across random point sets, cell
sizes, radii (including 0), and out-of-bounds centers.
"""

import numpy as np
import pytest

from repro.core.errors import GeometryError
from repro.geo import grid_index
from repro.geo.grid_index import GridIndex
from repro.geo.point import Point

RADII = (0.0, 10.0, 75.0, 300.0, 2_000.0)


def scalar_rows(index, centers, radius):
    return [
        index.query_radius(Point(float(x), float(y)), radius) for x, y in centers
    ]


def batch_rows(index, centers, radius):
    indices, offsets = index.query_batch(centers, radius)
    return [indices[offsets[i] : offsets[i + 1]] for i in range(len(centers))]


class TestQueryBatch:
    @pytest.mark.parametrize("radius", RADII)
    def test_matches_scalar_query(self, radius):
        rng = np.random.default_rng(101)
        points = rng.uniform(0, 1000, size=(600, 2))
        index = GridIndex(points, cell_size=40.0)
        centers = rng.uniform(-150, 1150, size=(40, 2))
        for got, want in zip(batch_rows(index, centers, radius), scalar_rows(index, centers, radius)):
            np.testing.assert_array_equal(got, want)

    def test_random_trials_vary_density_and_cell(self):
        rng = np.random.default_rng(7)
        for trial in range(15):
            n = int(rng.integers(0, 400))
            points = rng.uniform(0, 500, size=(n, 2))
            index = GridIndex(points, cell_size=float(rng.uniform(5, 120)))
            centers = rng.uniform(-100, 600, size=(int(rng.integers(1, 30)), 2))
            radius = float(rng.uniform(0, 300))
            for got, want in zip(
                batch_rows(index, centers, radius), scalar_rows(index, centers, radius)
            ):
                np.testing.assert_array_equal(got, want)

    def test_empty_batch(self):
        index = GridIndex(np.random.default_rng(0).uniform(0, 10, (20, 2)), cell_size=2.0)
        indices, offsets = index.query_batch(np.empty((0, 2)), 5.0)
        assert indices.shape == (0,)
        np.testing.assert_array_equal(offsets, [0])

    def test_empty_index(self):
        index = GridIndex(np.empty((0, 2)), cell_size=10.0)
        indices, offsets = index.query_batch([[0.0, 0.0], [5.0, 5.0]], 100.0)
        assert indices.shape == (0,)
        np.testing.assert_array_equal(offsets, [0, 0, 0])

    def test_offsets_are_csr(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 100, (200, 2))
        index = GridIndex(points, cell_size=10.0)
        centers = rng.uniform(0, 100, (9, 2))
        indices, offsets = index.query_batch(centers, 25.0)
        assert offsets.shape == (10,)
        assert offsets[0] == 0
        assert offsets[-1] == len(indices)
        assert bool(np.all(np.diff(offsets) >= 0))

    def test_negative_radius_raises(self):
        index = GridIndex(np.zeros((1, 2)), cell_size=1.0)
        with pytest.raises(GeometryError):
            index.query_batch([[0.0, 0.0]], -1.0)

    @pytest.mark.parametrize("radius", (float("nan"), float("inf")))
    def test_non_finite_radius_raises(self, radius):
        index = GridIndex(np.zeros((1, 2)), cell_size=1.0)
        with pytest.raises(GeometryError):
            index.query_batch([[0.0, 0.0]], radius)
        with pytest.raises(GeometryError):
            index.query_radius(Point(0.0, 0.0), radius)
        with pytest.raises(GeometryError):
            index.disk_column_plan(np.zeros((1, 2)), radius)

    @pytest.mark.parametrize("budget", (1, 7, 40, 300))
    def test_pool_runs_match_scalar_query(self, budget, monkeypatch):
        # A budget far below the batch's pool splits it into many runs of
        # column pairs; at 1 every pair runs alone.
        rng = np.random.default_rng(23)
        points = rng.uniform(0, 1000, size=(800, 2))
        index = GridIndex(points, cell_size=50.0)
        centers = rng.uniform(-100, 1100, size=(60, 2))
        whole_indices, whole_offsets = index.query_batch(centers, 220.0)
        assert len(whole_indices) > 10 * budget
        monkeypatch.setattr(grid_index, "POOL_BUDGET", budget)
        indices, offsets = index.query_batch(centers, 220.0)
        np.testing.assert_array_equal(indices, whole_indices)
        np.testing.assert_array_equal(offsets, whole_offsets)
        assert indices.dtype == np.intp
        for got, want in zip(
            batch_rows(index, centers, 220.0), scalar_rows(index, centers, 220.0)
        ):
            np.testing.assert_array_equal(got, want)

    def test_far_out_of_bounds_centers(self):
        points = np.random.default_rng(1).uniform(0, 50, (80, 2))
        index = GridIndex(points, cell_size=5.0)
        centers = np.array([[1e6, 1e6], [-1e6, 25.0], [25.0, 25.0]])
        rows = batch_rows(index, centers, 30.0)
        assert rows[0].size == 0
        assert rows[1].size == 0
        np.testing.assert_array_equal(rows[2], index.query_radius(Point(25.0, 25.0), 30.0))
