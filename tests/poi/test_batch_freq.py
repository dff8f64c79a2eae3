"""The batch Freq engine must be bit-identical to the scalar oracle.

``POIDatabase.freq_batch`` and the per-radius anchor matrix behind
``anchor_freqs`` power every experiment runner; any divergence from the
scalar ``freq``/``freq_at_poi`` path would silently change the paper's
numbers.  These tests pin the equivalence across radii, input forms,
and edge cases.
"""

import numpy as np
import pytest

from repro.core.errors import DatasetError
from repro.geo.point import Point

RADII = (250.0, 500.0, 1_000.0, 2_000.0)


class TestFreqBatch:
    @pytest.mark.parametrize("radius", RADII)
    def test_matches_scalar_freq(self, db, radius):
        rng = np.random.default_rng(int(radius))
        b = db.bounds
        xs = rng.uniform(b.min_x - radius, b.max_x + radius, 50)
        ys = rng.uniform(b.min_y - radius, b.max_y + radius, 50)
        points = [Point(float(x), float(y)) for x, y in zip(xs, ys)]
        batch = db.freq_batch(points, radius)
        scalar = np.stack([db.freq(p, radius) for p in points])
        np.testing.assert_array_equal(batch, scalar)

    def test_accepts_ndarray_and_tuples(self, db, rng):
        xy = rng.uniform(0, 1000, size=(8, 2))
        from_array = db.freq_batch(xy, 400.0)
        from_tuples = db.freq_batch([tuple(row) for row in xy], 400.0)
        from_points = db.freq_batch([Point(float(x), float(y)) for x, y in xy], 400.0)
        np.testing.assert_array_equal(from_array, from_tuples)
        np.testing.assert_array_equal(from_array, from_points)

    def test_empty_input(self, db):
        out = db.freq_batch([], 500.0)
        assert out.shape == (0, db.n_types)

    def test_rejects_bad_shapes(self, db):
        with pytest.raises(DatasetError):
            db.freq_batch(np.zeros((3, 3)), 500.0)

    def test_large_batch_chunks_consistently(self, db):
        # Larger than one internal chunk at a big radius.
        rng = np.random.default_rng(9)
        xy = rng.uniform(0, 3000, size=(700, 2))
        batch = db.freq_batch(xy, 2_000.0)
        scalar = np.stack(
            [db.freq(Point(float(x), float(y)), 2_000.0) for x, y in xy]
        )
        np.testing.assert_array_equal(batch, scalar)


class TestAnchorFreqs:
    @pytest.mark.parametrize("radius", RADII)
    def test_rows_match_scalar_freq_at_poi(self, db, radius):
        indices = np.arange(0, len(db), 37)
        block = db.anchor_freqs(radius, indices)
        for row, poi in zip(block, indices):
            np.testing.assert_array_equal(row, db.freq_at_poi(int(poi), radius))

    def test_full_matrix_shape_and_readonly(self, db):
        matrix = db.anchor_freqs(500.0)
        assert matrix.shape == (len(db), db.n_types)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1

    def test_freq_at_poi_is_row_view(self, tiny_db):
        # A read-only view of the stored row, shared by repeated calls; the
        # anchor_freqs matrix is a separate gather with the same values.
        row = tiny_db.freq_at_poi(2, 300.0)
        again = tiny_db.freq_at_poi(2, 300.0)
        matrix = tiny_db.anchor_freqs(300.0)
        assert np.shares_memory(row, again)
        assert not row.flags.writeable
        np.testing.assert_array_equal(row, matrix[2])

    def test_rows_survive_store_growth(self, db):
        # Fills of growing size reallocate the store's row block at every
        # step; each row, and each view taken before a reallocation, must
        # keep reading Freq at its POI.
        radius = 650.0
        db.clear_cache()
        order = np.random.default_rng(31).permutation(len(db))
        views, start = {}, 0
        for size in (1, 1, 3, 8, 20, 60, 150):
            batch = order[start : start + size]
            start += size
            block = db.anchor_freqs(radius, np.concatenate([batch, batch[:1]]))
            np.testing.assert_array_equal(block[-1], block[0])
            views[int(batch[-1])] = db.freq_at_poi(int(batch[-1]), radius)
            views[int(order[start])] = db.freq_at_poi(int(order[start]), radius)
            start += 1
            for poi, view in views.items():
                np.testing.assert_array_equal(view, db.freq(db.location_of(poi), radius))
        filled = order[:start]
        expected = np.stack([db.freq(db.location_of(int(p)), radius) for p in filled])
        np.testing.assert_array_equal(db.anchor_freqs(radius, filled), expected)
        first = int(order[0])
        assert not np.shares_memory(views[first], db.freq_at_poi(first, radius))

    def test_lazy_fill_is_consistent(self, tiny_db):
        tiny_db.clear_cache()
        # Scalar fill first, then the batch fill of the rest must agree.
        scalar = tiny_db.freq_at_poi(4, 200.0).copy()
        matrix = tiny_db.anchor_freqs(200.0)
        np.testing.assert_array_equal(matrix[4], scalar)
        expected = np.stack(
            [tiny_db.freq(tiny_db.location_of(i), 200.0) for i in range(len(tiny_db))]
        )
        np.testing.assert_array_equal(matrix, expected)

    def test_clear_cache_resets_matrices(self, tiny_db):
        a = tiny_db.anchor_freqs(150.0)
        tiny_db.clear_cache()
        b = tiny_db.anchor_freqs(150.0)
        assert a is not b
        np.testing.assert_array_equal(a, b)
