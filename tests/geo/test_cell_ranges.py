"""Cell-range helpers behind the Freq bound sandwich.

``GridIndex.cell_ranges`` must reproduce exactly the cell box a scalar
radius query scans (so a histogram over it upper-bounds any disk count),
and ``interior_cell_ranges`` must only ever name cells whose every point
lies inside the disk (so a histogram over it lower-bounds the disk
count).  Both invariants are checked against brute-force geometry.
"""

import numpy as np
import pytest

from repro.core.errors import GeometryError
from repro.geo.grid_index import GridIndex


def _random_index(rng, n=400, side=900.0, cell=60.0):
    points = rng.uniform(0, side, size=(n, 2))
    return points, GridIndex(points, cell_size=cell)


class TestCellRanges:
    def test_scan_box_contains_every_match(self):
        rng = np.random.default_rng(3)
        points, index = _random_index(rng)
        centers = rng.uniform(-100, 1000, size=(60, 2))
        for radius in (0.0, 45.0, 200.0, 700.0):
            cx0, cx1, cy0, cy1 = index.cell_ranges(centers, radius)
            indices, offsets = index.query_batch(centers, radius)
            for i in range(len(centers)):
                hits = indices[offsets[i] : offsets[i + 1]]
                if not len(hits):
                    continue
                hx, hy = index.cells_of(points[hits])
                assert hx.min() >= cx0[i] and hx.max() <= cx1[i]
                assert hy.min() >= cy0[i] and hy.max() <= cy1[i]

    def test_interior_cells_lie_inside_the_disk(self):
        rng = np.random.default_rng(4)
        _, index = _random_index(rng)
        centers = rng.uniform(0, 900, size=(60, 2))
        nx, ny = index.grid_shape
        for radius in (45.0, 200.0, 700.0):
            ix0, ix1, iy0, iy1 = index.interior_cell_ranges(centers, radius)
            cell = index.cell_size
            bounds = index.bounds
            for i in range(len(centers)):
                if ix1[i] < ix0[i] or iy1[i] < iy0[i]:
                    continue  # empty interior box is always sound
                assert 0 <= ix0[i] and ix1[i] < nx
                assert 0 <= iy0[i] and iy1[i] < ny
                # The farthest corner of the interior box must be within
                # the radius.
                far_x = max(
                    abs(bounds.min_x + ix0[i] * cell - centers[i, 0]),
                    abs(bounds.min_x + (ix1[i] + 1) * cell - centers[i, 0]),
                )
                far_y = max(
                    abs(bounds.min_y + iy0[i] * cell - centers[i, 1]),
                    abs(bounds.min_y + (iy1[i] + 1) * cell - centers[i, 1]),
                )
                assert np.hypot(far_x, far_y) <= radius

    def test_interior_box_is_inside_scan_box(self):
        rng = np.random.default_rng(5)
        _, index = _random_index(rng)
        centers = rng.uniform(0, 900, size=(80, 2))
        for radius in (45.0, 200.0):
            cx0, cx1, cy0, cy1 = index.cell_ranges(centers, radius)
            ix0, ix1, iy0, iy1 = index.interior_cell_ranges(centers, radius)
            nonempty = (ix1 >= ix0) & (iy1 >= iy0)
            assert (ix0 >= cx0)[nonempty].all() and (ix1 <= cx1)[nonempty].all()
            assert (iy0 >= cy0)[nonempty].all() and (iy1 <= cy1)[nonempty].all()

    def test_tiny_radius_has_empty_interior(self):
        rng = np.random.default_rng(6)
        _, index = _random_index(rng)
        centers = rng.uniform(0, 900, size=(10, 2))
        ix0, ix1, iy0, iy1 = index.interior_cell_ranges(centers, 1.0)
        assert ((ix1 < ix0) | (iy1 < iy0)).all()

    @pytest.mark.parametrize("method", ["cell_ranges", "interior_cell_ranges"])
    def test_rejects_bad_input(self, method):
        rng = np.random.default_rng(7)
        _, index = _random_index(rng)
        fn = getattr(index, method)
        with pytest.raises(GeometryError):
            fn(np.zeros((3, 3)), 100.0)
        with pytest.raises(GeometryError):
            fn(np.zeros((3, 2)), -1.0)

    @pytest.mark.parametrize("method", ["cell_ranges", "interior_cell_ranges"])
    @pytest.mark.parametrize("radius", (float("nan"), float("inf")))
    def test_rejects_non_finite_radius(self, method, radius):
        _, index = _random_index(np.random.default_rng(8))
        with pytest.raises(GeometryError):
            getattr(index, method)(np.zeros((3, 2)), radius)
