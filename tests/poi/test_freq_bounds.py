"""``POIDatabase.freq_bounds`` must sandwich the exact ``Freq`` oracle.

The attacks prune candidate anchors with the bound sandwich: an upper
bound that fails to dominate a released vector rules the candidate out,
a lower bound that already dominates it rules the candidate in, and only
the band in between pays for exact anchor rows.  Soundness therefore
rests entirely on ``lower <= exact <= upper`` holding elementwise for
every POI and radius; these tests pin that invariant plus the read-only
and validation behaviour.
"""

import numpy as np
import pytest

from repro.core.errors import DatasetError

RADII = (250.0, 500.0, 1_000.0, 2_000.0, 4_000.0)


class TestBoundSoundness:
    @pytest.mark.parametrize("radius", RADII)
    def test_sandwich_holds_for_every_poi(self, db, radius):
        exact = db.anchor_freqs(radius)
        upper = db.freq_bounds(radius)
        lower = db.freq_bounds(radius, side="lower")
        assert upper.shape == exact.shape == lower.shape
        assert (upper >= exact).all()
        assert (lower <= exact).all()

    @pytest.mark.parametrize("radius", (300.0, 1_500.0))
    def test_row_blocks_match_full_matrix(self, db, radius):
        rng = np.random.default_rng(int(radius))
        idx = rng.choice(len(db), size=40, replace=False)
        for side in ("upper", "lower"):
            full = db.freq_bounds(radius, side=side)
            block = db.freq_bounds(radius, idx, side=side)
            np.testing.assert_array_equal(block, full[idx])

    def test_bounds_are_trivial_only_when_disk_is(self, db):
        # At a radius far beyond the city, every bound equals the global
        # type histogram (the whole map is inside every disk).
        radius = 1e7
        upper = db.freq_bounds(radius)
        lower = db.freq_bounds(radius, side="lower")
        totals = np.bincount(db.type_ids, minlength=db.n_types)
        np.testing.assert_array_equal(upper, np.broadcast_to(totals, upper.shape))
        np.testing.assert_array_equal(lower, np.broadcast_to(totals, lower.shape))

    def test_lower_bound_can_be_empty_at_tiny_radius(self, db):
        # A disk smaller than a cell contains no whole cell: the inscribed
        # cell box is empty and the lower bound collapses to zero, which is
        # still sound.
        lower = db.freq_bounds(1.0, side="lower")
        assert (lower == 0).all()
        exact = db.anchor_freqs(1.0)
        assert (lower <= exact).all()


class TestBoundCache:
    def test_full_matrix_is_cached_and_read_only(self, db):
        first = db.freq_bounds(750.0)
        assert first.shape == (len(db), db.n_types)
        assert not first.flags.writeable

    def test_rejects_unknown_side(self, db):
        with pytest.raises(DatasetError):
            db.freq_bounds(500.0, side="middle")
