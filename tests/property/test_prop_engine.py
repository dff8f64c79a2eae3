"""Property-based bit-identity for the Freq query engine tiers.

The pyramid tier's cell classification (interior / boundary band /
outside) and the banded tier's column trimming must both reproduce the
exact disk semantics of the scalar path — one keep decision per POI,
decided by ``np.hypot`` at the boundary.  Hypothesis drives random
cities, random (including out-of-grid) query points, and radii from
sub-cell to grid-covering, asserting all engine modes agree with brute
force bit-for-bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geo.bbox import BBox
from repro.poi.database import POIDatabase
from repro.poi.engine import ENGINE_MODES, FreqEngine
from repro.poi.vocabulary import TypeVocabulary

N_TYPES = 5

point_sets = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 60), st.just(2)),
    elements=st.floats(0.0, 4_000.0, allow_nan=False, allow_infinity=False),
)
type_seeds = st.integers(0, 2**31 - 1)
queries = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 8), st.just(2)),
    elements=st.floats(-1_500.0, 5_500.0, allow_nan=False, allow_infinity=False),
)
# Sub-cell (cell_size=400) through whole-grid radii.
radii = st.one_of(
    st.floats(1.0, 300.0),
    st.floats(300.0, 1_500.0),
    st.floats(1_500.0, 12_000.0),
)


def build_db(pts, type_seed):
    rng = np.random.default_rng(type_seed)
    types = rng.integers(0, N_TYPES, size=len(pts))
    vocab = TypeVocabulary([f"t{i}" for i in range(N_TYPES)])
    return POIDatabase(
        pts, types, vocab, bounds=BBox(0.0, 0.0, 4_000.0, 4_000.0), cell_size=400.0
    )


def brute_force(db, coords, radius):
    d = np.hypot(
        db.positions[None, :, 0] - coords[:, None, 0],
        db.positions[None, :, 1] - coords[:, None, 1],
    )
    keep = d <= radius
    out = np.zeros((len(coords), N_TYPES), dtype=np.int64)
    for i in range(len(coords)):
        out[i] = np.bincount(db.type_ids[keep[i]], minlength=N_TYPES)
    return out


class TestEngineBitIdentity:
    @given(point_sets, type_seeds, queries, radii)
    @settings(max_examples=120, deadline=None)
    def test_every_mode_matches_brute_force(self, pts, type_seed, q, radius):
        db = build_db(pts, type_seed)
        want = brute_force(db, q, radius)
        for mode in ENGINE_MODES:
            got = FreqEngine(db, mode=mode).freq_batch(q, radius)
            np.testing.assert_array_equal(got, want, err_msg=f"mode={mode}")

    @given(point_sets, type_seeds, radii)
    @settings(max_examples=60, deadline=None)
    def test_queries_on_poi_and_cell_corners(self, pts, type_seed, radius):
        """Centers exactly on POIs and on cell-boundary lattice points."""
        db = build_db(pts, type_seed)
        lattice = np.array(
            [[0.0, 0.0], [400.0, 400.0], [2_000.0, 400.0], [4_000.0, 4_000.0]]
        )
        q = np.vstack([db.positions[:4], lattice])
        want = brute_force(db, q, radius)
        for mode in ("banded", "pyramid"):
            got = FreqEngine(db, mode=mode).freq_batch(q, radius)
            np.testing.assert_array_equal(got, want, err_msg=f"mode={mode}")
