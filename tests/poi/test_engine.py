"""The unified FreqEngine facade: tiering, modes, provenance.

The engine's contract is bit-identity: whatever the mode (banded,
pyramid, or the radius-tiered auto), ``freq_batch`` must return exactly
the histograms the scalar ``freq`` loop returns.  These tests pin that at
the boundary radii where the pyramid's geometry is most fragile — radii
smaller than one cell, radii covering the whole grid, targets on grid
edges and corners, and targets outside the bounds.
"""

import numpy as np
import pytest

from repro.core.errors import DatasetError, GeometryError
from repro.geo.point import Point
from repro.poi.engine import (
    ENGINE_MODES,
    FreqEngine,
    QueryPlan,
    collecting_query_plans,
    summarize_query_plans,
)


def scalar_freqs(db, coords, radius):
    return np.stack([db.freq(Point(x, y), radius) for x, y in coords])


def boundary_coords(db, rng, n_random=40):
    """Targets at the corners, on the edges, outside, and inside the grid."""
    b = db.grid.bounds
    corners = [
        (b.min_x, b.min_y),
        (b.max_x, b.min_y),
        (b.min_x, b.max_y),
        (b.max_x, b.max_y),
    ]
    mid_x, mid_y = (b.min_x + b.max_x) / 2, (b.min_y + b.max_y) / 2
    edges = [(mid_x, b.min_y), (mid_x, b.max_y), (b.min_x, mid_y), (b.max_x, mid_y)]
    outside = [
        (b.min_x - 3_000.0, mid_y),
        (b.max_x + 3_000.0, b.max_y + 3_000.0),
    ]
    random = rng.uniform((b.min_x, b.min_y), (b.max_x, b.max_y), size=(n_random, 2))
    return np.vstack([np.array(corners + edges + outside), random])


class TestModeSelection:
    def test_engine_modes_menu(self):
        assert ENGINE_MODES == ("auto", "banded", "pyramid")

    def test_invalid_mode_rejected(self, db):
        with pytest.raises(DatasetError, match="engine must be"):
            FreqEngine(db, mode="quadtree")
        engine = FreqEngine(db)
        with pytest.raises(DatasetError, match="engine must be"):
            engine.mode = "nope"

    def test_auto_tiers_by_radius(self, db):
        engine = FreqEngine(db)
        cell = db.grid.cell_size
        threshold = FreqEngine.PYRAMID_THRESHOLD_CELLS * cell
        assert engine.select_tier(threshold / 4) == "banded"
        assert engine.select_tier(threshold * 4) == "pyramid"

    @pytest.mark.parametrize("radius", (float("nan"), float("inf"), -1.0))
    def test_non_finite_radius_raises(self, db, radius):
        # A NaN radius used to count nothing and an infinite one used to
        # return zeros, where a 1e9 m radius counts every POI.  A negative
        # one is rejected alike, even where no anchor row needs filling.
        with pytest.raises(DatasetError):
            db.freq(Point(0.0, 0.0), radius)
        with pytest.raises(DatasetError):
            db.freq_batch(np.zeros((2, 2)), radius)
        with pytest.raises(DatasetError):
            db.anchor_freqs(radius, [0, 1])
        with pytest.raises(DatasetError):
            db.anchor_freqs(radius, [])
        with pytest.raises(DatasetError):
            db.freq_at_poi(0, radius)
        with pytest.raises(GeometryError):
            db.freq_bounds(radius, [0])
        with pytest.raises(GeometryError):
            db.query_batch(np.zeros((2, 2)), radius)

    def test_forced_modes_ignore_radius(self, db):
        assert FreqEngine(db, mode="banded").select_tier(1e6) == "banded"
        assert FreqEngine(db, mode="pyramid").select_tier(1.0) == "pyramid"


class TestBitIdentityAtBoundaryRadii:
    # Radii from "smaller than one cell" through "covers the whole grid";
    # the small test city spans 10 km on 500 m cells.
    RADII = (0.0, 1.0, 120.0, 499.0, 500.0, 2_400.0, 7_000.0, 25_000.0)

    @pytest.mark.parametrize("radius", RADII)
    def test_all_modes_match_scalar(self, db, rng, radius):
        coords = boundary_coords(db, rng)
        want = scalar_freqs(db, coords, radius)
        for mode in ENGINE_MODES:
            got = FreqEngine(db, mode=mode).freq_batch(coords, radius)
            np.testing.assert_array_equal(got, want, err_msg=f"mode={mode}")

    def test_pyramid_on_tiny_db_edges(self, tiny_db):
        # 1 km bounds on 100 m cells: every target sits on a cell border.
        coords = boundary_coords(tiny_db, np.random.default_rng(3), n_random=20)
        for radius in (50.0, 150.0, 400.0, 1_500.0):
            want = scalar_freqs(tiny_db, coords, radius)
            got = FreqEngine(tiny_db, mode="pyramid").freq_batch(coords, radius)
            np.testing.assert_array_equal(got, want, err_msg=f"radius={radius}")

    def test_scalar_freq_routes_through_engine(self, db):
        center = Point(*db.positions[0])
        np.testing.assert_array_equal(
            db.freq(center, 900.0),
            FreqEngine(db, mode="banded").freq(center.x, center.y, 900.0),
        )


class TestQueryPlanProvenance:
    def test_plans_are_recorded_per_call(self, db, rng):
        coords = rng.uniform(2_000, 8_000, size=(10, 2))
        with collecting_query_plans() as plans:
            FreqEngine(db, mode="banded").freq_batch(coords, 700.0)
            FreqEngine(db, mode="pyramid").freq_batch(coords, 4_000.0)
        assert [p.tier for p in plans] == ["banded", "pyramid"]
        assert all(isinstance(p, QueryPlan) for p in plans)
        assert all(p.n_queries == 10 for p in plans)
        assert plans[0].radius == 700.0
        assert plans[1].engine == "pyramid"

    def test_nothing_collected_outside_context(self, db, rng):
        coords = rng.uniform(2_000, 8_000, size=(4, 2))
        with collecting_query_plans() as plans:
            pass
        FreqEngine(db).freq_batch(coords, 500.0)
        assert plans == []

    def test_summary_shape(self, db, rng):
        coords = rng.uniform(2_000, 8_000, size=(6, 2))
        with collecting_query_plans() as plans:
            db.freq_batch(coords, 600.0)
            db.freq_batch(coords, 6_000.0)
        summary = summarize_query_plans(plans)
        assert set(summary) == {"engines", "calls"}
        tiers = {row["tier"] for row in summary["calls"]}
        assert tiers == {"banded", "pyramid"}
        for row in summary["calls"]:
            assert row["calls"] >= 1

    def test_run_many_folds_summary_into_provenance(self, db, rng, tmp_path):
        from repro.experiments.results import ExperimentResult
        from repro.experiments.runner import run_many
        from repro.experiments.scale import ExperimentScale

        coords = rng.uniform(2_000, 8_000, size=(5, 2))

        def run_fn(experiment_id, scale):
            db.freq_batch(coords, 5_000.0)
            return ExperimentResult(experiment_id=experiment_id, title="t")

        scale = ExperimentScale(
            name="ci", n_targets=1, n_train=1, n_validation=1,
            n_area_samples=1, n_taxis=1, n_users=1, seed=0,
        )
        summary = run_many(["fig2"], scale, run_fn=run_fn)
        (run,) = summary.runs
        prov = run.result.provenance["freq_engine"]
        assert any(row["op"] == "freq_batch" for row in prov["calls"])
