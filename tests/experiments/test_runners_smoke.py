"""Smoke tests: every figure runner executes end-to-end at micro scale.

These use the full-size synthetic cities but tiny sample counts, so each
runner finishes in seconds while still exercising the complete pipeline
(datasets -> defense -> attack -> result rows).
"""

import math

import pytest

from repro.experiments.datasets_table import run_datasets_table
from repro.experiments.fig2_recovery_accuracy import run_fig2
from repro.experiments.fig3_sanitization import run_fig3
from repro.experiments.fig4_geoind import run_fig4
from repro.experiments.fig5_cloaking import run_fig5
from repro.experiments.fig6_finegrained_cdf import run_fig6
from repro.experiments.fig7_aux_anchors import run_fig7
from repro.experiments.fig8_trajectory import run_fig8
from repro.experiments.fig9_10_nonprivate import run_fig9_10
from repro.experiments.fig11_12_dp import run_fig11_12
from repro.experiments.scale import ExperimentScale

MICRO = ExperimentScale(
    name="ci",  # reuse ci-specific defaults (e.g. recovery max_types)
    n_targets=15,
    n_train=70,
    n_validation=25,
    n_area_samples=1_500,
    n_taxis=15,
    n_users=10,
    seed=99,
)


class TestRunnersSmoke:
    def test_datasets_table(self):
        result = run_datasets_table(MICRO)
        assert result.filter(dataset="beijing POIs")[0]["n_items"] == 10_249

    def test_uniqueness(self):
        from repro.experiments.uniqueness_sweep import run_uniqueness

        result = run_uniqueness(MICRO, radii=(1_000.0,), city_names=("beijing",))
        row = result.rows[0]
        assert 0.0 <= row["uniqueness_rate"] <= 1.0

    def test_seed_sensitivity(self):
        from repro.experiments.seed_sensitivity import run_seed_sensitivity

        result = run_seed_sensitivity(
            MICRO, radii=(1_000.0,), city_names=("beijing",), n_seeds=2
        )
        row = result.rows[0]
        assert row["min_success"] <= row["mean_success"] <= row["max_success"]

    def test_fig2(self):
        result = run_fig2(MICRO, radii=(1_000.0,), city_names=("beijing",), max_types=3)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["n_models"] == 3
        assert 0.0 <= row["mean_accuracy"] <= 1.0

    def test_fig3(self):
        result = run_fig3(MICRO, radii=(1_000.0,), city_names=("beijing",), max_types=3)
        variants = {row["variant"] for row in result.rows}
        assert variants == {"w/o protection", "sanitized", "recovered"}
        for row in result.rows:
            assert 0.0 <= row["success_rate"] <= 1.0
            assert row["correct_rate"] <= row["success_rate"]

    def test_fig4(self):
        result = run_fig4(MICRO, radii=(1_000.0,), datasets=("bj_random",), epsilons=(0.1,))
        assert len(result.rows) == 2  # baseline + one epsilon
        baseline, defended = result.rows
        assert baseline["epsilon"] is None
        assert 0.0 <= defended["mitigation"] <= 1.0

    def test_fig5(self):
        result = run_fig5(MICRO, radii=(1_000.0,), datasets=("bj_random",), k_values=(1, 20))
        assert len(result.rows) == 2
        k1 = result.filter(k=1)[0]
        assert k1["success_rate"] == k1["correct_rate"]  # no defense at k=1

    def test_fig6(self):
        result = run_fig6(MICRO, radii=(2_000.0,), datasets=("bj_random",))
        row = result.rows[0]
        assert row["baseline_area_km2"] == pytest.approx(math.pi * 4)
        if row["n_success"]:
            assert row["mean_km2"] <= row["baseline_area_km2"]

    def test_fig7(self):
        result = run_fig7(MICRO, datasets=("bj_random",), aux_values=(5, 20))
        areas = {row["n_aux"]: row["mean_area_km2"] for row in result.rows}
        if not math.isnan(areas[5]):
            assert areas[20] <= areas[5] + 1e-9

    def test_fig8(self):
        result = run_fig8(MICRO, radii=(1_000.0,))
        row = result.rows[0]
        if "single_success" in row:
            assert row["enhanced_success"] >= row["single_success"] - 1e-9

    def test_fig8_trains_on_at_most_n_train_pairs(self, monkeypatch):
        from repro.experiments import fig8_trajectory

        sizes = []
        fit = fig8_trajectory.DistanceRegressor.fit

        def counting_fit(self, releases, distances, **kwargs):
            sizes.append(len(releases))
            return fit(self, releases, distances, **kwargs)

        monkeypatch.setattr(fig8_trajectory.DistanceRegressor, "fit", counting_fit)
        run_fig8(MICRO, radii=(1_000.0,))
        # Half the micro fleet's usable pairs outnumber n_train, so the cap binds.
        assert sizes == [MICRO.n_train]

    def test_fig9_10(self):
        result = run_fig9_10(
            MICRO, radii=(2_000.0,), datasets=("bj_tdrive",), betas=(0.01, 0.05)
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert 0.0 <= row["jaccard"] <= 1.0

    def test_fig11_12(self):
        result = run_fig11_12(
            MICRO, datasets=("bj_tdrive",), epsilons=(0.5,), betas=(0.02,)
        )
        row = result.rows[0]
        assert 0.0 <= row["success_rate"] <= 1.0
        assert 0.0 <= row["jaccard"] <= 1.0
