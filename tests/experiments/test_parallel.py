"""Tests for sharded (multi-process) experiment execution."""

import os

import pytest

from repro.core.errors import ConfigError, ShardError
from repro.experiments.fig4_geoind import run_fig4
from repro.experiments.parallel import (
    DEFAULT_SHARDS,
    SHARD_AXES,
    SHARD_SPECS,
    resolve_max_workers,
    run_sharded,
)
from repro.experiments.scale import ExperimentScale

MICRO = ExperimentScale(
    name="ci",
    n_targets=12,
    n_train=50,
    n_validation=20,
    n_area_samples=1_000,
    n_taxis=10,
    n_users=8,
    seed=5,
)


class TestRunSharded:
    def test_matches_serial_run_exactly(self):
        """Label-derived RNGs make sharded == serial, row for row."""
        shards = ("bj_random", "nyc_random")
        kwargs = dict(radii=(1_000.0,), epsilons=(0.1,))
        serial = run_fig4(MICRO, datasets=shards, **kwargs)
        sharded = run_sharded(
            "fig4", MICRO, shards=shards, max_workers=2, **kwargs
        )
        assert sharded.rows == serial.rows

    def test_merged_config_records_shards(self):
        sharded = run_sharded(
            "fig4",
            MICRO,
            shards=("bj_random",),
            max_workers=1,
            radii=(1_000.0,),
            epsilons=(0.1,),
        )
        assert sharded.config["datasets"] == ["bj_random"]

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_sharded("fig4", MICRO, shards=())
        with pytest.raises(ConfigError):
            run_sharded("datasets", MICRO, shards=("x",))  # no shard axis
        with pytest.raises(ConfigError):
            run_sharded("fig99", MICRO, shards=("x",), shard_param="datasets")

    def test_shard_axes_cover_dataset_experiments(self):
        assert SHARD_AXES["fig4"] == "datasets"
        assert SHARD_AXES["fig2"] == "city_names"

    def test_first_failure_cancels_and_names_the_shard(self):
        """A failed shard raises with its id, not a bare traceback.

        The sibling shards still run to completion first.
        """
        with pytest.raises(ShardError) as excinfo:
            run_sharded(
                "fig4",
                MICRO,
                shards=("bj_random", "no_such_dataset"),
                max_workers=2,
                radii=(1_000.0,),
                epsilons=(0.1,),
            )
        assert excinfo.value.shard == "no_such_dataset"
        assert "datasets='no_such_dataset'" in str(excinfo.value)
        assert "fig4" in str(excinfo.value)


class TestShardSpecs:
    """SHARD_SPECS is the single source of truth for default shard menus."""

    def test_two_dataset_experiments_have_their_own_menu(self):
        assert SHARD_SPECS["fig9_10"].shards == ("bj_tdrive", "nyc_foursquare")
        assert SHARD_SPECS["fig11_12"].shards == ("bj_tdrive", "nyc_foursquare")

    def test_full_menu_experiments_use_the_default_menus(self):
        assert SHARD_SPECS["fig4"].shards == DEFAULT_SHARDS["datasets"]
        assert SHARD_SPECS["fig2"].shards == DEFAULT_SHARDS["city_names"]

    def test_axes_view_is_derived_from_specs(self):
        assert SHARD_AXES == {k: v.param for k, v in SHARD_SPECS.items()}


class TestResolveMaxWorkers:
    def test_default_caps_at_shard_count(self):
        assert resolve_max_workers(None, 2) == min(2, os.cpu_count() or 1)

    def test_default_caps_at_cpu_count(self):
        assert resolve_max_workers(None, 10_000) == (os.cpu_count() or 1)

    def test_explicit_value_wins(self):
        assert resolve_max_workers(3, 2) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            resolve_max_workers(0, 2)
