"""Corruption chaos harness: every damage class × every policy.

The soundness contract (ISSUE acceptance): for any corruption the
injector produces, every loader either (a) completes with an
:class:`IngestReport` that accounts for all records — repaired and
quarantined ones included — or (b) raises a *typed* ``IngestError``
locating the fault.  Never a raw parser exception, a silent drop, or a
partial write.

Seeds come from ``POIAGG_CHAOS_SEEDS`` (space-separated; default
``"0"``), shared by every chaos suite, so CI can widen the sweep without
code changes.
"""

import shutil

import pytest

from repro.core.errors import IngestError
from repro.core.faults import seeds_from_env
from repro.ingest.faults import CORRUPTION_CLASSES, CorruptionPlan, FileCorruptor
from repro.ingest.loaders import (
    QUARANTINE_SUFFIX,
    ingest_osm_xml,
    ingest_poi_csv,
    ingest_trajectory_log,
)
from repro.ingest.report import POLICIES

SEEDS = seeds_from_env(default=(0,))

#: Byte-level classes apply to any format; row/sidecar classes assume a
#: CSV shape, so the XML and sidecar-less formats get subsets.
OSM_CLASSES = ("bit_flip", "truncate", "encoding_damage")
TRAJECTORY_CLASSES = tuple(c for c in CORRUPTION_CLASSES if c != "sidecar_mismatch")


def _assert_sound(load, source, policy, tmp_sources):
    """The chaos invariant, shared by all three formats."""
    qpath = source.with_name(source.name + QUARANTINE_SUFFIX)
    try:
        _data, report = load(source, policy=policy, quarantine_path=qpath)
    except IngestError as exc:
        # Typed rejection: the error locates the fault.
        assert source.name in str(exc)
        return
    except Exception as exc:  # noqa: BLE001 — the leak this suite hunts
        pytest.fail(
            f"raw {type(exc).__name__} leaked through {policy!r} policy: {exc}"
        )
    assert report.accounted, f"unaccounted records: {report.as_dict()}"
    n_quarantined = report.counts["quarantined"]
    if n_quarantined:
        assert len(qpath.read_text().splitlines()) == n_quarantined
    else:
        assert not qpath.exists()
    # Atomic discipline: no torn temp files, whatever happened.
    assert not list(tmp_sources.glob("**/*.tmp"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("corruption", CORRUPTION_CLASSES)
def test_poi_csv_soundness(poi_csv, corruption, policy, seed):
    corruptor = FileCorruptor(rng=seed)
    corruptor.apply(CorruptionPlan(corruption, intensity=2), poi_csv)
    assert corruptor.applied[0]["corruption"] == corruption
    _assert_sound(ingest_poi_csv, poi_csv, policy, poi_csv.parent)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("corruption", OSM_CLASSES)
def test_osm_soundness(osm_file, corruption, policy, seed):
    FileCorruptor(rng=seed).apply(CorruptionPlan(corruption, intensity=2), osm_file)
    _assert_sound(ingest_osm_xml, osm_file, policy, osm_file.parent)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("corruption", TRAJECTORY_CLASSES)
def test_trajectory_soundness(trajectory_log, corruption, policy, seed):
    FileCorruptor(rng=seed).apply(
        CorruptionPlan(corruption, intensity=2), trajectory_log
    )
    _assert_sound(ingest_trajectory_log, trajectory_log, policy, trajectory_log.parent)


@pytest.mark.parametrize("policy", POLICIES)
def test_clean_input_has_zero_nonok_fates(poi_csv, policy):
    """The harness's control arm: uncorrupted input is all-ok everywhere."""
    _db, report = ingest_poi_csv(poi_csv, policy=policy)
    assert report.clean
    assert report.counts["repaired"] == 0
    assert report.counts["quarantined"] == 0
    assert not poi_csv.with_name(poi_csv.name + QUARANTINE_SUFFIX).exists()


class TestCorruptorDeterminism:
    @pytest.mark.parametrize("corruption", CORRUPTION_CLASSES)
    def test_same_seed_same_damage(self, poi_csv, tmp_path, corruption):
        twin = tmp_path / "twin" / poi_csv.name
        twin.parent.mkdir()
        shutil.copy(poi_csv, twin)
        shutil.copy(
            poi_csv.with_name(poi_csv.name + ".meta.json"),
            twin.with_name(twin.name + ".meta.json"),
        )
        plan = CorruptionPlan(corruption, intensity=2)
        FileCorruptor(rng=1234).apply(plan, poi_csv)
        FileCorruptor(rng=1234).apply(plan, twin)
        assert poi_csv.read_bytes() == twin.read_bytes()
        assert (
            poi_csv.with_name(poi_csv.name + ".meta.json").read_bytes()
            == twin.with_name(twin.name + ".meta.json").read_bytes()
        )

    def test_unknown_class_is_config_error(self):
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown corruption"):
            CorruptionPlan("set_on_fire")

    def test_intensity_must_be_positive(self):
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError, match="intensity"):
            CorruptionPlan("bit_flip", intensity=0)

    def test_ledger_records_every_operation(self, poi_csv):
        corruptor = FileCorruptor(rng=0)
        corruptor.apply(CorruptionPlan("bit_flip"), poi_csv)
        corruptor.apply(CorruptionPlan("truncate"), poi_csv)
        assert [e["corruption"] for e in corruptor.applied] == ["bit_flip", "truncate"]
        assert all(e["path"] == str(poi_csv) for e in corruptor.applied)
