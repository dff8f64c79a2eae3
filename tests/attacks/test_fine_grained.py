"""Tests for the fine-grained attack (Algorithm 1)."""

import math

import numpy as np
import pytest

from repro.attacks.base import Release
from repro.attacks.fine_grained import FineGrainedAttack
from repro.attacks.region import RegionAttack
from repro.core.errors import AttackError, GeometryError
from repro.core.rng import derive_rng
from repro.experiments.scale import DEFAULT_SEED
from repro.poi.cities import beijing, small_city
from repro.poi.frequency import dominates


def _reference_harvest(attack, freq_vector, radius, major_anchor, superset, reads=None):
    """Algorithm 1 as a type-by-type walk with one ``dominates`` over the superset.

    The harvest ``FineGrainedAttack`` ran before it filled anchor rows on
    demand, kept verbatim (``self`` became *attack*) as the reference.  The
    one addition is *reads*: when given, it collects every candidate whose
    domination result the walk consults.
    """
    if attack.max_aux == 0:
        return []
    db = attack._db
    anchor_loc = db.location_of(major_anchor)
    f_superset = db.freq_at_poi(major_anchor, 2 * radius)
    f_diff = f_superset - freq_vector

    superset_types = db.type_ids[superset]
    present = np.unique(superset_types)
    # Ascending difference puts the sound zero-difference fast path first.
    order = present[np.lexsort((present, f_diff[present]))]

    anchors: list[int] = []
    dominated = None

    def mutually_consistent(p: int) -> bool:
        if not attack.consistent_anchors:
            return True
        loc = db.location_of(p)
        limit = 2 * radius + 1e-9
        return all(
            loc.distance_to(db.location_of(a)) <= limit for a in anchors
        ) and loc.distance_to(anchor_loc) <= limit

    for t in order:
        member_pos = np.flatnonzero(superset_types == t)
        if f_diff[t] == 0:
            for k in member_pos:
                p = int(superset[k])
                if p != major_anchor and mutually_consistent(p):
                    anchors.append(p)
                if len(anchors) >= attack.max_aux:
                    return anchors
        elif not attack.sound_only:
            if dominated is None:
                dominated = dominates(
                    db.anchor_freqs(2 * radius, superset), freq_vector
                )
            for k in member_pos:
                p = int(superset[k])
                if p == major_anchor:
                    continue
                if reads is not None:
                    reads.append(p)
                if dominated[k] and mutually_consistent(p):
                    anchors.append(p)
                if len(anchors) >= attack.max_aux:
                    return anchors
    return anchors


def reference_outcome(attack, release):
    """``(major, anchors)`` from the scalar region attack and the reference walk."""
    base = RegionAttack(attack._db).run(release)
    if not base.success:
        return None, ()
    major = base.candidates[0]
    db = attack._db
    superset = db.query(db.location_of(major), 2 * release.radius)
    freq_vector = np.asarray(release.frequency_vector)
    return major, tuple(
        _reference_harvest(attack, freq_vector, release.radius, major, superset)
    )


def exact_and_noisy_releases(city, radius, n, seed):
    """*n* exact releases and *n* with rounded Laplace noise clipped at 0."""
    rng = derive_rng(seed, "fine-grained-releases", radius)
    targets = [city.interior(radius).sample_point(rng) for _ in range(n)]
    freqs = city.database.freq_batch(targets, radius)
    noisy = np.clip(np.rint(freqs + rng.laplace(0.0, 0.15, freqs.shape)), 0, None)
    return [Release(f, radius) for f in (*freqs, *noisy)]


class TestHarvesting:
    def test_failure_produces_no_anchors(self, db):
        attack = FineGrainedAttack(db)
        outcome = attack.run(Release(np.zeros(db.n_types, dtype=int), 500.0))
        assert not outcome.success
        assert outcome.anchors == ()
        assert outcome.region() is None
        assert math.isnan(outcome.search_area_m2())

    def test_max_aux_respected(self, city, db):
        rng = derive_rng(4, "maxaux")
        r = 800.0
        box = city.interior(r)
        for cap in (1, 3, 10):
            attack = FineGrainedAttack(db, max_aux=cap)
            for _ in range(30):
                target = box.sample_point(rng)
                outcome = attack.run(Release(db.freq(target, r), r))
                assert len(outcome.anchors) <= cap

    def test_major_anchor_not_in_aux(self, city, db):
        attack = FineGrainedAttack(db, max_aux=20)
        rng = derive_rng(5, "noself")
        r = 800.0
        box = city.interior(r)
        for _ in range(40):
            target = box.sample_point(rng)
            outcome = attack.run(Release(db.freq(target, r), r))
            if outcome.success:
                assert outcome.major_anchor not in outcome.anchors

    def test_anchors_within_2r_of_major(self, city, db):
        attack = FineGrainedAttack(db, max_aux=20)
        rng = derive_rng(6, "within2r")
        r = 700.0
        box = city.interior(r)
        for _ in range(40):
            target = box.sample_point(rng)
            outcome = attack.run(Release(db.freq(target, r), r))
            if not outcome.success:
                continue
            major_loc = db.location_of(outcome.major_anchor)
            for a in outcome.anchors:
                assert major_loc.distance_to(db.location_of(a)) <= 2 * r + 1e-6

    def test_negative_max_aux_raises(self, db):
        with pytest.raises(AttackError):
            FineGrainedAttack(db, max_aux=-1)


class TestSearchArea:
    def test_area_never_exceeds_baseline(self, city, db):
        attack = FineGrainedAttack(db, max_aux=20)
        rng = derive_rng(7, "area")
        r = 700.0
        box = city.interior(r)
        baseline = math.pi * r * r
        for _ in range(30):
            target = box.sample_point(rng)
            outcome = attack.run(Release(db.freq(target, r), r))
            if outcome.success:
                area = outcome.search_area_m2(n_samples=4_000, rng=rng)
                assert area <= baseline + 1e-6

    def test_more_anchors_never_grow_area(self, city, db):
        attack = FineGrainedAttack(db, max_aux=20)
        rng = derive_rng(8, "mono")
        r = 700.0
        box = city.interior(r)
        for _ in range(20):
            target = box.sample_point(rng)
            outcome = attack.run(Release(db.freq(target, r), r))
            if not outcome.success or len(outcome.anchors) < 4:
                continue
            # Same sample stream per comparison for a fair MC estimate.
            few = outcome.search_area_m2(n_aux=2, n_samples=6_000, rng=derive_rng(9, "mc"))
            many = outcome.search_area_m2(n_aux=None, n_samples=6_000, rng=derive_rng(9, "mc"))
            assert many <= few + 1e-6

    def test_zero_anchors_is_baseline_area(self, city, db):
        attack = FineGrainedAttack(db, max_aux=0)
        rng = derive_rng(10, "zero")
        r = 700.0
        box = city.interior(r)
        for _ in range(20):
            target = box.sample_point(rng)
            outcome = attack.run(Release(db.freq(target, r), r))
            if outcome.success:
                assert outcome.search_area_m2(rng=rng) == pytest.approx(math.pi * r * r)
                break
        else:
            pytest.skip("no unique target found")

    def test_negative_n_aux_raises(self, city, db):
        outcome, target = _anchored_outcome(city, db)
        with pytest.raises(AttackError):
            outcome.region(-1)
        with pytest.raises(AttackError):
            outcome.search_area_m2(n_aux=-1, n_samples=1_000, rng=0)
        with pytest.raises(AttackError):
            outcome.contains(target, n_aux=-1)

    def test_region_disks_sit_on_the_anchors(self, city, db):
        outcome, _ = _anchored_outcome(city, db)
        region = outcome.region(2)
        assert region.base.center == db.location_of(outcome.major_anchor)
        assert [d.center for d in region.constraints] == [
            db.location_of(a) for a in outcome.anchors[:2]
        ]
        assert {region.base.radius, *(d.radius for d in region.constraints)} == {outcome.radius}


def _anchored_outcome(city, db, r=700.0):
    """A successful outcome with at least two anchors, and its target."""
    attack = FineGrainedAttack(db, max_aux=20)
    rng = derive_rng(14, "anchored")
    box = city.interior(r)
    for _ in range(40):
        target = box.sample_point(rng)
        outcome = attack.run(Release(db.freq(target, r), r))
        if outcome.success and len(outcome.anchors) >= 2:
            return outcome, target
    pytest.skip("no unique target with two anchors found")


class TestSoundOnlyVariant:
    def test_sound_only_always_contains_target(self, city, db):
        attack = FineGrainedAttack(db, max_aux=20, sound_only=True)
        rng = derive_rng(11, "sound")
        r = 700.0
        box = city.interior(r)
        n_checked = 0
        for _ in range(60):
            target = box.sample_point(rng)
            outcome = attack.run(Release(db.freq(target, r), r))
            if outcome.success:
                n_checked += 1
                assert outcome.contains(target)
        assert n_checked > 0

    def test_sound_only_harvests_subset(self, city, db):
        full = FineGrainedAttack(db, max_aux=50)
        sound = FineGrainedAttack(db, max_aux=50, sound_only=True)
        rng = derive_rng(12, "subset")
        r = 700.0
        box = city.interior(r)
        for _ in range(30):
            target = box.sample_point(rng)
            freq = db.freq(target, r)
            a = full.run(Release(freq, r))
            b = sound.run(Release(freq, r))
            if a.success:
                assert set(b.anchors) <= set(a.anchors)


class TestPointEstimate:
    def test_point_estimate_inside_region(self, city, db):
        attack = FineGrainedAttack(db, max_aux=10, sound_only=True)
        rng = derive_rng(13, "pt")
        r = 700.0
        box = city.interior(r)
        for _ in range(40):
            target = box.sample_point(rng)
            outcome = attack.run(Release(db.freq(target, r), r))
            if outcome.success:
                estimate = outcome.point_estimate(n_samples=4_000, rng=rng)
                assert estimate is not None
                region = outcome.region()
                assert region.contains(estimate)
                return
        pytest.skip("no unique target found")

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_non_positive_sample_count_raises(self, city, db, n_samples):
        outcome, _ = _anchored_outcome(city, db)
        with pytest.raises(GeometryError):
            outcome.point_estimate(n_samples=n_samples, rng=0)


MODES = (
    {},
    {"max_aux": 0},
    {"max_aux": 1},
    {"max_aux": 3},
    {"max_aux": 40},
    {"sound_only": True},
    {"consistent_anchors": True},
)

CITIES = {"small": lambda: small_city(seed=7), "beijing": lambda: beijing(DEFAULT_SEED)}


class TestMatchesReference:
    """The on-demand walk harvests exactly what the whole-superset walk did."""

    @pytest.mark.parametrize("mode", MODES, ids=repr)
    @pytest.mark.parametrize(
        "city_name,radius",
        (("small", 300.0), ("small", 700.0), ("small", 1_500.0), ("beijing", 2_000.0)),
    )
    def test_run_batch_matches_reference(self, city_name, radius, mode):
        city = CITIES[city_name]()
        attack = FineGrainedAttack(city.database, **mode)
        releases = exact_and_noisy_releases(city, radius, 30, seed=41)
        outcomes = attack.run_batch(releases)
        for release, outcome in zip(releases, outcomes):
            major, anchors = reference_outcome(attack, release)
            assert outcome.major_anchor == major
            assert outcome.anchors == anchors
        # Both halves, exact and noisy, reach the harvest.
        assert any(o.success for o in outcomes[:30])
        assert any(o.success for o in outcomes[30:])

    @pytest.mark.parametrize(
        "mode", ({}, {"max_aux": 3}, {"max_aux": 40}, {"consistent_anchors": True}), ids=repr
    )
    def test_harvest_anchors_with_non_dominating_majors(self, city, db, mode):
        # A major that does not dominate the release leaves negative type
        # differences, which sort before the zero-difference fast path.
        attack = FineGrainedAttack(db, **mode)
        rng = derive_rng(43, "random-majors")
        radius = 700.0
        n_checked = 0
        while n_checked < 40:
            freq = db.freq(city.interior(radius).sample_point(rng), radius)
            major = int(rng.integers(len(db)))
            if dominates(db.freq_at_poi(major, 2 * radius), freq):
                continue
            superset = db.query(db.location_of(major), 2 * radius)
            want = _reference_harvest(attack, freq, radius, major, superset)
            assert attack.harvest_anchors(freq, radius, major) == want
            n_checked += 1

    @pytest.mark.parametrize("mode", ({}, {"max_aux": 3}, {"consistent_anchors": True}), ids=repr)
    def test_fills_only_the_rows_the_walk_reads(self, city, db, mode):
        radius = 700.0
        attack = FineGrainedAttack(db, **mode)
        releases = exact_and_noisy_releases(city, radius, 30, seed=47)
        db.clear_cache()
        RegionAttack(db).run_batch(releases)
        region_rows = set(np.flatnonzero(_ready_rows(db, 2 * radius)).tolist())
        outcomes = attack.run_batch(releases)
        filled = set(np.flatnonzero(_ready_rows(db, 2 * radius)).tolist())

        majors, reads = set(), []
        for release, outcome in zip(releases, outcomes):
            if not outcome.success:
                continue
            major = outcome.major_anchor
            majors.add(major)
            superset = db.query(db.location_of(major), 2 * radius)
            freq_vector = np.asarray(release.frequency_vector)
            _reference_harvest(attack, freq_vector, radius, major, superset, reads)
        assert reads
        assert filled == region_rows | majors | set(reads)


def _ready_rows(db, radius):
    """The POIs whose ``Freq(p, radius)`` row the database has computed."""
    return db._anchor_rows[float(radius)].slot >= 0
