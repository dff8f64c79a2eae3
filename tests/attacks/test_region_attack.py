"""Tests for the baseline region re-identification attack."""

import numpy as np
import pytest

from repro.attacks.base import Release
from repro.attacks.region import RegionAttack
from repro.core.errors import AttackError
from repro.core.rng import derive_rng
from repro.geo.point import Point


class TestOnTinyDatabase:
    def test_anchors_on_rarest_type(self, tiny_db):
        attack = RegionAttack(tiny_db)
        # Vector with type c (the city-unique type) present.
        freq = tiny_db.freq(Point(500, 800), 150.0)
        assert freq[2] == 1
        outcome = attack.run(Release(freq, 150.0))
        assert outcome.anchor_type == 2
        assert outcome.success
        assert outcome.candidates == (4,)  # the single c POI

    def test_success_region_contains_target(self, tiny_db):
        attack = RegionAttack(tiny_db)
        target = Point(500, 800)
        r = 150.0
        outcome = attack.run(Release(tiny_db.freq(target, r), r))
        assert outcome.success
        assert outcome.locates(target)
        assert outcome.region.area == pytest.approx(np.pi * r * r)

    def test_empty_vector_fails(self, tiny_db):
        attack = RegionAttack(tiny_db)
        outcome = attack.run(Release(np.zeros(3, dtype=int), 100.0))
        assert not outcome.success
        assert outcome.anchor_type is None
        assert outcome.candidates == ()

    def test_vector_width_checked(self, tiny_db):
        attack = RegionAttack(tiny_db)
        with pytest.raises(Exception):
            attack.run(Release(np.zeros(5, dtype=int), 100.0))

    def test_nonpositive_radius_raises(self, tiny_db):
        attack = RegionAttack(tiny_db)
        with pytest.raises(AttackError):
            attack.run(Release(np.array([1, 0, 0]), 0.0))

    @pytest.mark.parametrize("radius", (float("nan"), float("inf")))
    def test_non_finite_radius_raises(self, tiny_db, radius):
        attack = RegionAttack(tiny_db)
        vector = np.array([1, 0, 0])
        with pytest.raises(AttackError):
            attack.candidate_set(vector, radius)
        with pytest.raises(AttackError):
            attack.run(Release(vector, radius))
        with pytest.raises(AttackError):
            attack.run_batch([Release(vector, 100.0), Release(vector, radius)])

    def test_max_candidates_cap(self, tiny_db):
        attack = RegionAttack(tiny_db, max_candidates=1)
        # Rarest present type is a (3 POIs) -> over the cap -> auto fail.
        freq = np.array([1, 0, 0])
        anchor_type, survivors = attack.candidate_set(freq, 100.0)
        assert anchor_type == 0
        assert len(survivors) == 0

    def test_invalid_max_candidates(self, tiny_db):
        with pytest.raises(AttackError):
            RegionAttack(tiny_db, max_candidates=0)


class TestSoundnessOnGeneratedCity:
    def test_no_false_negative(self, city, db):
        """The true anchor POI always survives pruning on honest releases.

        Consequence: whenever the attack reports a unique candidate on an
        unprotected release, that candidate is within r of the target.
        """
        attack = RegionAttack(db)
        rng = derive_rng(1, "soundness")
        r = 600.0
        box = city.interior(r)
        n_checked = 0
        for _ in range(80):
            target = box.sample_point(rng)
            freq = db.freq(target, r)
            outcome = attack.run(Release(freq, r))
            if outcome.success:
                n_checked += 1
                assert outcome.locates(target)
        assert n_checked > 0  # the city must produce some unique locations

    def test_candidate_set_never_empty_on_honest_release(self, city, db):
        attack = RegionAttack(db)
        rng = derive_rng(2, "nonempty")
        r = 500.0
        box = city.interior(r)
        for _ in range(50):
            target = box.sample_point(rng)
            freq = db.freq(target, r)
            if freq.sum() == 0:
                continue
            _, survivors = attack.candidate_set(freq, r)
            assert len(survivors) >= 1

    def test_success_rate_grows_with_radius(self, city, db):
        """Location uniqueness strengthens with the query range (paper Fig. 3-5)."""
        attack = RegionAttack(db)
        rates = []
        for r in (300.0, 800.0, 2_000.0):
            rng = derive_rng(3, "radius", r)
            box = city.interior(r)
            wins = 0
            n = 80
            for _ in range(n):
                target = box.sample_point(rng)
                wins += attack.run(Release(db.freq(target, r), r)).success
            rates.append(wins / n)
        assert rates[0] <= rates[-1]
