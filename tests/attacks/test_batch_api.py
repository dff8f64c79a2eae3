"""The unified Attack/Release API and its batch engine.

Two properties matter: (1) every attack's ``run_batch`` is bit-identical
to the scalar loop over ``run`` — same candidates, same anchor types,
same regions — and (2) as of v1 the legacy positional
``run(freq_vector, radius)`` spelling is *gone*: ``run`` takes exactly
one :class:`Release` and anything else is a :class:`TypeError` with a
migration hint, not a silent misparse.
"""

import numpy as np
import pytest

from repro.attacks.base import Attack, AttackOutcome, Release, require_release
from repro.attacks.fine_grained import FineGrainedAttack
from repro.attacks.region import RegionAttack
from repro.attacks.tracker import ContinuousTracker
from repro.core.errors import AttackError
from repro.core.rng import derive_rng
from repro.geo.point import Point
from tests.attacks.test_fine_grained import reference_outcome

RADII = (250.0, 500.0, 1_000.0, 2_000.0)


def sample_releases(city, radius, n, seed):
    rng = derive_rng(seed, "batch-api", radius)
    targets = [city.interior(radius).sample_point(rng) for _ in range(n)]
    freqs = city.database.freq_batch(targets, radius)
    return targets, [Release(f, radius) for f in freqs]


def assert_outcomes_equal(got: AttackOutcome, want: AttackOutcome):
    assert got.candidates == want.candidates
    assert got.anchor_type == want.anchor_type
    assert len(got.regions) == len(want.regions)
    for a, b in zip(got.regions, want.regions):
        assert a.anchor_poi == b.anchor_poi
        assert a.disk.center == b.disk.center
        assert a.disk.radius == b.disk.radius


class TestReleaseDataclass:
    def test_frozen(self):
        rel = Release(np.zeros(3), 100.0)
        with pytest.raises(Exception):
            rel.radius = 200.0

    def test_optional_metadata(self):
        rel = Release(np.zeros(3), 100.0, true_location=Point(1, 2), timestamp=5.0)
        assert rel.true_location == Point(1, 2)
        assert rel.timestamp == 5.0

    def test_require_release_passthrough(self):
        rel = Release(np.zeros(3), 100.0)
        assert require_release(rel, caller="t") is rel

    def test_require_release_rejects_bare_vector(self):
        with pytest.raises(TypeError, match="removed in v1"):
            require_release(np.zeros(3), caller="t")


class TestAttackProtocol:
    def test_attacks_conform(self, tiny_db):
        assert isinstance(RegionAttack(tiny_db), Attack)
        assert isinstance(FineGrainedAttack(tiny_db), Attack)
        assert isinstance(ContinuousTracker(tiny_db), Attack)

    def test_legacy_positional_run_is_a_type_error(self, tiny_db):
        attack = RegionAttack(tiny_db)
        freq = tiny_db.freq(Point(500, 800), 150.0)
        with pytest.raises(TypeError):
            attack.run(freq, 150.0)
        with pytest.raises(TypeError, match="removed in v1"):
            attack.run(freq)

    def test_legacy_positional_fine_grained_is_a_type_error(self, tiny_db):
        attack = FineGrainedAttack(tiny_db)
        freq = tiny_db.freq(Point(500, 800), 150.0)
        with pytest.raises(TypeError):
            attack.run(freq, 150.0)
        with pytest.raises(TypeError, match="removed in v1"):
            attack.run(freq)


class TestRegionRunBatch:
    @pytest.mark.parametrize("radius", RADII)
    def test_bit_identical_to_scalar(self, city, radius):
        attack = RegionAttack(city.database)
        _, releases = sample_releases(city, radius, 40, seed=11)
        city.database.clear_cache()
        scalar = [attack.run(rel) for rel in releases]
        city.database.clear_cache()
        batch = attack.run_batch(releases)
        assert len(batch) == len(scalar)
        for got, want in zip(batch, scalar):
            assert_outcomes_equal(got, want)

    def test_mixed_radii_in_one_batch(self, city):
        attack = RegionAttack(city.database)
        releases = []
        for radius in RADII:
            _, rels = sample_releases(city, radius, 8, seed=23)
            releases.extend(rels)
        scalar = [attack.run(rel) for rel in releases]
        for got, want in zip(attack.run_batch(releases), scalar):
            assert_outcomes_equal(got, want)

    def test_empty_batch(self, tiny_db):
        assert RegionAttack(tiny_db).run_batch([]) == []

    def test_fractional_releases_match_scalar(self, city):
        # Unrounded noise leaves counts below 1 that are still present.
        attack = RegionAttack(city.database)
        _, releases = sample_releases(city, 700.0, 40, seed=37)
        rng = derive_rng(37, "fractional")
        noise = rng.laplace(0.0, 0.5, (len(releases), city.database.n_types))
        noisy = [
            Release(np.clip(rel.frequency_vector + n, 0.0, None), rel.radius)
            for rel, n in zip(releases, noise)
        ]
        for got, rel in zip(attack.run_batch(noisy), noisy):
            assert_outcomes_equal(got, attack.run(rel))

    def test_all_zero_vector(self, tiny_db):
        attack = RegionAttack(tiny_db)
        rel = Release(np.zeros(3, dtype=int), 100.0)
        (batch,) = attack.run_batch([rel])
        assert_outcomes_equal(batch, attack.run(rel))
        assert not batch.success
        assert batch.anchor_type is None

    def test_max_candidates_overflow(self, tiny_db):
        attack = RegionAttack(tiny_db, max_candidates=1)
        # Type 0 has three POIs — over the cap in both paths.
        rel = Release(np.array([1, 0, 0]), 100.0)
        (batch,) = attack.run_batch([rel])
        scalar = attack.run(rel)
        assert_outcomes_equal(batch, scalar)
        assert not batch.success
        assert batch.anchor_type == 0

    def test_nonpositive_radius_rejected(self, tiny_db):
        attack = RegionAttack(tiny_db)
        with pytest.raises(AttackError):
            attack.run_batch([Release(np.array([1, 0, 0]), 0.0)])

    def test_non_release_rejected(self, tiny_db):
        with pytest.raises(AttackError):
            RegionAttack(tiny_db).run_batch([np.array([1, 0, 0])])

    def test_malformed_vector_raises_scalar_error(self, tiny_db):
        attack = RegionAttack(tiny_db)
        bad = Release(np.array([1.0, np.nan, 0.0]), 100.0)
        with pytest.raises(Exception) as batch_err:
            attack.run_batch([bad])
        with pytest.raises(Exception) as scalar_err:
            attack.run(bad)
        assert type(batch_err.value) is type(scalar_err.value)

    def test_wrong_width_raises(self, tiny_db):
        attack = RegionAttack(tiny_db)
        with pytest.raises(Exception):
            attack.run_batch([Release(np.zeros(5, dtype=int), 100.0)])


class TestFineGrainedRunBatch:
    @pytest.mark.parametrize("radius", (500.0, 1_000.0))
    @pytest.mark.parametrize(
        "kwargs",
        (
            {},
            {"sound_only": True},
            {"consistent_anchors": True},
            {"max_aux": 3},
        ),
    )
    def test_bit_identical_to_scalar(self, city, radius, kwargs):
        # ``run`` is ``run_batch`` of one release, so the scalar side is the
        # region attack's ``run`` plus the whole-superset reference harvest.
        attack = FineGrainedAttack(city.database, **kwargs)
        _, releases = sample_releases(city, radius, 25, seed=31)
        city.database.clear_cache()
        batch = attack.run_batch(releases)
        assert len(batch) == len(releases)
        for got, rel in zip(batch, releases):
            assert (got.major_anchor, got.anchors) == reference_outcome(attack, rel)
            assert got.radius == rel.radius
            assert_outcomes_equal(got.base, RegionAttack(city.database).run(rel))

    def test_empty_batch(self, tiny_db):
        assert FineGrainedAttack(tiny_db).run_batch([]) == []


class TestTrackerBatch:
    def test_run_batch_equals_track(self, city):
        db = city.database
        radius = 500.0
        rng = derive_rng(5, "tracker-batch")
        start = city.interior(radius).sample_point(rng)
        points = [Point(start.x + 40.0 * i, start.y + 25.0 * i) for i in range(6)]
        freqs = db.freq_batch(points, radius)
        tracker = ContinuousTracker(db)
        releases = [
            Release(f, radius, timestamp=60.0 * i) for i, f in enumerate(freqs)
        ]
        from repro.attacks.tracker import TimedRelease

        timed = [TimedRelease(f, 60.0 * i) for i, f in enumerate(freqs)]
        got = tracker.run_batch(releases)
        want = tracker.track(timed, radius)
        assert got == want

    def test_run_batch_needs_timestamps(self, tiny_db):
        tracker = ContinuousTracker(tiny_db)
        with pytest.raises(AttackError):
            tracker.run_batch([Release(np.array([1, 0, 0]), 100.0)])

    def test_run_batch_needs_uniform_radius(self, tiny_db):
        tracker = ContinuousTracker(tiny_db)
        with pytest.raises(AttackError):
            tracker.run_batch(
                [
                    Release(np.array([1, 0, 0]), 100.0, timestamp=0.0),
                    Release(np.array([1, 0, 0]), 200.0, timestamp=60.0),
                ]
            )

    def test_run_batch_rejects_empty(self, tiny_db):
        with pytest.raises(AttackError):
            ContinuousTracker(tiny_db).run_batch([])
