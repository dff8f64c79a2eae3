"""Tests for the anti-sanitization recovery attack."""

import numpy as np
import pytest

from repro.attacks.recovery import SanitizationRecoveryAttack
from repro.core.errors import AttackError, NotFittedError
from repro.core.rng import derive_rng
from repro.defense.sanitization import Sanitizer
from repro.ml.kernels import gamma_scale, rbf_kernel
from repro.ml.metrics import accuracy_score
from repro.ml.preprocessing import StandardScaler
from repro.ml.svc import OneVsRestSVC
from repro.poi.cities import DEFAULT_SEED, beijing, small_city
from repro.poi.database import POIDatabase
from tests.property.test_prop_ml import assert_matches_reference


@pytest.fixture(scope="module")
def fitted(request):
    city = small_city(seed=7)
    db = city.database
    sanitizer = Sanitizer(db, threshold=10)
    attack = SanitizationRecoveryAttack(db, sanitizer)
    report = attack.fit(
        radius=900.0,
        n_train=250,
        n_validation=70,
        rng=derive_rng(1, "recfit"),
        bounds=city.interior(900.0),
    )
    return city, db, sanitizer, attack, report


class TestTraining:
    def test_one_model_per_sanitized_type(self, fitted):
        _, _, sanitizer, attack, report = fitted
        assert len(report.type_ids) == sanitizer.n_sanitized

    def test_validation_accuracy_is_high(self, fitted):
        """The paper reports > 0.95 mean accuracy (Fig. 2)."""
        *_, report = fitted
        assert report.mean_accuracy > 0.9

    def test_report_stats(self, fitted):
        *_, report = fitted
        assert 0.0 <= report.std_accuracy <= 0.5
        assert all(0.0 <= a <= 1.0 for a in report.accuracies)

    def test_unfitted_recover_raises(self, db):
        attack = SanitizationRecoveryAttack(db, Sanitizer(db, 10))
        with pytest.raises(NotFittedError):
            attack.recover(np.zeros(db.n_types))

    def test_bad_sizes_raise(self, db):
        attack = SanitizationRecoveryAttack(db, Sanitizer(db, 10))
        with pytest.raises(AttackError):
            attack.fit(radius=500.0, n_train=0, n_validation=10)

    @pytest.mark.parametrize("C", [0.0, -1.0])
    def test_non_positive_C_raises_at_construction(self, db, C):
        with pytest.raises(AttackError, match="C must be positive"):
            SanitizationRecoveryAttack(db, Sanitizer(db, 10), C=C)

    def test_naive_bayes_ignores_C(self, db):
        SanitizationRecoveryAttack(db, Sanitizer(db, 10), C=-1.0, model="naive_bayes")


class TestRecovery:
    def test_recovers_nonsanitized_part_verbatim(self, fitted):
        city, db, sanitizer, attack, _ = fitted
        rng = derive_rng(2, "recv")
        target = city.interior(900.0).sample_point(rng)
        original = db.freq(target, 900.0)
        sanitized = sanitizer.sanitize_vector(original)
        recovered = attack.recover(sanitized)
        keep = np.ones(db.n_types, dtype=bool)
        keep[sanitizer.sanitized_types] = False
        np.testing.assert_array_equal(recovered[keep], original[keep])

    def test_recovered_values_nonnegative_ints(self, fitted):
        city, db, sanitizer, attack, _ = fitted
        rng = derive_rng(3, "recv2")
        targets = [city.interior(900.0).sample_point(rng) for _ in range(10)]
        sanitized = np.stack(
            [sanitizer.sanitize_vector(db.freq(t, 900.0)) for t in targets]
        )
        recovered = attack.recover_many(sanitized)
        assert recovered.dtype == np.int64
        assert (recovered >= 0).all()

    def test_recovery_beats_sanitized_vector(self, fitted):
        """Recovered vectors are closer to the truth than sanitized ones."""
        city, db, sanitizer, attack, _ = fitted
        rng = derive_rng(4, "recv3")
        targets = [city.interior(900.0).sample_point(rng) for _ in range(60)]
        originals = np.stack([db.freq(t, 900.0) for t in targets])
        sanitized = np.stack([sanitizer.sanitize_vector(v) for v in originals])
        recovered = attack.recover_many(sanitized)
        err_sanitized = np.abs(sanitized - originals).sum()
        err_recovered = np.abs(recovered - originals).sum()
        assert err_recovered < err_sanitized

    def test_shape_mismatch_raises(self, fitted):
        attack = fitted[3]
        with pytest.raises(AttackError):
            attack.recover_many(np.zeros((2, 3)))


class TestLimitTypes:
    def test_limit_restricts_models(self, db):
        sanitizer = Sanitizer(db, threshold=10)
        attack = SanitizationRecoveryAttack(db, sanitizer, limit_types=5)
        assert len(attack.modeled_types) == 5
        # And they are the city-rarest sanitized types.
        ranks = db.infrequent_ranks
        modeled_ranks = ranks[attack.modeled_types]
        other = np.setdiff1d(sanitizer.sanitized_types, attack.modeled_types)
        assert modeled_ranks.max() <= ranks[other].min()

    def test_limit_larger_than_count_is_all(self, db):
        sanitizer = Sanitizer(db, threshold=10)
        attack = SanitizationRecoveryAttack(db, sanitizer, limit_types=10_000)
        np.testing.assert_array_equal(attack.modeled_types, sanitizer.sanitized_types)

    def test_invalid_limit_raises(self, db):
        with pytest.raises(AttackError):
            SanitizationRecoveryAttack(db, Sanitizer(db, 10), limit_types=0)


def _reference_predict(model, X_train, X):
    """``OneVsRestSVC.predict`` as each machine computed it on its own.

    Every machine built the cross-kernel between *X* and its own support
    rows, with the gamma of the training rows.
    """
    gamma = gamma_scale(X_train)
    scores = np.stack(
        [
            rbf_kernel(X, X_train[m.support_], gamma) @ m.dual_coef_ + m._b
            for m in model._machines
        ],
        axis=1,
    )
    if len(model.classes_) == 2:
        return np.where(scores[:, 0] > 0.0, model.classes_[1], model.classes_[0])
    return model.classes_[np.argmax(scores, axis=1)]


def _reference_fit(db, sanitizer, modeled, radius, n_train, n_validation, rng, bounds):
    """The recovery fit with a fresh Gram per type, a point-by-point draw and
    machines checked against the one-machine-at-a-time SMO loop."""
    locations = [bounds.sample_point(rng) for _ in range(n_train + n_validation)]
    freqs = db.freq_batch(locations, radius).astype(float)
    keep = np.ones(db.n_types, dtype=bool)
    keep[sanitizer.sanitized_types] = False
    X = freqs[:, keep]
    scaler = StandardScaler().fit(X[:n_train])
    X_train = scaler.transform(X[:n_train])
    X_val = scaler.transform(X[n_train:])
    models, accuracies = {}, []
    for t in modeled:
        y = freqs[:, t].astype(np.int64)
        gram = rbf_kernel(X_train, X_train, gamma_scale(X_train))
        model = OneVsRestSVC(C=5.0).fit(gram, y[:n_train])
        # Each machine as the SMO loop trained it one machine at a time.
        positives = model.classes_[1:] if len(model.classes_) == 2 else model.classes_
        for machine, positive in zip(model._machines, positives, strict=True):
            labels = np.where(y[:n_train] == positive, 1.0, -1.0)
            assert_matches_reference(machine, gram, labels, 5.0)
        models[int(t)] = model
        accuracies.append(accuracy_score(y[n_train:], _reference_predict(model, X_train, X_val)))

    def recover_many(vectors):
        X_in = scaler.transform(vectors[:, keep])
        recovered = vectors.astype(float)
        for t, model in models.items():
            recovered[:, t] = _reference_predict(model, X_train, X_in)
        return np.rint(np.clip(recovered, 0.0, None)).astype(np.int64)

    return models, tuple(accuracies), recover_many


_SETUPS = {
    # The module fixture's fit: every sanitized type of the test city.
    "small_city-900m": (lambda: small_city(seed=7), 900.0, None, 250, 70),
    # A ci-scale fig. 2 fit: the 20 rarest sanitized Beijing types at 1 km.
    "beijing-1km": (lambda: beijing(DEFAULT_SEED), 1_000.0, 20, 250, 60),
    # The same at 500 m, where one machine of the fit has two classes.
    "beijing-500m": (lambda: beijing(DEFAULT_SEED), 500.0, 20, 250, 60),
}


class TestSharedKernelMatchesReference:
    """One Gram per fit trains and predicts exactly as one Gram per machine."""

    @pytest.mark.parametrize("setup", list(_SETUPS))
    def test_same_machines_accuracies_and_recoveries(self, setup):
        build, radius, limit, n_train, n_val = _SETUPS[setup]
        city = build()
        db = city.database
        sanitizer = Sanitizer(db, threshold=10)
        bounds = city.interior(radius)
        attack = SanitizationRecoveryAttack(db, sanitizer, limit_types=limit)
        report = attack.fit(
            radius, n_train=n_train, n_validation=n_val,
            rng=derive_rng(1, "shared", setup), bounds=bounds,
        )
        models, accuracies, recover_many = _reference_fit(
            db, sanitizer, attack.modeled_types, radius, n_train, n_val,
            derive_rng(1, "shared", setup), bounds,
        )
        assert report.accuracies == accuracies
        assert report.type_ids == tuple(models)
        for t, expected in models.items():
            got = attack._models[t]
            np.testing.assert_array_equal(got.classes_, expected.classes_)
            assert len(got._machines) == len(expected._machines)
            for mine, theirs in zip(got._machines, expected._machines, strict=True):
                np.testing.assert_array_equal(mine.support_, theirs.support_)
                np.testing.assert_array_equal(mine.dual_coef_, theirs.dual_coef_)
                assert mine._b == theirs._b

        gen = derive_rng(2, "shared", setup)
        targets = [bounds.sample_point(gen) for _ in range(40)]
        sanitized = np.stack(
            [sanitizer.sanitize_vector(v) for v in db.freq_batch(targets, radius)]
        )
        np.testing.assert_array_equal(attack.recover_many(sanitized), recover_many(sanitized))

    def test_training_draw_matches_the_sample_point_loop(self, city, monkeypatch):
        drawn = []
        freq_batch = POIDatabase.freq_batch

        def recording(self, xy, radius):
            drawn.append(np.array(xy))
            return freq_batch(self, xy, radius)

        monkeypatch.setattr(POIDatabase, "freq_batch", recording)
        bounds = city.interior(900.0)
        gen = derive_rng(3, "draw")
        SanitizationRecoveryAttack(
            city.database, Sanitizer(city.database, 10), model="naive_bayes"
        ).fit(900.0, n_train=400, n_validation=100, rng=gen, bounds=bounds)

        reference = derive_rng(3, "draw")
        points = [bounds.sample_point(reference) for _ in range(500)]
        np.testing.assert_array_equal(drawn[0], [[p.x, p.y] for p in points])
        assert gen.bit_generator.state == reference.bit_generator.state
