"""Learning-based recovery of sanitized frequencies — paper §III-A.

Sanitization zeroes the city-rare types in every release; this attack
trains one classifier per sanitized type that predicts the removed
frequency from the frequencies that survive.  The signal exists because
POI types co-occur: rare types live in specific districts whose common-type
signature the remaining vector still carries.  The paper reports >95%
validation accuracy with an RBF-kernel SVC, and that recovered vectors
restore almost the full success rate of the region attack (Figs. 2–3).

Class imbalance note: a sanitized type is absent from most locations, so a
constant-zero predictor already scores high accuracy — which is fine for
the attack, because the crucial cases are exactly the local non-zero
frequencies the models learn from co-occurrence.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.errors import AttackError, NotFittedError
from repro.core.rng import RngLike, as_generator
from repro.defense.sanitization import Sanitizer
from repro.geo.bbox import BBox
from repro.ml.kernels import gamma_scale, rbf_kernel
from repro.ml.metrics import accuracy_score
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.preprocessing import StandardScaler
from repro.ml.svc import OneVsRestSVC
from repro.poi.database import POIDatabase

__all__ = ["SanitizationRecoveryAttack", "RecoveryTrainingReport"]


@dataclass(frozen=True)
class RecoveryTrainingReport:
    """Validation accuracies of the per-type prediction models (Fig. 2)."""

    type_ids: tuple[int, ...]
    accuracies: tuple[float, ...]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies)) if self.accuracies else float("nan")

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.accuracies)) if self.accuracies else float("nan")


class SanitizationRecoveryAttack:
    """Per-sanitized-type SVC predictors of the removed frequencies.

    Parameters
    ----------
    database:
        The public POI map; the attacker uses it both to generate training
        locations and to compute their true frequency vectors (the same
        ``Freq`` oracle the paper's adversary holds).
    sanitizer:
        The deployed sanitization mechanism.  The paper assumes the
        attacker knows which types are sanitized (observable from
        historical releases).
    C:
        SVM soft-margin penalty, positive (``model="svc"`` only).
    model:
        ``"svc"`` for the paper's RBF-SVC (one-vs-rest over libsvm's SMO
        solver) or ``"naive_bayes"`` for the closed-form Gaussian NB
        alternative, which trains faster in linear memory with comparable
        accuracy (see the recovery-model bench).  Every SVC of one fit
        trains on one shared RBF Gram of the training rows and predicts
        from one cross-kernel against them.
    """

    def __init__(
        self,
        database: POIDatabase,
        sanitizer: Sanitizer,
        C: float = 5.0,
        limit_types: "int | None" = None,
        model: str = "svc",
    ) -> None:
        if model not in ("svc", "naive_bayes"):
            raise AttackError(f"unknown recovery model {model!r}")
        if model == "svc" and not C > 0:
            raise AttackError(f"C must be positive, got {C}")
        self._db = database
        self._sanitizer = sanitizer
        self._C = C
        self._model_kind = model
        if limit_types is not None and limit_types <= 0:
            raise AttackError(f"limit_types must be positive, got {limit_types}")
        self._limit_types = limit_types
        self._scaler: "StandardScaler | None" = None
        self._X_train: "np.ndarray | None" = None
        self._gamma = 1.0
        self._models: "dict[int, OneVsRestSVC | GaussianNaiveBayes]" = {}
        self._feature_types: "np.ndarray | None" = None
        self._report: "RecoveryTrainingReport | None" = None

    @property
    def sanitized_types(self) -> np.ndarray:
        return self._sanitizer.sanitized_types

    @property
    def modeled_types(self) -> np.ndarray:
        """The sanitized types this attack trains models for.

        All of them by default; with ``limit_types`` set, the N city-rarest
        sanitized types — the ones the region attack anchors on — to bound
        training time at reduced experiment scales.  Unmodeled sanitized
        entries stay zero in recovered vectors.
        """
        sanitized = self._sanitizer.sanitized_types
        if self._limit_types is None or self._limit_types >= len(sanitized):
            return sanitized
        ranks = self._db.infrequent_ranks
        order = np.argsort(ranks[sanitized], kind="stable")
        return np.sort(sanitized[order[: self._limit_types]])

    def _features(self, freq_vectors: np.ndarray) -> np.ndarray:
        """Non-sanitized frequency columns (the published part of a vector)."""
        assert self._feature_types is not None
        return freq_vectors[:, self._feature_types]

    def _model_inputs(self, X: np.ndarray) -> np.ndarray:
        """What the models read for scaled rows *X*.

        The SVCs read the RBF kernel between *X* and the training rows;
        naive Bayes reads *X* itself.
        """
        if self._model_kind == "svc":
            assert self._X_train is not None
            return rbf_kernel(X, self._X_train, self._gamma)
        return X

    def fit(
        self,
        radius: float,
        n_train: int = 800,
        n_validation: int = 200,
        rng: RngLike = None,
        bounds: "BBox | None" = None,
    ) -> RecoveryTrainingReport:
        """Generate training data and train one model per sanitized type.

        The paper trains on 10,000 random locations with 2,000 validation
        samples; the defaults here are scaled down, because the SVCs share
        an ``n_train``-square kernel matrix, and are configurable back up.
        """
        if n_train <= 1 or n_validation <= 0:
            raise AttackError("need positive training and validation sizes")
        gen = as_generator(rng)
        area = bounds if bounds is not None else self._db.bounds
        n_total = n_train + n_validation
        # The same doubles, in the same order, as n_total BBox.sample_point calls.
        locations = gen.uniform(
            [area.min_x, area.min_y], [area.max_x, area.max_y], size=(n_total, 2)
        )
        freqs = self._db.freq_batch(locations, radius).astype(float)

        # Features are always the full non-sanitized part (the published
        # columns); models are trained for the modeled subset.
        mask = np.ones(self._db.n_types, dtype=bool)
        mask[self._sanitizer.sanitized_types] = False
        self._feature_types = np.flatnonzero(mask)
        modeled = self.modeled_types

        X = self._features(freqs)
        self._scaler = StandardScaler().fit(X[:n_train])
        self._X_train = self._scaler.transform(X[:n_train])
        # Every SVC of this fit shares this gamma and the kernels built with it.
        self._gamma = gamma_scale(self._X_train)
        train = self._model_inputs(self._X_train)
        val = self._model_inputs(self._scaler.transform(X[n_train:]))

        labels = freqs[:, modeled].astype(np.int64).T
        models: "Sequence[OneVsRestSVC | GaussianNaiveBayes]"
        if self._model_kind == "svc":
            # Every machine of every modeled type trains in one SMO loop.
            models = OneVsRestSVC.fit_many(train, labels[:, :n_train], C=self._C)
        else:
            models = [GaussianNaiveBayes().fit(train, y[:n_train]) for y in labels]
        self._models = {int(t): model for t, model in zip(modeled, models)}
        accuracies = [
            accuracy_score(y[n_train:], model.predict(val)) for y, model in zip(labels, models)
        ]
        self._report = RecoveryTrainingReport(tuple(self._models), tuple(accuracies))
        return self._report

    @property
    def training_report(self) -> RecoveryTrainingReport:
        if self._report is None:
            raise NotFittedError("SanitizationRecoveryAttack used before fit()")
        return self._report

    def recover(self, sanitized_vector: np.ndarray) -> np.ndarray:
        """Fill the sanitized entries of one released vector with predictions."""
        return self.recover_many(np.asarray(sanitized_vector)[None, :])[0]

    def recover_many(self, sanitized_vectors: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`recover` over ``(n, M)`` released vectors."""
        if self._scaler is None or self._feature_types is None:
            raise NotFittedError("SanitizationRecoveryAttack used before fit()")
        vectors = np.asarray(sanitized_vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self._db.n_types:
            raise AttackError(
                f"expected (n, {self._db.n_types}) vectors, got shape {vectors.shape}"
            )
        inputs = self._model_inputs(self._scaler.transform(self._features(vectors)))
        recovered = vectors.copy()
        for t, model in self._models.items():
            recovered[:, t] = model.predict(inputs)
        return np.rint(np.clip(recovered, 0.0, None)).astype(np.int64)
