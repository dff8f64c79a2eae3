"""Gaussian naive Bayes — a fast alternative recovery model.

The paper's recovery attack trains one RBF-SVC per sanitized type on
10,000 samples, and the SVC's kernel matrix grows with the square of that.
Gaussian naive Bayes fits the same per-type frequency-prediction task in
closed form (per-class means and variances), training faster and in
linear memory with comparable accuracy on this data — see the
recovery-model ablation bench.  It is exposed via
``SanitizationRecoveryAttack(model="naive_bayes")``.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import NotFittedError

__all__ = ["GaussianNaiveBayes"]

_VAR_FLOOR = 1e-9


class GaussianNaiveBayes:
    """Multiclass Gaussian naive Bayes with additive variance smoothing.

    Parameters
    ----------
    var_smoothing:
        Fraction of the largest feature variance added to every per-class
        variance (scikit-learn's convention), keeping log-densities finite
        for near-constant features.
    """

    def __init__(self, var_smoothing: float = 1e-9) -> None:
        if var_smoothing < 0:
            raise ValueError(f"var_smoothing must be non-negative, got {var_smoothing}")
        self.var_smoothing = var_smoothing
        self.classes_: "np.ndarray | None" = None
        self._means: "np.ndarray | None" = None
        self._variances: "np.ndarray | None" = None
        self._log_priors: "np.ndarray | None" = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-d feature matrix, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)
        n_features = X.shape[1]
        means = np.empty((n_classes, n_features))
        variances = np.empty((n_classes, n_features))
        priors = np.empty(n_classes)
        epsilon = self.var_smoothing * float(X.var(axis=0).max() or 1.0)
        for i, cls in enumerate(self.classes_):
            rows = X[y == cls]
            means[i] = rows.mean(axis=0)
            variances[i] = rows.var(axis=0) + epsilon + _VAR_FLOOR
            priors[i] = len(rows) / len(X)
        self._means = means
        self._variances = variances
        self._log_priors = np.log(priors)
        return self

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        if self._means is None or self._variances is None or self._log_priors is None:
            raise NotFittedError("GaussianNaiveBayes used before fit()")
        X = np.asarray(X, dtype=float)
        # (n, 1, d) - (1, c, d) broadcasting over classes.
        diff = X[:, None, :] - self._means[None, :, :]
        log_density = -0.5 * (
            np.log(2.0 * np.pi * self._variances)[None, :, :]
            + diff**2 / self._variances[None, :, :]
        ).sum(axis=2)
        return log_density + self._log_priors[None, :]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per row."""
        assert self.classes_ is not None or self._joint_log_likelihood(X) is not None
        scores = self._joint_log_likelihood(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def predict_log_proba(self, X: np.ndarray) -> np.ndarray:
        """Log class posteriors (normalised per row)."""
        scores = self._joint_log_likelihood(X)
        norm = np.logaddexp.reduce(scores, axis=1, keepdims=True)
        return scores - norm
