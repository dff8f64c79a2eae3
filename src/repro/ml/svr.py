"""Kernel regression for the trajectory attack's distance estimator.

The paper trains a support vector regressor on (duration, L1 frequency
distance, hour/day one-hots) to predict the distance between two successive
releases (§IV-B).  :class:`KernelRidge` stands in for it: closed-form ridge
regression in the RBF feature space (the least-squares SVM), fast and exact.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import NotFittedError
from repro.ml.kernels import gamma_scale, rbf_kernel

__all__ = ["KernelRidge"]


class KernelRidge:
    """RBF kernel ridge regression (least-squares SVM).

    Solves ``(K + lambda I) alpha = y`` on the training kernel matrix; the
    prediction is ``K(x, X_train) @ alpha``.
    """

    def __init__(self, alpha: float = 1.0, gamma: "float | None" = None) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = alpha
        self.gamma = gamma
        self._X: "np.ndarray | None" = None
        self._coef: "np.ndarray | None" = None
        self._y_mean = 0.0
        self._gamma_fitted = 1.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KernelRidge":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        self._gamma_fitted = self.gamma if self.gamma is not None else gamma_scale(X)
        self._y_mean = float(y.mean()) if len(y) else 0.0
        K = rbf_kernel(X, X, self._gamma_fitted)
        K[np.diag_indices_from(K)] += self.alpha
        self._coef = np.linalg.solve(K, y - self._y_mean)
        self._X = X
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._X is None or self._coef is None:
            raise NotFittedError("KernelRidge used before fit()")
        K = rbf_kernel(np.asarray(X, dtype=float), self._X, self._gamma_fitted)
        return K @ self._coef + self._y_mean
