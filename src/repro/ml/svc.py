"""Support vector classification trained with libsvm's SMO.

A from-scratch replacement for scikit-learn's ``SVC`` (the paper's
prediction model for recovering sanitized frequencies, §III-A): a binary
soft-margin SVM solved on a precomputed kernel matrix by the same
algorithm libsvm uses — Sequential Minimal Optimization with second-order
working-set selection (Fan, Chen & Lin, "Working Set Selection Using
Second Order Information for Training SVM", JMLR 6, 2005) — plus a
one-vs-rest wrapper for multiclass frequency prediction.

The machines never see features: like scikit-learn's
``kernel="precomputed"``, ``fit`` takes the ``(n, n)`` training Gram and
``decision_function`` / ``predict`` take the ``(m, n)`` kernel between the
test rows and all ``n`` training rows.  The caller builds each kernel
once and every machine trained on the same rows shares it.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import NotFittedError

__all__ = ["BinarySVC", "OneVsRestSVC"]

#: libsvm's floor for a non-positive pair curvature ``K_ii + K_jj - 2 K_ij``.
_TAU = 1e-12


def _check_gram(K: np.ndarray, y: np.ndarray) -> None:
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square (n, n) kernel matrix, got shape {K.shape}")
    if y.ndim != 1:
        raise ValueError(f"expected 1-d labels, got shape {y.shape}")
    if len(K) != len(y):
        raise ValueError(f"K has {len(K)} rows but y has {len(y)}")


class BinarySVC:
    """Binary soft-margin SVM on a precomputed kernel.

    Parameters
    ----------
    C:
        Soft-margin penalty.
    tol:
        Stopping tolerance on the maximal KKT violation ``m(α) - M(α)``
        (libsvm's ``eps``).
    max_iter:
        Caps training at ``max_iter * n`` pair updates for ``n`` training
        rows.

    Attributes
    ----------
    support_:
        Training-row indices of the support vectors (``α > 0``).
    dual_coef_:
        ``α_s y_s`` for each support vector, in ``support_`` order.
    """

    def __init__(self, C: float = 1.0, tol: float = 1e-3, max_iter: int = 200) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        if tol <= 0:
            raise ValueError(f"tol must be positive, got {tol}")
        self.C = C
        self.tol = tol
        self.max_iter = max_iter
        self.support_: "np.ndarray | None" = None
        self.dual_coef_: "np.ndarray | None" = None
        self._b = 0.0
        self._n_train = 0

    def fit(self, K: np.ndarray, y: np.ndarray) -> "BinarySVC":
        """Train on the ``(n, n)`` Gram *K* and labels ``y`` in ``{-1, +1}``."""
        K = np.asarray(K, dtype=float)
        y = np.asarray(y, dtype=float)
        _check_gram(K, y)
        if set(np.unique(y)) - {-1.0, 1.0}:
            raise ValueError("labels must be in {-1, +1}")
        n = len(K)
        self._n_train = n
        if len(np.unique(y)) < 2:
            # Degenerate one-class training set: constant decision function.
            self.support_ = np.arange(min(n, 1))
            self.dual_coef_ = np.zeros(len(self.support_))
            self._b = float(y[0]) if n else 1.0
            return self

        C = self.C
        K_diag = K.diagonal().copy()
        alpha = np.zeros(n)
        # yG = y * G for the dual gradient G = Q @ alpha - 1, where
        # Q[s, t] = y_s y_t K[s, t]; with y in {-1, +1} it updates as
        # yG += Σ_pair y_p Δα_p K[p].
        yG = -y.copy()
        # I_up / I_low: the rows whose alpha may move up / down along y;
        # at alpha = 0 those are the positive / negative rows.
        up = y > 0
        low = ~up
        for _ in range(self.max_iter * n):
            # First choice: the maximal violator i = argmax_{I_up} -y G.
            scores = np.where(up, -yG, -np.inf)
            i = int(np.argmax(scores))
            g_max = scores[i]
            if g_max + np.max(np.where(low, yG, -np.inf)) < self.tol:
                break
            # Second choice: j over I_low maximizing the second-order gain
            # b² / a, with b = -y_i G_i + y_j G_j > 0 and the pair curvature
            # a = K_ii + K_jj - 2 K_ij floored at τ.
            grad_diff = g_max + yG
            curvature = K_diag[i] + K_diag - 2.0 * K[i]
            curvature[curvature <= 0.0] = _TAU
            gains = np.where(low & (grad_diff > 0.0), grad_diff * grad_diff / curvature, -np.inf)
            j = int(np.argmax(gains))

            # Two-variable update along y_i α_i + y_j α_j = const, clipped
            # to the box [0, C]² (libsvm's Solver::Solve).
            ai_old, aj_old = alpha[i], alpha[j]
            a = float(curvature[j])
            if y[i] != y[j]:
                delta = y[i] * (yG[j] - yG[i]) / a
                diff = ai_old - aj_old
                ai, aj = ai_old + delta, aj_old + delta
                if diff > 0.0:
                    if aj < 0.0:
                        ai, aj = diff, 0.0
                elif ai < 0.0:
                    ai, aj = 0.0, -diff
                if diff > 0.0:
                    if ai > C:
                        ai, aj = C, C - diff
                elif aj > C:
                    ai, aj = C + diff, C
            else:
                delta = y[i] * (yG[i] - yG[j]) / a
                total = ai_old + aj_old
                ai, aj = ai_old - delta, aj_old + delta
                if total > C:
                    if ai > C:
                        ai, aj = C, total - C
                    if aj > C:
                        ai, aj = total - C, C
                else:
                    if aj < 0.0:
                        ai, aj = total, 0.0
                    if ai < 0.0:
                        ai, aj = 0.0, total
            alpha[i], alpha[j] = ai, aj
            yG += (y[i] * (ai - ai_old)) * K[i] + (y[j] * (aj - aj_old)) * K[j]
            for t in (i, j):
                up[t] = alpha[t] < C if y[t] > 0 else alpha[t] > 0
                low[t] = alpha[t] > 0 if y[t] > 0 else alpha[t] < C

        # b = -ρ: the mean of y G over free support vectors, or the middle
        # of the interval the bounded ones leave when none is free.
        free = (alpha > 0.0) & (alpha < C)
        if free.any():
            rho = float(yG[free].mean())
        else:
            # Both sides are non-empty: y @ alpha = 0 rules out every
            # positive row at C with every negative row at 0, and vice versa.
            at_upper = alpha >= C
            ub_rows = np.where(y > 0, ~at_upper, at_upper)
            rho = (float(yG[ub_rows].min()) + float(yG[~ub_rows].max())) / 2.0

        self.support_ = np.flatnonzero(alpha > 0.0)
        self.dual_coef_ = (alpha * y)[self.support_]
        self._b = -rho
        return self

    @property
    def n_support(self) -> int:
        """Number of support vectors."""
        if self.dual_coef_ is None:
            raise NotFittedError("BinarySVC used before fit()")
        return len(self.dual_coef_)

    def decision_function(self, K_test: np.ndarray) -> np.ndarray:
        """Signed margin ``f(x)`` for each row of the ``(m, n)`` kernel *K_test*."""
        if self.support_ is None or self.dual_coef_ is None:
            raise NotFittedError("BinarySVC used before fit()")
        K_test = np.asarray(K_test, dtype=float)
        if K_test.ndim != 2 or K_test.shape[1] != self._n_train:
            raise ValueError(
                f"expected an (m, {self._n_train}) kernel against the training rows, "
                f"got shape {K_test.shape}"
            )
        return K_test[:, self.support_] @ self.dual_coef_ + self._b

    def predict(self, K_test: np.ndarray) -> np.ndarray:
        """Predicted labels in ``{-1, +1}``; ties resolve to +1."""
        return np.where(self.decision_function(K_test) >= 0.0, 1.0, -1.0)


class OneVsRestSVC:
    """Multiclass SVC via one binary machine per observed class.

    Predicts the class whose binary machine reports the largest decision
    value — the standard one-vs-rest rule.  Classes are arbitrary integers
    (here: candidate frequency values of a sanitized POI type).  A
    two-class problem trains a single machine, ``classes_[1]`` against
    ``classes_[0]``, as libsvm does; ties go to ``classes_[0]``.  Every
    machine trains on the same Gram and predicts from the same test kernel.
    """

    def __init__(self, C: float = 1.0) -> None:
        self.C = C
        self.classes_: "np.ndarray | None" = None
        self._machines: list[BinarySVC] = []

    def fit(self, K: np.ndarray, y: np.ndarray) -> "OneVsRestSVC":
        """Train on the ``(n, n)`` Gram *K* and integer class labels *y*."""
        K = np.asarray(K, dtype=float)
        y = np.asarray(y)
        _check_gram(K, y)
        self.classes_ = np.unique(y)
        positives = self.classes_[1:] if len(self.classes_) == 2 else self.classes_
        self._machines = [
            BinarySVC(C=self.C).fit(K, np.where(y == cls, 1.0, -1.0)) for cls in positives
        ]
        return self

    def predict(self, K_test: np.ndarray) -> np.ndarray:
        """Predicted class per row of the ``(m, n)`` kernel *K_test*."""
        if self.classes_ is None:
            raise NotFittedError("OneVsRestSVC used before fit()")
        if len(self.classes_) == 2:
            scores = self._machines[0].decision_function(K_test)
            return np.where(scores > 0.0, self.classes_[1], self.classes_[0])
        scores = np.stack([m.decision_function(K_test) for m in self._machines], axis=1)
        return self.classes_[np.argmax(scores, axis=1)]
