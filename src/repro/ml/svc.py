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

Every machine trained on one Gram trains in lockstep
(:meth:`OneVsRestSVC.fit_many`; :meth:`BinarySVC.fit` is the case of one
machine): each SMO iteration advances every machine still training by
its own next pair update, in one pass over ``(B, n)`` arrays for ``B``
such machines, so NumPy's fixed cost per call is paid once per iteration
rather than once per machine.  A machine makes exactly the choices and
floating-point updates it would make alone.  Memory beside the caller's
Gram: the ``±1`` label rows, 10 bytes per machine and training row while
they are built and checked (16 MB for 162 machines at ``n = 10,000``),
and the loop's working set of about 14 arrays of at most
``max(_GROUP_ELEMENTS, n)`` doubles (3.5 MiB while ``n <= 32,768``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.errors import NotFittedError

__all__ = ["BinarySVC", "OneVsRestSVC"]

#: libsvm's floor for a non-positive pair curvature ``K_ii + K_jj - 2 K_ij``.
_TAU = 1e-12

#: At most this many (machine, training row) entries train in one
#: lockstep loop; a fit with more machines trains them in groups, which
#: keeps each of the loop's ``(B, n)`` arrays within 256 KiB.  Measured on
#: a 2-vCPU Xeon VM (2 MiB L2 per core), a Beijing 1 km fit of 162
#: machines at ``n = 5,000`` took 10.4 s at 16,384, 8.2-9.5 s at 32,768,
#: 8.9 s at 65,536, 9.4 s at 131,072 and 10.2 s at 262,144, against
#: 11.0 s one machine at a time; the fig. 2 ``quick`` fits (``n = 800``)
#: did not move between 32,768 and 131,072.  Every ``ci`` fit is one group.
_GROUP_ELEMENTS = 32_768


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
        if not C > 0:
            raise ValueError(f"C must be positive, got {C}")
        if not tol > 0:
            raise ValueError(f"tol must be positive, got {tol}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {max_iter}")
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
        _fit_lockstep([self], K, y[None, :])
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


def _fit_lockstep(machines: Sequence[BinarySVC], K: np.ndarray, Y: np.ndarray) -> None:
    """Train ``machines[r]`` on the ``{-1, +1}`` label row ``Y[r]`` of the Gram *K*.

    The machines share ``C``, ``tol`` and ``max_iter``.  A one-class row
    gets a constant decision function; the others train in lockstep, in
    groups of at most ``max(1, _GROUP_ELEMENTS // n)`` machines.
    """
    n = len(K)
    two_class = (Y > 0).any(axis=1) & (Y < 0).any(axis=1)
    for machine, y, trains in zip(machines, Y, two_class):
        machine._n_train = n
        if not trains:
            # Degenerate one-class training set: constant decision function.
            machine.support_ = np.arange(min(n, 1))
            machine.dual_coef_ = np.zeros(len(machine.support_))
            machine._b = float(y[0]) if n else 1.0
    rows = np.flatnonzero(two_class)
    if not len(rows):
        return
    C, tol, max_iter = float(machines[0].C), machines[0].tol, machines[0].max_iter
    for group in np.array_split(rows, -(-len(rows) // max(1, _GROUP_ELEMENTS // n))):
        alpha, rho = _smo(K, Y[group], C, tol, max_iter)
        for r, row in enumerate(group.tolist()):
            machine = machines[row]
            machine.support_ = np.flatnonzero(alpha[r] > 0.0)
            machine.dual_coef_ = (alpha[r] * Y[row])[machine.support_]
            machine._b = -float(rho[r])


def _smo(
    K: np.ndarray, y: np.ndarray, C: float, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """libsvm's SMO for every label row of *y* on the Gram *K*, in lockstep.

    Every row of the ``(B, n)`` labels *y* holds both classes.  Returns the
    dual solutions ``alpha`` ``(B, n)`` and the offsets ``rho`` ``(B,)``.
    Each iteration advances every machine still training by its own next
    pair update; a machine leaves when it meets the stop test or has made
    its ``max_iter * n`` updates.
    """
    B, n = y.shape
    K_diag = K.diagonal().copy()
    alpha_out = np.zeros((B, n))
    rho_out = np.empty(B)
    # The machines still training: row r holds machine ids[r].
    ids = np.arange(B)
    rows = np.arange(B)
    alpha = np.zeros((B, n))
    # yG = y * G for the dual gradient G = Q @ alpha - 1, where
    # Q[s, t] = y_s y_t K[s, t]; with y in {-1, +1} it updates as
    # yG += Σ_pair y_p Δα_p K[p].
    yG = -y
    # I_up / I_low, the rows whose alpha may move up / down along y, as
    # penalties: 0 inside the set, -inf outside, added where libsvm masks
    # (a sum is branch-free; it can only flip the sign of a zero score).
    # At alpha = 0 those are the positive / negative rows.
    up = _penalty(y > 0)
    low = _penalty(y < 0)

    def retire(done: np.ndarray) -> None:
        for r in done.tolist():
            alpha_out[ids[r]] = alpha[r]
            rho_out[ids[r]] = _rho(alpha[r], y[r], yG[r], C)

    for _ in range(max_iter * n):
        # First choice: the maximal violator i = argmax_{I_up} -y G.
        scores = up - yG
        i = scores.argmax(axis=1)
        g_max = scores[rows, i]
        done = g_max + (low + yG).max(axis=1) < tol
        if done.any():
            retire(np.flatnonzero(done))
            keep = ~done
            ids, y, alpha, yG, up, low, i, g_max = (
                a[keep] for a in (ids, y, alpha, yG, up, low, i, g_max)
            )
            if not len(ids):
                break
            rows = np.arange(len(ids))
        # Second choice: j over I_low maximizing the second-order gain
        # b² / a, with b = -y_i G_i + y_j G_j > 0 and the pair curvature
        # a = K_ii + K_jj - 2 K_ij floored at τ.  Clamping b at 0 gives
        # the rows with b <= 0 a gain of 0; a machine that passed the stop
        # test has a row with b >= tol and a positive gain, so they never win.
        K_i = K[i]
        curvature = K_diag[i][:, None] + K_diag
        curvature -= 2.0 * K_i
        curvature[curvature <= 0.0] = _TAU
        gains = g_max[:, None] + yG
        np.maximum(gains, 0.0, out=gains)
        gains *= gains
        gains /= curvature
        gains += low
        j = gains.argmax(axis=1)

        # Every machine's i, then every machine's j, as one index.
        pair = (np.concatenate((rows, rows)), np.concatenate((i, j)))
        y_pair, old = y[pair], alpha[pair]
        steps = zip(
            *y_pair.reshape(2, -1).tolist(), *old.reshape(2, -1).tolist(),
            *yG[pair].reshape(2, -1).tolist(), curvature[rows, j].tolist(),
        )
        new = np.array([_pair_update(*args, C) for args in steps]).T.ravel()
        alpha[pair] = new
        up[pair] = _penalty(np.where(y_pair > 0, new < C, new > 0.0))
        low[pair] = _penalty(np.where(y_pair > 0, new > 0.0, new < C))
        step = y_pair * (new - old)
        K_i *= step[: len(rows), None]
        K_j = K[j]
        K_j *= step[len(rows) :, None]
        K_i += K_j
        yG += K_i
    retire(np.arange(len(ids)))
    return alpha_out, rho_out


def _penalty(member: np.ndarray) -> np.ndarray:
    """0.0 where *member* holds, -inf elsewhere."""
    return np.where(member, 0.0, -np.inf)


def _pair_update(
    y_i: float, y_j: float, ai_old: float, aj_old: float,
    yG_i: float, yG_j: float, a: float, C: float,
) -> tuple[float, float]:
    """The two-variable step along ``y_i α_i + y_j α_j = const``, clipped
    to the box ``[0, C]²`` (libsvm's ``Solver::Solve``); *a* is the pair
    curvature."""
    if y_i != y_j:
        delta = y_i * (yG_j - yG_i) / a
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
        delta = y_i * (yG_i - yG_j) / a
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
    return ai, aj


def _rho(alpha: np.ndarray, y: np.ndarray, yG: np.ndarray, C: float) -> float:
    """The offset ρ = -b: the mean of y G over free support vectors, or the
    middle of the interval the bounded ones leave when none is free."""
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        return float(yG[free].mean())
    # Both sides are non-empty: y @ alpha = 0 rules out every
    # positive row at C with every negative row at 0, and vice versa.
    at_upper = alpha >= C
    ub_rows = np.where(y > 0, ~at_upper, at_upper)
    return (float(yG[ub_rows].min()) + float(yG[~ub_rows].max())) / 2.0


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
        if not C > 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.classes_: "np.ndarray | None" = None
        self._machines: list[BinarySVC] = []

    def fit(self, K: np.ndarray, y: np.ndarray) -> "OneVsRestSVC":
        """Train on the ``(n, n)`` Gram *K* and integer class labels *y*."""
        (fitted,) = self.fit_many(K, [y], C=self.C)
        self.classes_, self._machines = fitted.classes_, fitted._machines
        return self

    @classmethod
    def fit_many(
        cls, K: np.ndarray, label_vectors: Iterable[np.ndarray], C: float = 1.0
    ) -> list["OneVsRestSVC"]:
        """One model per integer label vector, all on the ``(n, n)`` Gram *K*.

        Every binary machine of every model trains in one lockstep SMO
        loop and ends exactly as ``BinarySVC(C).fit`` trains it alone.
        """
        K = np.asarray(K, dtype=float)
        models: list[OneVsRestSVC] = []
        # One ±1 label row per machine: a class against the rest.
        rows: list[tuple[np.ndarray, np.ndarray]] = []
        for y in label_vectors:
            y = np.asarray(y)
            _check_gram(K, y)
            model = cls(C)
            model.classes_ = np.unique(y)
            positives = model.classes_[1:] if len(model.classes_) == 2 else model.classes_
            model._machines = [BinarySVC(C=C) for _ in positives]
            rows += [(y, positive) for positive in positives]
            models.append(model)
        Y = np.empty((len(rows), len(K)))
        for out, (y, positive) in zip(Y, rows):
            out[:] = np.where(y == positive, 1.0, -1.0)
        machines = [machine for model in models for machine in model._machines]
        if machines:
            _fit_lockstep(machines, K, Y)
        return models

    def predict(self, K_test: np.ndarray) -> np.ndarray:
        """Predicted class per row of the ``(m, n)`` kernel *K_test*."""
        if self.classes_ is None:
            raise NotFittedError("OneVsRestSVC used before fit()")
        if len(self.classes_) == 2:
            scores = self._machines[0].decision_function(K_test)
            return np.where(scores > 0.0, self.classes_[1], self.classes_[0])
        scores = np.stack([m.decision_function(K_test) for m in self._machines], axis=1)
        return self.classes_[np.argmax(scores, axis=1)]
