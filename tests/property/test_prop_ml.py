"""Property-based tests for the ML substrate."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml import svc
from repro.ml.kernels import gamma_scale, linear_kernel, rbf_kernel
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.preprocessing import OneHotEncoder, StandardScaler
from repro.ml.svc import BinarySVC, OneVsRestSVC

matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(3, 40), st.integers(1, 6)),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


class TestScalerProperties:
    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_transform_then_inverse_is_identity(self, X):
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(X)), X, atol=1e-6
        )

    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_transformed_training_data_is_standardised(self, X):
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-7)
        stds = Z.std(axis=0)
        # Unit variance, except (numerically) constant columns, which the
        # scaler centers but leaves at zero spread.
        tiny = 1e-12 * np.maximum(np.abs(X.mean(axis=0)), 1.0)
        for j in range(X.shape[1]):
            if X[:, j].std() > tiny[j]:
                assert abs(stds[j] - 1.0) < 1e-7
            else:
                assert stds[j] <= 1e-7

    @given(matrices, st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, X, shift):
        # Standardisation is shift-invariant only up to cancellation:
        # std(X + shift) loses ~eps * |shift| / std(X) relative precision,
        # so columns whose spread is dwarfed by the shift are excluded
        # rather than asserted with a vacuously loose tolerance.  Exactly
        # constant columns stay: both fits center them identically.
        spread = X.std(axis=0)
        well_conditioned = (spread == 0.0) | (spread > 1e-6 * (1.0 + abs(shift)))
        assume(bool(np.all(well_conditioned)))
        a = StandardScaler().fit_transform(X)
        b = StandardScaler().fit_transform(X + shift)
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestOneHotProperties:
    @given(st.integers(1, 12), st.lists(st.integers(0, 11), min_size=0, max_size=50))
    @settings(max_examples=80)
    def test_rows_sum_to_one_and_decode(self, n_categories, raw):
        values = np.array([v % n_categories for v in raw], dtype=int)
        out = OneHotEncoder(n_categories).transform(values)
        assert out.shape == (len(values), n_categories)
        if len(values):
            np.testing.assert_allclose(out.sum(axis=1), 1.0)
            np.testing.assert_array_equal(np.argmax(out, axis=1), values)


class TestNaiveBayesProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_feature_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] + 0.5 * X[:, 2] > 0).astype(int)
        if len(np.unique(y)) < 2:
            return
        perm = rng.permutation(4)
        a = GaussianNaiveBayes().fit(X, y).predict(X)
        b = GaussianNaiveBayes().fit(X[:, perm], y).predict(X[:, perm])
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_training_points_prefer_their_cluster(self, seed):
        rng = np.random.default_rng(seed)
        offset = 30.0  # far-separated clusters: training accuracy must be 1
        X = np.vstack(
            [rng.normal(0, 1, size=(20, 2)), rng.normal(offset, 1, size=(20, 2))]
        )
        y = np.repeat([0, 1], 20)
        model = GaussianNaiveBayes().fit(X, y)
        np.testing.assert_array_equal(model.predict(X), y)


def reference_smo(K, y, C=1.0, tol=1e-3, max_iter=200):
    """``BinarySVC.fit`` as it trained one machine at a time, as the oracle.

    The loop is kept verbatim (``self.C``, ``self.tol`` and
    ``self.max_iter`` became arguments); it returns the machine's
    ``(support_, dual_coef_, b)``.
    """
    n = len(K)
    if len(np.unique(y)) < 2:
        # Degenerate one-class training set: constant decision function.
        support = np.arange(min(n, 1))
        return support, np.zeros(len(support)), float(y[0]) if n else 1.0

    K_diag = K.diagonal().copy()
    alpha = np.zeros(n)
    yG = -y.copy()
    up = y > 0
    low = ~up
    for _ in range(max_iter * n):
        scores = np.where(up, -yG, -np.inf)
        i = int(np.argmax(scores))
        g_max = scores[i]
        if g_max + np.max(np.where(low, yG, -np.inf)) < tol:
            break
        grad_diff = g_max + yG
        curvature = K_diag[i] + K_diag - 2.0 * K[i]
        curvature[curvature <= 0.0] = 1e-12
        gains = np.where(low & (grad_diff > 0.0), grad_diff * grad_diff / curvature, -np.inf)
        j = int(np.argmax(gains))

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

    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        rho = float(yG[free].mean())
    else:
        at_upper = alpha >= C
        ub_rows = np.where(y > 0, ~at_upper, at_upper)
        rho = (float(yG[ub_rows].min()) + float(yG[~ub_rows].max())) / 2.0
    support = np.flatnonzero(alpha > 0.0)
    return support, (alpha * y)[support], -rho


def assert_matches_reference(machine, K, y, C, max_iter=200):
    """*machine* equals the oracle's machine for labels *y*, bit for bit."""
    support, dual_coef, b = reference_smo(K, y, C, machine.tol, max_iter)
    np.testing.assert_array_equal(machine.support_, support)
    np.testing.assert_array_equal(machine.dual_coef_, dual_coef)
    assert machine._b == b
    np.testing.assert_array_equal(
        machine.decision_function(K), K[:, support] @ dual_coef + b
    )


@st.composite
def grams(draw):
    """A linear or RBF Gram on 5 to 60 rows, some of them duplicates."""
    n = draw(st.integers(5, 60))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = gen.normal(size=(n, draw(st.integers(1, 4))))
    # Duplicate rows give zero pair curvatures, which libsvm floors at τ.
    n_dup = draw(st.integers(0, n // 4))
    X[n - n_dup :] = X[:n_dup]
    if draw(st.booleans()):
        return linear_kernel(X, X)
    return rbf_kernel(X, X, gamma_scale(X))


@st.composite
def label_rows(draw, n):
    """1 to 12 ±1 rows, mixing balanced, imbalanced and one-class rows."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["balanced", "rare", "common", "one"]),
                              min_size=1, max_size=12)):
        if kind == "one":
            rows.append(np.full(n, draw(st.sampled_from([1.0, -1.0]))))
            continue
        n_pos = {"balanced": n // 2, "rare": draw(st.integers(1, 3)),
                 "common": n - draw(st.integers(1, 3))}[kind]
        row = np.full(n, -1.0)
        row[gen.permutation(n)[:n_pos]] = 1.0
        rows.append(row)
    return np.array(rows)


class TestLockstepSMOMatchesOneMachineAtATime:
    """Every machine of a lockstep fit equals the scalar loop's, bit for bit."""

    @given(st.data(), grams(), st.sampled_from([1e-3, 1.0, 5.0]),
           st.sampled_from([1, 2, 3, 200]), st.sampled_from([1, 2, 5, None]))
    @settings(max_examples=150, deadline=None)
    def test_label_rows(self, data, K, C, max_iter, group):
        Y = data.draw(label_rows(len(K)))
        machines = [BinarySVC(C=C, max_iter=max_iter) for _ in Y]
        # Groups of 1, 2 or 5 machines per loop, or every machine in one.
        limit = svc._GROUP_ELEMENTS if group is None else group * len(K)
        with mock.patch.object(svc, "_GROUP_ELEMENTS", limit):
            svc._fit_lockstep(machines, K, Y)
        for machine, y in zip(machines, Y):
            assert_matches_reference(machine, K, y, C, max_iter)

    @given(st.data(), grams(), st.sampled_from([1e-3, 1.0, 5.0]))
    @settings(max_examples=60, deadline=None)
    def test_fit_many_class_vectors(self, data, K, C):
        n = len(K)
        vectors = data.draw(st.lists(
            hnp.arrays(np.int64, n, elements=st.sampled_from([0, 0, 0, 1, 2, 5])),
            min_size=1, max_size=6,
        ))
        models = OneVsRestSVC.fit_many(K, vectors, C=C)
        assert len(models) == len(vectors)
        for model, y in zip(models, vectors):
            classes = np.unique(y)
            np.testing.assert_array_equal(model.classes_, classes)
            positives = classes[1:] if len(classes) == 2 else classes
            assert len(model._machines) == len(positives)
            for machine, positive in zip(model._machines, positives):
                assert_matches_reference(machine, K, np.where(y == positive, 1.0, -1.0), C)
            np.testing.assert_array_equal(model.predict(K), OneVsRestSVC(C).fit(K, y).predict(K))
