"""Tests for the SMO-trained support vector classifier.

The machines train and predict on precomputed kernels; :func:`_kernel`
builds them as the machines used to, with ``gamma_scale`` of the
training rows unless a test fixes γ.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.core.errors import NotFittedError
from repro.ml.kernels import gamma_scale, linear_kernel, rbf_kernel
from repro.ml import svc
from repro.ml.metrics import accuracy_score
from repro.ml.svc import BinarySVC, OneVsRestSVC


_GAMMA = 0.5


def _kernel(A, B, kernel="rbf", gamma=None):
    """``K(A, B)`` against the training rows *B*."""
    if kernel == "linear":
        return linear_kernel(A, B)
    return rbf_kernel(A, B, gamma if gamma is not None else gamma_scale(B))


def _dual_problem(kernel, balance, seed):
    """A small seeded SVM dual: features, ±1 labels and the kernel matrix."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 3))
    score = X[:, 0] + 0.5 * X[:, 1] * X[:, 2] + 0.5 * rng.normal(size=40)
    if balance == "balanced":
        y = np.where(score > np.median(score), 1.0, -1.0)
    else:
        y = np.where(score >= np.sort(score)[-4], 1.0, -1.0)
    return X, y, _kernel(X, X, kernel, _GAMMA)


def _slsqp_dual(K, y, C):
    """Reference optimum of min ½αᵀQα - Σα, yᵀα = 0, 0 ≤ α ≤ C."""
    Q = np.outer(y, y) * K
    result = minimize(
        lambda a: 0.5 * a @ Q @ a - a.sum(),
        np.zeros(len(y)),
        jac=lambda a: Q @ a - 1.0,
        bounds=[(0.0, C)] * len(y),
        constraints=[{"type": "eq", "fun": lambda a: y @ a, "jac": lambda a: y}],
        method="SLSQP",
        options={"ftol": 1e-12, "maxiter": 2000},
    )
    assert result.success, result.message
    return float(result.fun)


def _full_alpha(model, n):
    alpha = np.zeros(n)
    alpha[model.support_] = np.abs(model.dual_coef_)
    return alpha


@pytest.fixture(scope="module")
def linear_task():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 2))
    y = np.where(X[:, 0] + X[:, 1] > 0, 1.0, -1.0)
    return X, y


@pytest.fixture(scope="module")
def circle_task():
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 2, size=(400, 2))
    y = np.where((X**2).sum(axis=1) < 1.5, 1.0, -1.0)
    return X, y


class TestBinarySVC:
    def test_separable_linear(self, linear_task):
        X, y = linear_task
        K = _kernel(X, X, "linear")
        model = BinarySVC(C=10.0).fit(K, y)
        assert accuracy_score(y, model.predict(K)) > 0.95

    def test_rbf_on_nonlinear_task(self, circle_task):
        X, y = circle_task
        K = _kernel(X, X)
        model = BinarySVC(C=5.0).fit(K, y)
        assert accuracy_score(y, model.predict(K)) > 0.9

    def test_linear_kernel_fails_on_circle(self, circle_task):
        """The nonlinear task should separate RBF from linear decision power."""
        X, y = circle_task
        K_linear, K_rbf = _kernel(X, X, "linear"), _kernel(X, X)
        linear = BinarySVC(C=5.0).fit(K_linear, y)
        rbf = BinarySVC(C=5.0).fit(K_rbf, y)
        assert accuracy_score(y, rbf.predict(K_rbf)) > accuracy_score(y, linear.predict(K_linear))

    def test_generalisation(self, circle_task):
        X, y = circle_task
        model = BinarySVC(C=5.0).fit(_kernel(X[:300], X[:300]), y[:300])
        assert accuracy_score(y[300:], model.predict(_kernel(X[300:], X[:300]))) > 0.85

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            BinarySVC().predict(np.zeros((1, 2)))

    def test_bad_labels_raise(self):
        with pytest.raises(ValueError, match="labels"):
            BinarySVC().fit(np.zeros((3, 3)), np.array([0.0, 1.0, 2.0]))

    def test_one_class_degenerate(self):
        X = np.zeros((5, 2))
        y = np.ones(5)
        model = BinarySVC().fit(_kernel(X, X), y)
        test = np.random.default_rng(0).normal(size=(4, 2))
        assert (model.predict(_kernel(test, X)) == 1.0).all()

    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_one_class_decision_is_the_label(self, label):
        """One class on a precomputed K: one zero-weight support vector, b = y."""
        X = np.random.default_rng(1).normal(size=(6, 2))
        model = BinarySVC().fit(_kernel(X, X), np.full(6, label))
        np.testing.assert_array_equal(model.support_, [0])
        np.testing.assert_array_equal(model.dual_coef_, [0.0])
        test = np.random.default_rng(2).normal(size=(3, 2))
        np.testing.assert_array_equal(model.decision_function(_kernel(test, X)), np.full(3, label))

    def test_support_vectors_subset(self, linear_task):
        X, y = linear_task
        model = BinarySVC(C=1.0).fit(_kernel(X, X), y)
        assert 0 < model.n_support <= len(X)

    def test_keeps_no_kernel_rows(self, circle_task):
        """A fitted machine holds vectors over its support, not kernel rows."""
        X, y = circle_task
        model = BinarySVC(C=5.0).fit(_kernel(X, X), y)
        assert all(np.ndim(value) <= 1 for value in vars(model).values())

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BinarySVC(C=0.0)
        with pytest.raises(ValueError, match="tol"):
            BinarySVC(tol=0.0)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_raises(self, max_iter):
        """A zero budget used to return an untrained machine that answers +1."""
        with pytest.raises(ValueError, match="max_iter"):
            BinarySVC(max_iter=max_iter)

    def test_decision_function_sign_matches_predict(self, circle_task):
        X, y = circle_task
        K = _kernel(X, X)
        model = BinarySVC(C=5.0).fit(K, y)
        scores = model.decision_function(K)
        preds = model.predict(K)
        np.testing.assert_array_equal(np.where(scores >= 0, 1.0, -1.0), preds)


class TestSolverAgainstReference:
    """The SMO optimum against scipy's SLSQP on the same dual problem."""

    C = 1.0

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    @pytest.mark.parametrize("balance", ["balanced", "imbalanced"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_slsqp_optimum(self, kernel, balance, seed):
        X, y, K = _dual_problem(kernel, balance, seed)
        model = BinarySVC(C=self.C).fit(K, y)
        alpha = _full_alpha(model, len(y))
        Q = np.outer(y, y) * K
        objective = 0.5 * alpha @ Q @ alpha - alpha.sum()
        reference = _slsqp_dual(K, y, self.C)
        assert abs(objective - reference) <= 1e-4 * abs(reference)

        # Feasibility and the KKT gap m(α) - M(α) at the returned point.
        assert abs(y @ alpha) <= 1e-8
        assert (alpha >= 0.0).all() and (alpha <= self.C).all()
        minus_yG = -y * (Q @ alpha - 1.0)
        up = np.where(y > 0, alpha < self.C, alpha > 0)
        low = np.where(y > 0, alpha > 0, alpha < self.C)
        assert minus_yG[up].max() - minus_yG[low].min() <= model.tol

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    @pytest.mark.parametrize("C", [1.0, 1e-3])
    def test_bias_meets_the_margin_conditions(self, kernel, C):
        """y f(x) ≥ 1 at α = 0, = 1 when free, ≤ 1 at α = C, all within tol.

        C = 1e-3 leaves every support vector at the bound, which exercises
        the midpoint fallback for the bias.
        """
        _, y, K = _dual_problem(kernel, "balanced", 0)
        model = BinarySVC(C=C).fit(K, y)
        alpha = _full_alpha(model, len(y))
        margins = y * model.decision_function(K)
        free = (alpha > 0) & (alpha < C)
        assert free.any() == (C == 1.0)
        assert (margins[alpha == 0] >= 1.0 - model.tol).all()
        assert (margins[alpha >= C] <= 1.0 + model.tol).all()
        np.testing.assert_allclose(margins[free], 1.0, atol=model.tol)

        # libsvm's ρ: the mean of y G over the free vectors, otherwise the
        # midpoint of the bounds the bounded vectors put on it.
        yG = y * (np.outer(y, y) * K @ alpha - 1.0)
        if free.any():
            rho = yG[free].mean()
        else:
            bounds_rho_above = np.where(y > 0, alpha < C, alpha >= C)
            rho = (yG[bounds_rho_above].min() + yG[~bounds_rho_above].max()) / 2.0
        np.testing.assert_allclose(model.decision_function(K), K @ (alpha * y) - rho, atol=1e-9)

    def test_refits_are_bit_identical(self, circle_task):
        X, y = circle_task
        K = _kernel(X, X)
        first = BinarySVC(C=5.0).fit(K, y)
        second = BinarySVC(C=5.0).fit(K, y)
        np.testing.assert_array_equal(first.support_, second.support_)
        np.testing.assert_array_equal(first.dual_coef_, second.dual_coef_)
        np.testing.assert_array_equal(first.decision_function(K), second.decision_function(K))


_LABELS = np.array([1.0, -1.0, 1.0, -1.0])


class TestShapeValidation:
    @pytest.mark.parametrize("make", [BinarySVC, OneVsRestSVC])
    def test_label_count_mismatch(self, make):
        with pytest.raises(ValueError, match="K has 100 rows but y has 1"):
            make().fit(np.eye(100), np.array([1.0]))

    @pytest.mark.parametrize("make", [BinarySVC, OneVsRestSVC])
    def test_one_dimensional_kernel(self, make):
        with pytest.raises(ValueError, match=r"square \(n, n\) kernel matrix, got shape \(4,\)"):
            make().fit(np.zeros(4), _LABELS)

    @pytest.mark.parametrize("make", [BinarySVC, OneVsRestSVC])
    def test_non_square_kernel(self, make):
        with pytest.raises(ValueError, match=r"square \(n, n\) kernel matrix, got shape \(4, 2\)"):
            make().fit(np.zeros((4, 2)), _LABELS)

    @pytest.mark.parametrize("make", [BinarySVC, OneVsRestSVC])
    def test_two_dimensional_labels(self, make):
        with pytest.raises(ValueError, match=r"1-d labels, got shape \(4, 1\)"):
            make().fit(np.zeros((4, 4)), np.ones((4, 1)))

    @pytest.mark.parametrize(
        "make, labels",
        [
            (BinarySVC, _LABELS),
            (BinarySVC, np.ones(4)),
            (OneVsRestSVC, np.array([0, 1, 0, 1])),
            (OneVsRestSVC, np.array([0, 1, 2, 0])),
            (OneVsRestSVC, np.full(4, 3)),
        ],
        ids=["binary", "binary-one-class", "ovr-two-class", "ovr-three-class", "ovr-one-class"],
    )
    @pytest.mark.parametrize("shape", [(2, 3), (2, 5), (4,)])
    def test_test_kernel_needs_n_columns(self, make, labels, shape):
        X = np.random.default_rng(0).normal(size=(4, 2))
        model = make().fit(_kernel(X, X), labels)
        with pytest.raises(ValueError, match=r"\(m, 4\) kernel against the training rows"):
            model.predict(np.zeros(shape))


class TestOneVsRestSVC:
    def test_multiclass_quadrants(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 2, size=(400, 2))
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        K = _kernel(X, X)
        model = OneVsRestSVC(C=5.0).fit(K, y)
        assert accuracy_score(y, model.predict(K)) > 0.9

    def test_predicts_known_classes_only(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        y = rng.choice([3, 7, 11], size=100)
        K = _kernel(X, X)
        model = OneVsRestSVC().fit(K, y)
        assert set(model.predict(K)).issubset({3, 7, 11})

    def test_single_class_training(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.full(20, 5)
        K = _kernel(X, X)
        model = OneVsRestSVC().fit(K, y)
        assert (model.predict(K) == 5).all()

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            OneVsRestSVC().predict(np.zeros((1, 2)))

    @pytest.mark.parametrize("C", [0.0, -1.0, float("nan")])
    def test_non_positive_C_raises_at_construction(self, C):
        with pytest.raises(ValueError, match="C must be positive"):
            OneVsRestSVC(C=C)

    def test_imbalanced_frequency_prediction_task(self):
        """A sketch of the recovery task: mostly-zero counts with structure."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 5))
        # Target is 0 unless feature 2 is large, then 1 or 2.
        y = np.where(X[:, 2] > 1.0, np.where(X[:, 3] > 0, 2, 1), 0)
        K = _kernel(X, X)
        model = OneVsRestSVC(C=5.0).fit(K, y)
        assert accuracy_score(y, model.predict(K)) > 0.9


def _quadrant_parity_task():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(400, 2))
    return X, ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)


def _imbalanced_two_class_task():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, 5))
    return X, np.where(X[:, 2] > 1.0, 4, 0)


class TestTwoClassOneVsRest:
    """Two classes train one machine, which agrees with the mirrored pair."""

    @pytest.mark.parametrize("task", [_quadrant_parity_task, _imbalanced_two_class_task])
    def test_matches_argmax_of_mirror_machines(self, task):
        X, y = task()
        K = _kernel(X, X)
        model = OneVsRestSVC(C=5.0).fit(K, y)
        classes = np.unique(y)
        mirrors = [BinarySVC(C=5.0).fit(K, np.where(y == cls, 1.0, -1.0)) for cls in classes]
        scores = np.stack([m.decision_function(K) for m in mirrors], axis=1)
        np.testing.assert_array_equal(model.predict(K), classes[np.argmax(scores, axis=1)])

    def test_trains_a_single_machine(self, monkeypatch):
        X, y = _quadrant_parity_task()
        calls = []
        smo = svc._smo

        def counting_smo(K, Y, *args):
            calls.append(Y.shape)
            return smo(K, Y, *args)

        monkeypatch.setattr(svc, "_smo", counting_smo)
        OneVsRestSVC(C=5.0).fit(_kernel(X, X), y)
        assert calls == [(1, len(X))]

    def test_ties_resolve_to_the_first_class(self):
        X = np.zeros((6, 2))
        y = np.array([2, 9, 2, 9, 2, 9])
        model = OneVsRestSVC().fit(_kernel(X, X), y)
        assert (model.predict(_kernel(np.zeros((3, 2)), X)) == 2).all()
