"""Tests for the kernel ridge regressor."""

import numpy as np
import pytest

from repro.core.errors import NotFittedError
from repro.ml.svr import KernelRidge


def r2_score(y_true, y_pred):
    """Coefficient of determination of a fit."""
    ss_res = np.sum((y_true - y_pred) ** 2)
    ss_tot = np.sum((y_true - y_true.mean()) ** 2)
    return 1.0 - ss_res / ss_tot


@pytest.fixture(scope="module")
def nonlinear_task():
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(300, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + rng.normal(0, 0.05, 300)
    return X, y


class TestKernelRidge:
    def test_fits_nonlinear_function(self, nonlinear_task):
        X, y = nonlinear_task
        model = KernelRidge(alpha=0.1).fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.95

    def test_generalises(self, nonlinear_task):
        X, y = nonlinear_task
        model = KernelRidge(alpha=0.1).fit(X[:200], y[:200])
        assert r2_score(y[200:], model.predict(X[200:])) > 0.85

    def test_stronger_regularisation_smoother(self, nonlinear_task):
        X, y = nonlinear_task
        tight = KernelRidge(alpha=0.01).fit(X, y)
        loose = KernelRidge(alpha=100.0).fit(X, y)
        assert r2_score(y, tight.predict(X)) > r2_score(y, loose.predict(X))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            KernelRidge().predict(np.zeros((1, 2)))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            KernelRidge().fit(np.zeros((3, 2)), np.zeros(4))

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            KernelRidge(alpha=0.0)

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        y = np.full(50, 7.0)
        model = KernelRidge(alpha=1.0).fit(X, y)
        np.testing.assert_allclose(model.predict(X), 7.0, atol=0.2)
