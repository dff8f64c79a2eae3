"""Tests for the classification and regression metrics."""

import numpy as np
import pytest

from repro.ml.metrics import (
    accuracy_score,
    mean_absolute_error,
    r2_score,
    root_mean_squared_error,
)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_perfect_accuracy(self):
        y = np.array([1, 1, 0])
        assert accuracy_score(y, y) == 1.0

    def test_mae(self):
        assert mean_absolute_error(np.array([1.0, 2.0]), np.array([2.0, 0.0])) == 1.5

    def test_rmse(self):
        assert root_mean_squared_error(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_r2_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_r2_mean_predictor_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)

    def test_r2_constant_target(self):
        y = np.full(4, 5.0)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy_score(np.array([1]), np.array([1, 2]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_absolute_error(np.array([]), np.array([]))

