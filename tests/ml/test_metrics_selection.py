"""Tests for the classification metric."""

import numpy as np
import pytest

from repro.ml.metrics import accuracy_score


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_perfect_accuracy(self):
        y = np.array([1, 1, 0])
        assert accuracy_score(y, y) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy_score(np.array([1]), np.array([1, 2]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score(np.array([]), np.array([]))

