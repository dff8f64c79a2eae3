"""Tests for frequency-vector helpers."""

import numpy as np
import pytest

from repro.poi.frequency import dominates, top_k_types


class TestDominates:
    def test_true_when_elementwise_ge(self):
        assert dominates(np.array([3, 2, 1]), np.array([3, 1, 0]))

    def test_false_on_any_violation(self):
        assert not dominates(np.array([3, 2, 1]), np.array([3, 3, 0]))

    def test_equal_vectors_dominate(self):
        v = np.array([1, 2, 3])
        assert dominates(v, v)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dominates(np.array([1, 2]), np.array([1, 2, 3]))


class TestTopKTypes:
    def test_picks_largest(self):
        freq = np.array([5, 1, 9, 3])
        assert top_k_types(freq, 2) == frozenset({2, 0})

    def test_ties_broken_by_type_id(self):
        freq = np.array([4, 4, 4, 1])
        assert top_k_types(freq, 2) == frozenset({0, 1})

    def test_k_larger_than_width(self):
        freq = np.array([1, 2])
        assert top_k_types(freq, 10) == frozenset({0, 1})

    def test_k_nonpositive_raises(self):
        with pytest.raises(ValueError):
            top_k_types(np.array([1]), 0)

    def test_all_zero_vector_deterministic(self):
        freq = np.zeros(5, dtype=int)
        assert top_k_types(freq, 3) == frozenset({0, 1, 2})
