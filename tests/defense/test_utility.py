"""Tests for the Top-K Jaccard utility metric."""

import numpy as np
import pytest

from repro.defense.utility import jaccard_index, top_k_jaccard


class TestJaccardIndex:
    def test_identical_sets(self):
        assert jaccard_index({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard_index({1, 2}, {3, 4}) == 0.0

    def test_partial_overlap(self):
        assert jaccard_index({1, 2, 3}, {2, 3, 4}) == pytest.approx(2 / 4)

    def test_empty_sets(self):
        assert jaccard_index(set(), set()) == 1.0

    def test_one_empty(self):
        assert jaccard_index({1}, set()) == 0.0

    def test_symmetric(self):
        a, b = {1, 5, 9}, {5, 7}
        assert jaccard_index(a, b) == jaccard_index(b, a)


class TestTopKJaccard:
    def test_unchanged_vector_scores_one(self):
        v = np.array([5, 3, 8, 1, 0])
        assert top_k_jaccard(v, v, k=3) == 1.0

    def test_perturbing_rare_types_keeps_topk(self):
        original = np.array([100, 90, 80, 2, 1])
        released = np.array([100, 90, 80, 0, 0])
        assert top_k_jaccard(original, released, k=3) == 1.0

    def test_erasing_top_type_hurts(self):
        original = np.array([100, 90, 80, 2, 1])
        released = original.copy()
        released[0] = 0
        assert top_k_jaccard(original, released, k=3) < 1.0

    def test_k_default_is_ten(self):
        v = np.arange(20)
        assert top_k_jaccard(v, v) == 1.0
