"""Tests for kernel functions."""

import tracemalloc

import numpy as np
import pytest

from repro.ml import kernels
from repro.ml.kernels import gamma_scale, linear_kernel, rbf_kernel


def _one_shot_rbf(A, B, gamma):
    """The unblocked expression ``rbf_kernel`` evaluates, kept as its reference."""
    sq = (A**2).sum(axis=1)[:, None] + (B**2).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


class TestLinearKernel:
    def test_matches_dot_products(self, rng):
        A = rng.normal(size=(5, 3))
        B = rng.normal(size=(4, 3))
        np.testing.assert_allclose(linear_kernel(A, B), A @ B.T)


class TestRBFKernel:
    def test_diagonal_is_one(self, rng):
        A = rng.normal(size=(6, 4))
        K = rbf_kernel(A, A, gamma=0.5)
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_symmetric(self, rng):
        A = rng.normal(size=(6, 4))
        K = rbf_kernel(A, A, gamma=0.3)
        np.testing.assert_allclose(K, K.T)

    def test_values_in_unit_interval(self, rng):
        A = rng.normal(size=(10, 3))
        B = rng.normal(size=(7, 3))
        K = rbf_kernel(A, B, gamma=1.0)
        assert (K >= 0).all() and (K <= 1).all()

    def test_known_value(self):
        A = np.array([[0.0, 0.0]])
        B = np.array([[1.0, 0.0]])
        K = rbf_kernel(A, B, gamma=2.0)
        assert K[0, 0] == pytest.approx(np.exp(-2.0))

    def test_decreases_with_distance(self):
        A = np.array([[0.0]])
        B = np.array([[1.0], [2.0], [3.0]])
        K = rbf_kernel(A, B, gamma=1.0)[0]
        assert (np.diff(K) < 0).all()

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.zeros((1, 1)), np.zeros((1, 1)), gamma=0.0)


class TestBlockedRBF:
    """Row blocks fill the same doubles as the one-shot expression."""

    @pytest.mark.parametrize("m, n, d", [(250, 250, 133), (60, 250, 86)])
    def test_recovery_shapes_match_one_shot(self, m, n, d):
        rng = np.random.default_rng(m)
        B = rng.normal(size=(n, d))
        A = B if m == n else rng.normal(size=(m, d))
        gamma = gamma_scale(B)
        np.testing.assert_array_equal(rbf_kernel(A, B, gamma), _one_shot_rbf(A, B, gamma))

    @pytest.mark.parametrize(
        "m, n, d", [(2_000, 2_000, 170), (700, 2_000, 170), (250, 250, 133), (60, 250, 86)]
    )
    def test_ragged_blocks_match_one_shot(self, monkeypatch, m, n, d):
        # 9 rows a block leaves a ragged last block on every shape here.
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 9 * n * 8)
        rng = np.random.default_rng(m)
        B = rng.normal(size=(n, d))
        A = B if m == n else rng.normal(size=(m, d))
        gamma = gamma_scale(B)
        np.testing.assert_array_equal(rbf_kernel(A, B, gamma), _one_shot_rbf(A, B, gamma))

    def test_peak_memory_is_the_output_plus_one_block(self, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 2**20)
        block_bytes = (2**20 // (8 * 2_000)) * 2_000 * 8
        A = np.random.default_rng(0).normal(size=(2_000, 16))
        tracemalloc.start()
        try:
            K = rbf_kernel(A, A, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= K.nbytes + block_bytes + 2**20, peak

    def test_empty_operands(self):
        assert rbf_kernel(np.zeros((0, 3)), np.ones((4, 3)), 1.0).shape == (0, 4)
        assert rbf_kernel(np.ones((4, 3)), np.zeros((0, 3)), 1.0).shape == (4, 0)


class TestGammaScale:
    def test_positive(self, rng):
        assert gamma_scale(rng.normal(size=(50, 4))) > 0

    def test_constant_data_fallback(self):
        assert gamma_scale(np.ones((10, 3))) == 1.0

    def test_heuristic_value(self, rng):
        X = rng.normal(0, 2.0, size=(2_000, 5))
        assert gamma_scale(X) == pytest.approx(1.0 / (5 * X.var()), rel=1e-12)
