"""Kernel functions for the SVM family."""

from __future__ import annotations

import numpy as np

__all__ = ["rbf_kernel", "linear_kernel", "gamma_scale"]

#: Bytes of the ``|a|^2 + |b|^2`` row block :func:`rbf_kernel` holds beside
#: its output, so a paper-scale Gram costs one matrix instead of three.
_BLOCK_BYTES = 64 * 2**20


def linear_kernel(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``K[i, j] = <A_i, B_j>``."""
    return np.asarray(A, dtype=float) @ np.asarray(B, dtype=float).T


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """``K[i, j] = exp(-gamma * ||A_i - B_j||^2)``.

    The output holds ``A @ B.T`` from one product, as the one-shot
    ``exp(-gamma * max(|a|^2 + |b|^2 - 2 A @ B.T, 0))`` computes it, and
    the element operations then run in place, a block of rows at a time,
    in the same order.  BLAS may round a row block's product differently
    from the whole product's, so the product is never split.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    a2 = (A**2).sum(axis=1)
    b2 = (B**2).sum(axis=1)
    K = A @ B.T
    rows = max(1, _BLOCK_BYTES // (8 * max(1, len(B))))
    norms = np.empty((min(rows, len(A)), len(B)))
    for s in range(0, len(A), rows):
        k = K[s : s + rows]
        t = norms[: len(k)]
        k *= 2.0
        np.add(a2[s : s + rows, None], b2[None, :], out=t)
        np.subtract(t, k, out=k)
        np.maximum(k, 0.0, out=k)
        k *= -gamma
        np.exp(k, out=k)
    return K


def gamma_scale(X: np.ndarray) -> float:
    """scikit-learn's ``gamma='scale'`` heuristic: ``1 / (d * Var(X))``."""
    X = np.asarray(X, dtype=float)
    var = float(X.var())
    if var <= 0:
        return 1.0
    return 1.0 / (X.shape[1] * var)
