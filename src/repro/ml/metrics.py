"""Evaluation metrics for the learned models."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy_score"]


def _check(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if len(y_true) == 0:
        raise ValueError("cannot score empty arrays")
    return y_true, y_pred


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    y_true, y_pred = _check(y_true, y_pred)
    return float(np.mean(y_true == y_pred))
