"""Frequency-vector helpers shared by attacks and defenses."""

from __future__ import annotations

import numpy as np

from repro.core.errors import ReleaseValidationError

__all__ = ["dominates", "top_k_types", "validate_frequency_vector"]


def validate_frequency_vector(
    freq_vector: np.ndarray,
    n_types: "int | None" = None,
    context: str = "release",
) -> np.ndarray:
    """Check a released frequency vector against the release contract.

    A well-formed release is a one-dimensional vector of finite,
    non-negative counts, *n_types* wide when the vocabulary width is
    known.  Returns the vector as an ndarray; raises
    :class:`~repro.core.errors.ReleaseValidationError` otherwise.  Float
    vectors are fine (DP releases are float before rounding) — only NaN,
    infinities, and negative entries are protocol violations.
    """
    vector = np.asarray(freq_vector)
    if vector.ndim != 1:
        raise ReleaseValidationError(
            f"{context}: frequency vector must be 1-D, got shape {vector.shape}"
        )
    if n_types is not None and vector.shape[0] != n_types:
        raise ReleaseValidationError(
            f"{context}: frequency vector has width {vector.shape[0]}, "
            f"expected {n_types} types"
        )
    if not np.issubdtype(vector.dtype, np.number) or np.issubdtype(
        vector.dtype, np.complexfloating
    ):
        raise ReleaseValidationError(
            f"{context}: frequency vector has non-numeric dtype {vector.dtype}"
        )
    if np.issubdtype(vector.dtype, np.floating) and not np.all(np.isfinite(vector)):
        raise ReleaseValidationError(
            f"{context}: frequency vector contains NaN or infinite entries"
        )
    if np.any(vector < 0):
        raise ReleaseValidationError(
            f"{context}: frequency vector contains negative counts"
        )
    return vector


def dominates(big: np.ndarray, small: np.ndarray) -> "bool | np.ndarray":
    """Element-wise ``big >= small`` over the trailing (type) axis.

    The pruning rule of the region re-identification attack: a candidate
    anchor ``p`` survives iff ``Freq(p, 2r)`` dominates the reported
    ``Freq(l, r)`` (paper §II-D step 4).  This is the *only* place the rule
    lives; both the scalar and the batched attack paths call it.

    Two ``(M,)`` vectors yield a plain ``bool``.  Stacked inputs broadcast
    over the leading axes and reduce the trailing one — e.g. a ``(k, M)``
    anchor matrix against an ``(M,)`` release gives a ``(k,)`` survivor
    mask, and ``(1, k, M)`` against ``(g, 1, M)`` gives a ``(g, k)`` mask
    for a whole release batch at once.
    """
    big = np.asarray(big)
    small = np.asarray(small)
    if big.ndim == 1 and small.ndim == 1:
        if big.shape != small.shape:
            raise ValueError(f"shape mismatch: {big.shape} vs {small.shape}")
        return bool(np.all(big >= small))
    if big.shape[-1] != small.shape[-1]:
        raise ValueError(f"shape mismatch: {big.shape} vs {small.shape}")
    return np.all(big >= small, axis=-1)


def top_k_types(freq_vector: np.ndarray, k: int) -> frozenset[int]:
    """The set of the *k* types with the highest frequencies.

    Ties are broken by type id (ascending) for determinism, matching a
    stable sort over ``(-frequency, type_id)``.  Types with zero frequency
    may appear if fewer than *k* types are present, mirroring a plain
    "take the k largest entries" Top-K service.
    """
    freq_vector = np.asarray(freq_vector)
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, len(freq_vector))
    order = np.lexsort((np.arange(len(freq_vector)), -freq_vector))
    return frozenset(int(t) for t in order[:k])
