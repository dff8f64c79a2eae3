"""Utility metrics for protected releases (paper §VI-A).

The paper's target application is a Top-K service: how similar is the set
of the K most frequent types in the protected release to the set in the
original aggregate, measured by the Jaccard index.
"""

from __future__ import annotations

import numpy as np

from repro.poi.frequency import top_k_types

__all__ = ["jaccard_index", "top_k_jaccard"]


def jaccard_index(a: "frozenset[int] | set[int]", b: "frozenset[int] | set[int]") -> float:
    """``|a ∩ b| / |a ∪ b|``; the Jaccard index of two empty sets is 1."""
    a, b = set(a), set(b)
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def top_k_jaccard(original: np.ndarray, released: np.ndarray, k: int = 10) -> float:
    """Jaccard similarity of the Top-K type sets of two frequency vectors."""
    return jaccard_index(top_k_types(original, k), top_k_types(released, k))
