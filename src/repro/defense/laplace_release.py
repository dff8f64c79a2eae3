"""Laplace-histogram release — the textbook DP baseline (extension).

The standard way to publish a count histogram under pure epsilon-DP is to
add Laplace noise with scale ``sensitivity / epsilon`` to every bin.  The
paper does not evaluate this baseline, but it is the obvious comparison
point for its Gaussian-over-cloak mechanism, so this module provides it:
the released vector is ``round(F(l, r) + Lap(sensitivity / epsilon))``,
clamped to non-negative integers.

Neighbourhood note: under the paper's neighbouring-vector definition
(one frequency dimension modified, §V-B) the per-release sensitivity is
the maximum plausible change of a single bin; we default to the classic
histogram setting ``sensitivity = 1`` (one POI more or less) and let the
caller raise it for coarser neighbourhoods.  The ablation bench compares
this baseline against the paper's mechanism at matched epsilon.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import DefenseError
from repro.defense.base import Defense
from repro.dp.mechanisms import laplace_mechanism
from repro.geo.point import Point
from repro.poi.database import POIDatabase

__all__ = ["LaplaceHistogramDefense"]


class LaplaceHistogramDefense(Defense):
    """Per-bin Laplace noise on the frequency vector (pure epsilon-DP).

    Exposes ``epsilon``/``delta`` as the per-release cost (pure DP, so
    ``delta`` is 0), which makes it chargeable by the serve layer's
    per-user ledger.
    """

    #: Pure epsilon-DP: one release costs (epsilon, 0).
    delta: float = 0.0

    def __init__(self, epsilon: float, sensitivity: float = 1.0) -> None:
        if epsilon <= 0:
            raise DefenseError(f"epsilon must be positive, got {epsilon}")
        if sensitivity <= 0:
            raise DefenseError(f"sensitivity must be positive, got {sensitivity}")
        self.epsilon = epsilon
        self.sensitivity = sensitivity

    @property
    def name(self) -> str:
        return f"LaplaceHistogram(eps={self.epsilon})"

    def apply(self, freq_vector: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Noise an already-computed ``Freq`` vector.

        The serve dispatcher amortizes ``Freq`` across a micro-batch via
        :meth:`~repro.poi.database.POIDatabase.freq_batch` and then calls
        this per request, so the mechanism invocation stays inside the
        defense layer (rule PL002) while the geometry is batched.
        """
        noisy = laplace_mechanism(
            np.asarray(freq_vector, dtype=float), self.sensitivity, self.epsilon, rng
        )
        return np.rint(np.clip(noisy, 0.0, None)).astype(np.int64)

    def release(
        self,
        database: POIDatabase,
        location: Point,
        radius: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return self.apply(database.freq(location, radius), rng)
