"""Shared constants and helpers for the experiment runners."""

from __future__ import annotations

import numpy as np

from repro.datasets.targets import sample_targets
from repro.experiments.scale import ExperimentScale
from repro.geo.point import Point
from repro.poi.cities import City

__all__ = ["RADII_M", "KM", "targets_for", "freq_matrix"]

#: The paper's four query ranges: 0.5, 1, 2, 4 km.
RADII_M = (500.0, 1_000.0, 2_000.0, 4_000.0)

KM = 1_000.0


def targets_for(
    dataset: str, radius: float, scale: ExperimentScale
) -> tuple[City, list[Point]]:
    """Sample a scale-sized target set from one of the paper's datasets."""
    return sample_targets(dataset, scale.n_targets, radius, scale.seed)


def freq_matrix(city: City, targets: list[Point], radius: float) -> np.ndarray:
    """Stack ``Freq(l, r)`` for every target into an ``(n, M)`` matrix.

    Answered by the vectorized batch engine; bit-identical to stacking
    ``city.database.freq`` per target.
    """
    return city.database.freq_batch(targets, radius)
