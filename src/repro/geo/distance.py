"""Distance computations.

:func:`haversine` is the reference the projection is validated against;
:func:`l1_distance` compares frequency vectors.  Planar distances live on
:class:`~repro.geo.point.Point`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.point import EARTH_RADIUS_M, GeoPoint

__all__ = ["haversine", "l1_distance"]


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two WGS-84 points, in meters."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    """L1 (Manhattan) distance between two equal-length vectors.

    Used by the trajectory attack as a feature: the L1 distance between two
    frequency vectors correlates with how far the user moved between the two
    releases.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    return float(np.abs(av - bv).sum())
