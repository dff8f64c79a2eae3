"""Disks (filled circles) and their intersection geometry.

Two facts from the paper live here:

* the *coverage property* behind Cao et al.'s pruning rule — if a POI ``p``
  is within distance ``r`` of a location ``l``, then the disk ``(l, r)`` is
  entirely covered by the disk ``(p, 2r)`` (:func:`covers`);
* the analytic area of a two-disk intersection (a "lens"), used to validate
  the Monte-Carlo feasible-area estimator of the fine-grained attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.errors import GeometryError
from repro.geo.point import Point

__all__ = ["Disk", "lens_area", "covers"]


@dataclass(frozen=True, slots=True)
class Disk:
    """A filled circle with center in meters and radius in meters."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not 0 <= self.radius < math.inf:
            raise GeometryError(
                f"disk radius must be finite and non-negative, got {self.radius}"
            )

    @property
    def area(self) -> float:
        """Area in square meters."""
        return math.pi * self.radius**2

    def contains(self, p: Point) -> bool:
        """Whether *p* lies in the disk (boundary inclusive)."""
        return self.center.distance_to(p) <= self.radius

    def contains_many(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains`."""
        dx = xs - self.center.x
        dy = ys - self.center.y
        return dx * dx + dy * dy <= self.radius * self.radius

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *n* uniform points inside the disk as an ``(n, 2)`` array."""
        theta, rad = _polar_draws(self.radius, n, rng)
        return np.column_stack(
            [self.center.x + rad * np.cos(theta), self.center.y + rad * np.sin(theta)]
        )


def _polar_draws(
    radius: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Bearings and distances of *n* uniform points in a disk of *radius*.

    The bearings ``theta`` in ``[0, 2*pi)`` are drawn first, then the
    distances ``radius * sqrt(U)``.  Every sampler of disk points draws
    through here, so they consume a generator identically.
    """
    theta = rng.uniform(0.0, 2 * math.pi, size=n)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    return theta, rad


def covers(outer: Disk, inner: Disk) -> bool:
    """Whether *outer* entirely covers *inner*.

    This holds iff ``dist(centers) + inner.radius <= outer.radius``.  It is
    the geometric basis of the region re-identification attack: for a POI
    ``p`` within ``r`` of location ``l``, ``Disk(p, 2r)`` covers
    ``Disk(l, r)``, hence ``Freq(p, 2r) >= Freq(l, r)`` element-wise.
    """
    return outer.center.distance_to(inner.center) + inner.radius <= outer.radius + 1e-9


def lens_area(a: Disk, b: Disk) -> float:
    """Exact area of the intersection of two disks.

    Standard circle-circle intersection ("lens") formula, with the three
    degenerate cases handled explicitly: disjoint disks (area 0), one disk
    contained in the other (area of the smaller), and proper intersection.
    """
    d = a.center.distance_to(b.center)
    r1, r2 = a.radius, b.radius
    if d >= r1 + r2:
        return 0.0
    # The epsilon guards the concentric / denormal-distance case, where the
    # lens formula would divide by (2 d r).
    if d <= abs(r1 - r2) + 1e-12:
        small = min(r1, r2)
        return math.pi * small**2
    # Proper lens: sum of the two circular-segment areas.
    alpha = math.acos(max(-1.0, min(1.0, (d * d + r1 * r1 - r2 * r2) / (2 * d * r1))))
    beta = math.acos(max(-1.0, min(1.0, (d * d + r2 * r2 - r1 * r1) / (2 * d * r2))))
    seg1 = r1 * r1 * (alpha - math.sin(2 * alpha) / 2)
    seg2 = r2 * r2 * (beta - math.sin(2 * beta) / 2)
    return seg1 + seg2
