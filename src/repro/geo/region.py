"""Feasible regions: intersections of many disks.

The fine-grained attack (paper §IV-A) positions the target inside the
intersection of the major anchor's radius-``r`` disk with one radius-``r``
disk per auxiliary anchor.  That intersection is convex and bounded by
circular arcs, so its area has an O(k²) closed form by Green's theorem over
the arcs.  The estimator here stays Monte-Carlo all the same, because the
Fig. 6 and Fig. 7 rows are functions of its draws: it samples uniformly
inside the major anchor's disk and multiplies the acceptance rate by that
disk's area.  The analytic two-disk lens area
(:func:`repro.geo.disk.lens_area`) validates it in tests, and
``tests/property/test_prop_geometry.py`` holds it bit-identical (areas,
centroids and generator states) to the plain loop that computes every
sample's coordinates and tests it against every disk.

Classifying before the trigonometry
-----------------------------------
A sample is drawn in polar form about the base centre ``c0``: a bearing
``theta`` and a distance ``rho``.  Most samples lie outside some
constraint disk, and the polar draws alone prove it for many.  The
*classifying* disk is the constraint with the largest ``d - r``, where
``d`` is the distance from ``c0`` to its centre and ``r`` its radius.  With
a margin ``m``, a sample is certainly outside it when

* ``rho < d - r - m`` (radial), since its distance to the centre is at
  least ``d - rho``; or
* ``d > r + m`` and its bearing is more than ``asin((r + m) / d) + slack``
  from the bearing ``phi`` of the centre (angular).  The sample then lies
  on a ray from ``c0`` that passes the centre at distance ``d sin|delta|
  >= r + m``, or that points away from it (``|delta| > pi/2``), when its
  distance is at least ``d``.

Only the other samples get their ``cos``/``sin`` and the per-point test
``dx*dx + dy*dy <= r*r`` of :meth:`Disk.contains_many`, against the
constraints in descending ``d - r`` order.  Each sample's coordinates are
the same expression of the same draws, so every test gives the answer it
gives for the full array, and a dropped sample is one that test rejects.

*Error bound.*  Let ``S`` be the largest of 1 m and the magnitudes of the
base's and the classifying disk's centre coordinates and radii, and
``u = 2**-53``.  With ``cos``/``sin`` within 4 ulp, a computed sample lies
within ``11 u S`` of its exact position in each coordinate, and the
per-point test rejects every sample whose exact distance to the centre
exceeds ``r + 22 u S``.  The classifier's own rounding (``hypot``,
``atan2``, ``asin`` and the window ends) can lower the distance it
certifies by at most ``20 u S``.  So any ``m > 42 u S`` (about
``4.7e-15 S``) is sound; ``m = 1e-9 S`` exceeds it by more than 10⁵, and
by more than 10³ even for trigonometry off by 1,000 ulp.  ``slack =
1e-9`` rad exceeds the few 1e-16 rad that ``atan2``, ``asin`` and the
window arithmetic can each be off by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import GeometryError
from repro.core.rng import RngLike, as_generator
from repro.geo.disk import Disk, _polar_draws
from repro.geo.point import Point

__all__ = ["DiskIntersection"]

#: Certainty margin of the classifier, relative to the coordinate scale ``S``.
_MARGIN = 1e-9
#: Angular slack of the classifier's bearing window, in radians.
_SLACK = 1e-9
_TWO_PI = 2 * math.pi


def _require_samples(n_samples: int) -> None:
    if n_samples <= 0:
        raise GeometryError(f"n_samples must be positive, got {n_samples}")


def _candidates(base: Disk, disk: Disk, theta: np.ndarray, rad: np.ndarray) -> "np.ndarray | None":
    """Indices of the samples that the polar draws cannot place outside *disk*.

    ``None`` when the draws rule out no sample, because *disk* reaches
    within ``m`` of the base centre.  The module docstring gives the two
    tests and the margin that makes them sound.
    """
    c0, c = base.center, disk.center
    d = c0.distance_to(c)
    scale = max(1.0, abs(c0.x), abs(c0.y), base.radius, abs(c.x), abs(c.y), disk.radius)
    reach = disk.radius + _MARGIN * scale
    if d - reach <= 0.0:
        return None
    near = rad >= d - reach
    half = math.asin(reach / d) + _SLACK
    phi = math.atan2(c.y - c0.y, c.x - c0.x)
    if phi < 0.0:
        phi += _TWO_PI
    lo, hi = phi - half, phi + half
    if lo < 0.0:
        near &= (theta >= lo + _TWO_PI) | (theta <= hi)
    elif hi > _TWO_PI:
        near &= (theta >= lo) | (theta <= hi - _TWO_PI)
    else:
        near &= (theta >= lo) & (theta <= hi)
    return np.flatnonzero(near)


@dataclass(frozen=True)
class DiskIntersection:
    """The intersection of a *base* disk with zero or more *constraint* disks.

    The base disk is the region the baseline attack reports (the major
    anchor's disk); each constraint disk shrinks it further.
    """

    base: Disk
    constraints: tuple[Disk, ...] = field(default_factory=tuple)

    def contains(self, p: Point) -> bool:
        """Whether *p* lies in every disk of the intersection."""
        if not self.base.contains(p):
            return False
        return all(d.contains(p) for d in self.constraints)

    def area(self, n_samples: int = 20_000, rng: RngLike = None) -> float:
        """Monte-Carlo estimate of the intersection area in square meters.

        Samples uniformly inside the base disk and multiplies the acceptance
        rate by the base area.  The standard error is
        ``base.area * sqrt(p(1-p)/n)``; with the default 20k samples it is
        below 0.4% of the base area.
        """
        _require_samples(n_samples)
        if not self.constraints:
            return self.base.area
        xs, _ = self._survivors(n_samples, rng)
        return self.base.area * (xs.size / n_samples)

    def centroid(self, n_samples: int = 20_000, rng: RngLike = None) -> Point | None:
        """Monte-Carlo centroid of the region, or ``None`` if it is empty.

        The centroid is the attacker's single best point estimate of the
        target's location.
        """
        _require_samples(n_samples)
        xs, ys = self._survivors(n_samples, rng)
        if not xs.size:
            return None
        sel = np.column_stack([xs, ys])
        return Point(float(sel[:, 0].mean()), float(sel[:, 1].mean()))

    def with_constraint(self, disk: Disk) -> "DiskIntersection":
        """Return a new region with one more constraint disk."""
        return DiskIntersection(self.base, self.constraints + (disk,))

    def _survivors(self, n_samples: int, rng: RngLike) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates, in sample order, of the samples inside every disk."""
        theta, rad = _polar_draws(self.base.radius, n_samples, as_generator(rng))
        c0 = self.base.center
        disks = sorted(
            self.constraints, key=lambda d: c0.distance_to(d.center) - d.radius, reverse=True
        )
        if disks:
            take = _candidates(self.base, disks[0], theta, rad)
            if take is not None:
                theta, rad = theta[take], rad[take]
        xs = c0.x + rad * np.cos(theta)
        ys = c0.y + rad * np.sin(theta)
        for disk in disks:
            if not xs.size:
                break
            inside = disk.contains_many(xs, ys)
            xs, ys = xs[inside], ys[inside]
        return xs, ys
