"""Attack interfaces and shared result types.

The unified attack API is built around two pieces:

* :class:`Release` — one observed aggregate release: the frequency vector,
  the query radius it was computed at, and optional ground-truth metadata
  (true location, timestamp) carried for evaluation and tracking.
* :class:`Attack` — the protocol every re-identification attack conforms
  to: ``run(release)`` for one release and ``run_batch(releases)`` for
  many, where the batch path may share work (anchor rows, grouped
  domination checks) but must produce outcomes bit-identical to the scalar
  loop.

This is the v1 API: the legacy positional ``run(freq_vector, radius)``
spelling and its deprecation shims were removed — ``run`` takes exactly
one :class:`Release`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.geo.disk import Disk
from repro.geo.point import Point

__all__ = [
    "Release",
    "Attack",
    "ReIdentifiedRegion",
    "AttackOutcome",
]


@dataclass(frozen=True)
class Release:
    """One released POI aggregate as the adversary observes it.

    ``frequency_vector`` is the released ``(M,)`` type histogram and
    ``radius`` the query range it was computed at.  ``true_location`` and
    ``timestamp`` are optional ground-truth/metadata fields: evaluation
    harnesses use the former to score correctness, the continuous tracker
    needs the latter to order releases — the attacks themselves never read
    the truth.
    """

    frequency_vector: np.ndarray
    radius: float
    true_location: "Point | None" = None
    timestamp: "float | None" = None


def require_release(release: object, *, caller: str) -> Release:
    """Assert the v1 calling convention: exactly one :class:`Release`.

    Raises :class:`TypeError` with a migration hint for anything else —
    in particular the pre-v1 positional ``(freq_vector, radius)`` spelling,
    whose shim was removed.
    """
    if isinstance(release, Release):
        return release
    raise TypeError(
        f"{caller} takes a repro.attacks.Release (the legacy positional "
        f"(freq_vector, radius) shim was removed in v1); "
        f"got {type(release).__name__}"
    )


@dataclass(frozen=True)
class ReIdentifiedRegion:
    """One re-identified area ``phi(l)``: a disk the target is claimed to be in."""

    disk: Disk
    anchor_poi: int

    @property
    def center(self) -> Point:
        return self.disk.center

    @property
    def area(self) -> float:
        """Area of the region in square meters."""
        return self.disk.area


@dataclass(frozen=True)
class AttackOutcome:
    """The result of one re-identification attempt.

    Following the paper's metric (§II-B), the attack *succeeds* iff exactly
    one candidate region remains (``|Phi| = 1``).  ``candidates`` holds the
    surviving anchor POI indices; ``regions`` the corresponding disks.
    Attacks may leave ``regions`` empty on ambiguous attempts — every
    region is recoverable from ``(candidates, radius)`` — and only promise
    it for the successful singleton exposed via :attr:`region`.
    """

    candidates: tuple[int, ...]
    regions: tuple[ReIdentifiedRegion, ...] = field(default_factory=tuple)
    anchor_type: "int | None" = None

    @property
    def success(self) -> bool:
        """Whether the candidate set is a singleton (``|Phi| = 1``)."""
        return len(self.candidates) == 1

    @property
    def region(self) -> "ReIdentifiedRegion | None":
        """The unique region ``phi*(l)`` when the attack succeeded."""
        return self.regions[0] if self.success and self.regions else None

    def locates(self, true_location: Point) -> bool:
        """Whether the attack succeeded *and* its region contains the target.

        The paper's success metric is purely ``|Phi| = 1``; for defended
        releases we additionally report whether the unique region actually
        contains the true location (a formally "successful" attack that
        points at the wrong place is a defense win).  For undefended
        releases the two coincide because the pruning rule has no false
        negatives.
        """
        region = self.region
        return region is not None and region.disk.contains(true_location)


@runtime_checkable
class Attack(Protocol):
    """The protocol every re-identification attack conforms to.

    ``run_batch`` must produce outcomes bit-identical to mapping ``run``
    over the releases; it exists so implementations can share work across
    the batch (anchor frequency matrices, grouped domination broadcasts).
    """

    def run(self, release: Release) -> AttackOutcome:
        """Attack one release."""
        ...  # pragma: no cover - protocol signature

    def run_batch(self, releases: Sequence[Release]) -> Sequence[AttackOutcome]:
        """Attack many releases, sharing batched work where possible."""
        ...  # pragma: no cover - protocol signature
