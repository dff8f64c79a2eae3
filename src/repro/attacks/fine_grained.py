"""The fine-grained attack — paper §IV-A, Algorithm 1.

Cao et al.'s attack stops at "the target is somewhere in ``Disk(p*, r)``"
(area ``pi r^2``).  The fine-grained attack keeps going: every POI that can
be shown to lie within ``r`` of the target is another *anchor* whose
radius-``r`` disk must contain the target, and intersecting those disks
shrinks the search area dramatically (Fig. 6: under a quarter of ``pi r^2``
in ~80% of cases).

Anchor harvesting (Algorithm 1) works on the superset ``P(p*, 2r)`` of the
target's true POI set ``P(l, r)``:

* For a type ``t`` with ``F(p*, 2r)[t] - F(l, r)[t] = 0``, *every* POI of
  type ``t`` in the superset is in ``P(l, r)`` — a sound, free batch of
  anchors; processing types in ascending difference order takes this fast
  path first.
* Otherwise each POI ``p`` of type ``t`` is kept as an anchor if
  ``Freq(p, 2r)`` dominates ``F(l, r)`` — the same necessary condition the
  baseline uses.  It can admit a false anchor (the condition is not
  sufficient), which the paper accepts; the evaluation tracks how often
  the final region still contains the target.

Harvesting stops after ``max_aux`` anchors; Fig. 7 sweeps that cap.  The
walk computes ``Freq(p, 2r)`` only for the candidates it examines before
the cap, so a superset of thousands of POIs costs a few dozen rows.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.attacks.base import AttackOutcome, Release, require_release
from repro.attacks.region import RegionAttack
from repro.core.errors import AttackError
from repro.geo.disk import Disk
from repro.geo.point import Point
from repro.geo.region import DiskIntersection
from repro.poi.database import POIDatabase
from repro.poi.frequency import dominates
from repro.core.rng import RngLike

__all__ = ["FineGrainedAttack", "FineGrainedOutcome"]

#: A harvest walk: it yields the POIs whose rows it reads next and takes
#: their ``Freq(p, 2r)`` row block back through ``send``.
Walk = Generator[np.ndarray, np.ndarray, None]


@dataclass(frozen=True)
class FineGrainedOutcome:
    """Result of a fine-grained attempt.

    ``anchors`` lists auxiliary anchor POI indices in harvest order, so a
    prefix of length ``n`` reproduces the attack capped at ``MAX_aux = n``.
    """

    base: AttackOutcome
    radius: float
    major_anchor: "int | None"
    anchors: tuple[int, ...]
    _db: POIDatabase

    @property
    def success(self) -> bool:
        """Whether the baseline stage uniquely re-identified the region."""
        return self.base.success

    def region(self, n_aux: "int | None" = None) -> "DiskIntersection | None":
        """The feasible region using the first *n_aux* anchors (all by default)."""
        if n_aux is not None and n_aux < 0:
            raise AttackError(f"n_aux must be non-negative, got {n_aux}")
        if not self.success or self.major_anchor is None:
            return None
        use = self.anchors if n_aux is None else self.anchors[:n_aux]
        (bx, by), *centres = self._db.positions[[self.major_anchor, *use]].tolist()
        constraints = tuple(Disk(Point(x, y), self.radius) for x, y in centres)
        return DiskIntersection(Disk(Point(bx, by), self.radius), constraints)

    def search_area_m2(self, n_aux: "int | None" = None, n_samples: int = 20_000, rng: RngLike = None) -> float:
        """Monte-Carlo search area in square meters; NaN when unsuccessful."""
        region = self.region(n_aux)
        if region is None:
            return float("nan")
        return region.area(n_samples=n_samples, rng=rng)

    def point_estimate(self, n_samples: int = 20_000, rng: RngLike = None) -> "Point | None":
        """The attacker's best single guess: the feasible region's centroid."""
        region = self.region()
        if region is None:
            return None
        return region.centroid(n_samples=n_samples, rng=rng)

    def contains(self, true_location: Point, n_aux: "int | None" = None) -> bool:
        """Whether the feasible region still contains the target."""
        region = self.region(n_aux)
        return region is not None and region.contains(true_location)


class FineGrainedAttack:
    """Algorithm 1 on top of the baseline region attack."""

    def __init__(
        self,
        database: POIDatabase,
        max_aux: int = 20,
        consistent_anchors: bool = False,
        sound_only: bool = False,
    ) -> None:
        """
        Parameters
        ----------
        database:
            The adversary's public POI map.
        max_aux:
            Anchor cap (``MAX_aux`` in Algorithm 1; the paper uses 20).
        consistent_anchors:
            Extension beyond the paper: additionally require every new
            anchor to lie within ``2r`` of all previously accepted anchors.
            True anchors are all within ``r`` of the target and therefore
            within ``2r`` of each other, so the filter never rejects a true
            anchor on account of other true anchors; it discards many of
            the false anchors the domination check admits, trading a
            slightly larger search area for better containment of the true
            location (see the ablation bench).
        sound_only:
            Extension beyond the paper: harvest only the zero-difference
            fast-path anchors, which are *provably* within ``r`` of the
            target.  The resulting region always contains the target (no
            false anchors at all) at the cost of fewer anchors and hence a
            larger search area.
        """
        if max_aux < 0:
            raise AttackError(f"max_aux must be non-negative, got {max_aux}")
        self._db = database
        self._region_attack = RegionAttack(database)
        self.max_aux = max_aux
        self.consistent_anchors = consistent_anchors
        self.sound_only = sound_only

    def harvest_anchors(
        self, freq_vector: np.ndarray, radius: float, major_anchor: int
    ) -> list[int]:
        """Collect auxiliary anchors around *major_anchor* (Algorithm 1 body)."""
        db = self._db
        superset = db.query(db.location_of(major_anchor), 2 * radius)
        anchors: list[int] = []
        walk = self._harvest(np.asarray(freq_vector), radius, major_anchor, superset, anchors)
        run = _resume(walk, None)
        while run is not None:
            run = _resume(walk, db.anchor_freqs(2 * radius, run))
        return anchors

    def _harvest(
        self,
        freq_vector: np.ndarray,
        radius: float,
        major_anchor: int,
        superset: np.ndarray,
        anchors: list[int],
    ) -> Walk:
        """Algorithm 1 over a precomputed superset ``P(p*, 2r)``, appending to *anchors*.

        The walk visits the superset type by type in ascending difference
        order, each type's members in superset order.  It reads
        ``Freq(p, 2r)`` rows a run of candidates at a time: it yields the
        run's POI indices and takes the ``(len(run), M)`` block of their
        rows back through ``send``, so a caller can fill the rows many
        walks wait on in one engine call and hand each walk its own.  A
        run holds at most ``max_aux - len(anchors)`` candidates and each
        adds at most one anchor, so the cap cannot stop the walk inside a
        run: every row a run asks for is read, and no row past the cap is.
        """
        if self.max_aux == 0:
            return
        db = self._db
        anchor_loc = db.location_of(major_anchor)
        major_row = yield np.array([major_anchor], dtype=np.intp)
        f_diff = major_row[0] - freq_vector

        types = db.type_ids[superset]
        # Ascending difference puts the sound zero-difference fast path
        # first; the sort is stable, so a type's members keep superset order.
        order = np.lexsort((types, f_diff[types]))
        order = order[superset[order] != major_anchor]
        members = superset[order]
        diffs = f_diff[types[order]]
        # A major that does not dominate the release leaves negative
        # differences, which sort before the fast path and are checked.
        lo = int(np.searchsorted(diffs, 0, side="left"))
        hi = int(np.searchsorted(diffs, 0, side="right"))

        def mutually_consistent(p: int) -> bool:
            if not self.consistent_anchors:
                return True
            loc = db.location_of(p)
            limit = 2 * radius + 1e-9
            return all(
                loc.distance_to(db.location_of(a)) <= limit for a in anchors
            ) and loc.distance_to(anchor_loc) <= limit

        for start, stop, free in ((0, lo, False), (lo, hi, True), (hi, len(members), False)):
            if self.sound_only and not free:
                continue
            while start < stop and len(anchors) < self.max_aux:
                run = members[start : min(stop, start + self.max_aux - len(anchors))]
                keep = np.ones(len(run), dtype=bool)
                if not free:
                    rows = yield run
                    keep[:] = dominates(rows, freq_vector)
                for p, ok in zip(run.tolist(), keep):
                    if ok and mutually_consistent(p):
                        anchors.append(p)
                start += len(run)

    def run(self, release: Release) -> FineGrainedOutcome:
        """Baseline re-identification, then anchor harvesting if unique."""
        rel = require_release(release, caller="FineGrainedAttack.run")
        return self.run_batch([rel])[0]

    def run_batch(self, releases: Sequence[Release]) -> list[FineGrainedOutcome]:
        """Fine-grained attack on a batch of releases.

        The baseline stage runs through :meth:`RegionAttack.run_batch`, and
        the successful releases' supersets ``P(p*, 2r)`` come from one
        batched grid query per radius.  Their harvests then advance in
        rounds: each round fills the union of the anchor rows the waiting
        walks asked for, with one
        :meth:`~repro.poi.database.POIDatabase.anchor_freqs` call per
        radius, and resumes every walk with its own rows of that block
        until it asks again or finishes.
        Only the rows Algorithm 1 reads before its ``MAX_aux`` cap are
        ever computed.
        """
        releases = list(releases)
        bases = self._region_attack.run_batch(releases)
        db = self._db
        anchors: list[list[int]] = [[] for _ in releases]
        by_radius: dict[float, list[int]] = {}
        for i, base in enumerate(bases):
            if base.success:
                by_radius.setdefault(float(releases[i].radius), []).append(i)
        walks: list[tuple[float, Walk, "np.ndarray | None"]] = []
        for radius, rows in by_radius.items():
            majors = [bases[i].candidates[0] for i in rows]
            xy = db.positions[np.asarray(majors, dtype=np.intp)]
            idx, offsets = db.query_batch(xy, 2 * radius)
            for j, i in enumerate(rows):
                superset = idx[offsets[j] : offsets[j + 1]]
                freq_vector = np.asarray(releases[i].frequency_vector)
                walk = self._harvest(freq_vector, radius, majors[j], superset, anchors[i])
                walks.append((radius, walk, None))
        waiting = _advance(walks)
        while waiting:
            wanted: dict[float, list[np.ndarray]] = {}
            for radius, _, run in waiting:
                wanted.setdefault(radius, []).append(run)
            blocks: dict[float, tuple[np.ndarray, np.ndarray]] = {}
            for radius, runs in wanted.items():
                pois = np.unique(np.concatenate(runs))
                blocks[radius] = (pois, db.anchor_freqs(2 * radius, pois))
            resumed: list[tuple[float, Walk, "np.ndarray | None"]] = []
            for radius, walk, run in waiting:
                pois, block = blocks[radius]
                resumed.append((radius, walk, block[np.searchsorted(pois, run)]))
            waiting = _advance(resumed)
        return [
            FineGrainedOutcome(
                base=base,
                radius=rel.radius,
                major_anchor=base.candidates[0] if base.success else None,
                anchors=tuple(found),
                _db=db,
            )
            for rel, base, found in zip(releases, bases, anchors)
        ]


def _resume(walk: Walk, rows: "np.ndarray | None") -> "np.ndarray | None":
    """Send *walk* the rows it asked for (None to start it); its next request,
    or None once it has finished."""
    try:
        return next(walk) if rows is None else walk.send(rows)
    except StopIteration:
        return None


def _advance(
    walks: Iterable[tuple[float, Walk, "np.ndarray | None"]],
) -> list[tuple[float, Walk, np.ndarray]]:
    """Resume each harvest walk with its rows to its next request; drop finished walks."""
    waiting: list[tuple[float, Walk, np.ndarray]] = []
    for radius, walk, rows in walks:
        run = _resume(walk, rows)
        if run is not None:
            waiting.append((radius, walk, run))
    return waiting
