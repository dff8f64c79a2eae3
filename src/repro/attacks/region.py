"""Region re-identification — Cao et al.'s attack (paper §II-D).

Given a released POI type frequency vector ``F(l, r)`` and the public POI
map, the attack:

1. finds the city-rarest type ``t_l`` present in the vector,
2. takes every POI of type ``t_l`` as a candidate anchor,
3. prunes each candidate ``p`` unless ``Freq(p, 2r)`` dominates ``F(l, r)``
   element-wise — sound because if ``dist(p, l) <= r`` then the disk
   ``(l, r)`` is covered by ``(p, 2r)``,
4. declares success iff exactly one candidate ``p*`` survives, in which
   case the target is located inside ``Disk(p*, r)`` (area ``pi r^2``).

The pruning rule has no false negatives: if the released vector is the true
``Freq(l, r)``, the anchor POI actually within ``r`` of ``l`` always
survives, so a unique survivor is always the right one.

Pruning is evaluated against the database's anchor frequency rows
(:meth:`~repro.poi.database.POIDatabase.anchor_freqs`), so one candidate
set costs a single ``(k, M) >= (M,)`` broadcast; :meth:`RegionAttack.run_batch`
additionally groups releases by anchor type and radius so a whole batch
shares the anchor rows and the domination broadcast.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from repro.attacks.base import (
    AttackOutcome,
    ReIdentifiedRegion,
    Release,
    require_release,
)
from repro.core.errors import AttackError
from repro.geo.disk import Disk
from repro.poi.database import POIDatabase
from repro.poi.frequency import dominates, validate_frequency_vector

__all__ = ["RegionAttack"]

#: Upper bound on the ``releases x candidates x types`` broadcast size per
#: grouped domination check; larger groups are processed in chunks.
_MAX_BROADCAST_ELEMS = 8_000_000


def _runs(sizes: list[int], limit: int) -> Iterator[tuple[int, int]]:
    """Consecutive ``[start, stop)`` runs of *sizes*, each summing to at most *limit*."""
    start, total = 0, 0
    for i, size in enumerate(sizes):
        if total + size > limit:
            yield start, i
            start, total = i, 0
        total += size
    yield start, len(sizes)


def _check_radius(radius: float) -> None:
    """Reject a non-positive, infinite or NaN release radius."""
    if not 0 < radius < math.inf:
        raise AttackError(f"radius must be finite and positive, got {radius}")


class RegionAttack:
    """Cao et al.'s region re-identification attack.

    Parameters
    ----------
    database:
        The adversary's prior knowledge: the public POI map with the
        ``Freq`` oracle.
    max_candidates:
        Safety cap on the anchor candidate set size.  The rarest present
        type normally has only a handful of POIs city-wide; a huge set
        (e.g. for an all-common-types vector) cannot yield a unique
        survivor anyway, so candidates beyond the cap make the attempt an
        automatic failure without the quadratic pruning cost.
    """

    def __init__(self, database: POIDatabase, max_candidates: int = 4_000) -> None:
        if max_candidates <= 0:
            raise AttackError(f"max_candidates must be positive, got {max_candidates}")
        self._db = database
        self._max_candidates = max_candidates

    @property
    def database(self) -> POIDatabase:
        return self._db

    def candidate_set(self, freq_vector: np.ndarray, radius: float) -> tuple["int | None", np.ndarray]:
        """Steps 1–4: anchor type selection and candidate pruning.

        Returns ``(anchor_type, surviving_poi_indices)``.  ``anchor_type``
        is ``None`` when the vector has no non-zero entry.
        """
        _check_radius(radius)
        freq_vector = validate_frequency_vector(
            freq_vector, n_types=self._db.n_types, context="region attack input"
        )
        anchor_type = self._db.rarest_present_type(freq_vector)
        if anchor_type is None:
            return None, np.empty(0, dtype=np.intp)
        candidates = self._db.pois_of_type(anchor_type)
        if len(candidates) > self._max_candidates:
            return anchor_type, np.empty(0, dtype=np.intp)
        # Sandwich pruning between the sound Freq bounds: candidates whose
        # upper bound fails to dominate cannot survive, candidates whose
        # lower bound already dominates certainly do, and only the band in
        # between pays for exact anchor rows.
        mask, band = self._bound_pruning(
            self._db.freq_bounds(2 * radius, candidates),
            self._db.freq_bounds(2 * radius, candidates, side="lower"),
            freq_vector[None, :],
        )
        cols = np.flatnonzero(band[0])
        if len(cols):
            rows = self._db.anchor_freqs(2 * radius, candidates[cols])
            mask[0, cols] = dominates(rows, freq_vector)
        return anchor_type, candidates[mask[0]].astype(np.intp, copy=False)

    def run(self, release: Release) -> AttackOutcome:
        """Run the full attack on one released frequency vector."""
        rel = require_release(release, caller="RegionAttack.run")
        anchor_type, survivors = self.candidate_set(rel.frequency_vector, rel.radius)
        return self._outcome(anchor_type, survivors, rel.radius)

    def run_batch(self, releases: Sequence[Release]) -> list[AttackOutcome]:
        """Attack a whole batch of releases in vectorized groups.

        Bit-identical to ``[self.run(rel) for rel in releases]`` — the test
        suite asserts it — but the batch validates all vectors at once,
        selects every anchor type with one masked ``argmin``, and evaluates
        each (anchor type, radius) group's pruning with a single
        ``(g, 1, M)`` versus ``(1, k, M)`` domination broadcast over the
        shared anchor rows.
        """
        releases = list(releases)
        for rel in releases:
            if not isinstance(rel, Release):
                raise AttackError(
                    f"run_batch expects Release objects, got {type(rel).__name__}"
                )
            _check_radius(rel.radius)
        if not releases:
            return []
        stacked = self._stack_valid([rel.frequency_vector for rel in releases])
        if stacked is None:
            # Rare slow path (ragged widths, NaNs, negatives, ...): fall back
            # to the scalar loop so the caller sees the exact scalar error.
            return [
                self._outcome(*self.candidate_set(rel.frequency_vector, rel.radius), rel.radius)
                for rel in releases
            ]

        # Released counts are disk point totals, so they fit int32 in any
        # realistic city; matching the bound and anchor rows' dtype keeps
        # the domination comparisons below upcast-free.  A fractional
        # vector keeps its dtype: truncating 0.4 to 0 would drop a present
        # type, and the outcome would differ from ``run``'s.
        integral = not np.issubdtype(stacked.dtype, np.floating) or not (stacked % 1).any()
        if integral and (stacked.size == 0 or stacked.max() < np.iinfo(np.int32).max):
            stacked = stacked.astype(np.int32, copy=False)

        # Step 1 for the whole batch: the city-rarest present type per row.
        # Ranks are a permutation (ties pre-broken), so the masked argmin
        # matches the scalar ``rarest_present_type`` exactly.
        ranks = self._db.infrequent_ranks
        present = stacked > 0
        masked = np.where(present, ranks[None, :], np.iinfo(np.int64).max)
        anchor_types = np.argmin(masked, axis=1)
        has_anchor = present.any(axis=1)

        outcomes: "list[AttackOutcome | None]" = [None] * len(releases)
        groups: dict[tuple[int, float], list[int]] = {}
        for i, rel in enumerate(releases):
            if not has_anchor[i]:
                outcomes[i] = AttackOutcome(candidates=(), regions=(), anchor_type=None)
            else:
                groups.setdefault((int(anchor_types[i]), float(rel.radius)), []).append(i)

        # Sandwich every group between the sound Freq bounds, then warm each
        # radius's anchor rows with one union fill of only the rows whose
        # outcome the bounds leave undecided.
        sized_by_radius: dict[float, list] = {}
        for (anchor_type, radius), rows in groups.items():
            candidates = self._db.pois_of_type(anchor_type)
            if len(candidates) > self._max_candidates:
                for i in rows:
                    outcomes[i] = AttackOutcome(
                        candidates=(), regions=(), anchor_type=anchor_type
                    )
                continue
            sized_by_radius.setdefault(radius, []).append(
                (anchor_type, rows, candidates)
            )

        for radius, entries in sized_by_radius.items():
            # Consecutive groups share one bound evaluation, in runs of at
            # most as many candidates as the radius's largest group: few
            # calls, and no more bound rows alive at once than that group
            # needs on its own.  Per-group rectangle broadcasts then decide
            # most pairs from the bounds alone; the undecided band pairs are
            # pooled across all of the radius's groups for one exact pass.
            doms = []
            band_rel, band_cand, band_flat = [], [], []
            sizes = [len(c) for _, _, c in entries]
            for start, stop in _runs(sizes, max(sizes)):
                run = entries[start:stop]
                cat = np.concatenate([c for _, _, c in run])
                upper = self._db.freq_bounds(2 * radius, cat)
                lower = self._db.freq_bounds(2 * radius, cat, side="lower")
                offset = 0
                for _, rows, c in run:
                    end = offset + len(c)
                    dom, band = self._bound_pruning(
                        upper[offset:end], lower[offset:end], stacked[rows]
                    )
                    offset = end
                    doms.append(dom)
                    flat = np.flatnonzero(band)
                    if len(flat):
                        rows_arr = np.asarray(rows, dtype=np.intp)
                        band_rel.append(rows_arr[flat // len(c)])
                        band_cand.append(c[flat % len(c)])
                    band_flat.append(flat)

            # Only band pairs pay for exact anchor rows; their union is
            # filled once per radius and compared pairwise in one pass.
            if band_rel:
                pair_rel = np.concatenate(band_rel)
                pair_cand = np.concatenate(band_cand)
                needed = np.unique(pair_cand)
                exact_rows = self._db.anchor_freqs(2 * radius, needed)
                rpos = np.searchsorted(needed, pair_cand)
                n_pairs = len(pair_rel)
                exact = np.empty(n_pairs, dtype=bool)
                step = max(1, _MAX_BROADCAST_ELEMS // self._db.n_types)
                for s in range(0, n_pairs, step):
                    exact[s : s + step] = dominates(
                        exact_rows[rpos[s : s + step]], stacked[pair_rel[s : s + step]]
                    )
                consumed = 0
                for dom, flat in zip(doms, band_flat):
                    dom.reshape(-1)[flat] = exact[consumed : consumed + len(flat)]
                    consumed += len(flat)

            for (anchor_type, rows, c), dom in zip(entries, doms):
                for j, i in enumerate(rows):
                    outcomes[i] = self._outcome(
                        anchor_type, c[dom[j]].astype(np.intp, copy=False), radius
                    )
        return [o for o in outcomes if o is not None]

    def _bound_pruning(
        self, upper: np.ndarray, lower: np.ndarray, group_vectors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decide domination per (release, candidate) from the Freq bounds alone.

        Domination requires ``Freq(p, 2r)[t] >= fv[t]`` for *every* type,
        so the database's sound elementwise bounds
        (:meth:`~repro.poi.database.POIDatabase.freq_bounds`) decide most
        pairs without any anchor-row fill: an upper bound that fails to
        dominate rules the candidate out, a lower bound that dominates
        rules it in.  Returns ``(dom, band)``: pairs already known to
        dominate, and pairs the exact check still has to evaluate.
        """
        g, k = len(group_vectors), len(upper)
        # Zero entries of a frequency vector are dominated by any count, so
        # only the columns some vector in the group actually uses matter.
        cols = np.flatnonzero((group_vectors > 0).any(axis=0))
        upper = upper[:, cols]
        lower = lower[:, cols]
        used = group_vectors[:, cols]
        dom = np.empty((g, k), dtype=bool)
        band = np.empty((g, k), dtype=bool)
        per_chunk = max(1, _MAX_BROADCAST_ELEMS // max(1, k * max(1, len(cols))))
        for start in range(0, g, per_chunk):
            block = used[start : start + per_chunk][:, None, :]
            alive = dominates(upper[None, :, :], block)
            sure = dominates(lower[None, :, :], block)
            dom[start : start + per_chunk] = sure
            band[start : start + per_chunk] = alive & ~sure
        return dom, band

    def _outcome(
        self, anchor_type: "int | None", survivors: np.ndarray, radius: float
    ) -> AttackOutcome:
        candidates = tuple(survivors.tolist())
        # Disks are only consumed through ``AttackOutcome.region`` (the
        # unique survivor); ambiguous attempts skip building one region
        # object per surviving candidate.
        regions = (
            tuple(
                ReIdentifiedRegion(Disk(self._db.location_of(int(p)), radius), int(p))
                for p in survivors
            )
            if len(candidates) == 1
            else ()
        )
        return AttackOutcome(
            candidates=candidates, regions=regions, anchor_type=anchor_type
        )

    def _stack_valid(self, vectors: list) -> "np.ndarray | None":
        """Stack the batch's vectors if they all pass release validation.

        Returns ``None`` when any vector is malformed, in which case the
        caller re-runs the scalar path to raise the scalar error.
        """
        m = self._db.n_types
        try:
            stacked = np.stack([np.asarray(v) for v in vectors])
        except ValueError:
            return None
        if stacked.ndim != 2 or stacked.shape[1] != m:
            return None
        if not np.issubdtype(stacked.dtype, np.number) or np.issubdtype(
            stacked.dtype, np.complexfloating
        ):
            return None
        if np.issubdtype(stacked.dtype, np.floating) and not bool(
            np.isfinite(stacked).all()
        ):
            return None
        if bool((stacked < 0).any()):
            return None
        return stacked
