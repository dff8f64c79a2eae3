"""A uniform-grid spatial index for fixed point sets.

The geo-information provider's two interfaces — ``Query(l, r)`` (POIs within
range) and ``Freq(l, r)`` (their type histogram) — are the innermost
operations of every attack and defense in the paper, so range queries must
be cheap.  POI sets are static, so a uniform grid over the city's bounding
box is both simpler and faster than a rebalancing tree: a radius-``r`` query
touches only ``O((r / cell)^2)`` cells and does one vectorized distance
filter over their members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.errors import GeometryError
from repro.geo.bbox import BBox
from repro.geo.point import Point

__all__ = ["GridIndex", "DiskColumnPlan", "POOL_BUDGET"]

#: Most candidate-pool entries one vectorized distance filter gathers at
#: once.  :meth:`GridIndex.query_batch` splits its batch into runs of
#: column pairs within it, and the FreqEngine sizes its query chunks to it.
POOL_BUDGET = 4_000_000

#: Smallest normal float64 — below it, squared distances lose precision.
_TINY = np.finfo(np.float64).tiny

#: Relative margin for classifying whole cells against a disk.  A cell is
#: only called *interior* when its farthest corner is within
#: ``radius * (1 - _CELL_MARGIN)`` and only called *outside* when its
#: nearest corner is beyond ``radius * (1 + _CELL_MARGIN)``; everything in
#: between stays in the exactly-filtered band, so float rounding can move
#: cells only between "cheap" and "exact" — never flip a point's fate.
_CELL_MARGIN = 1e-12

#: Absolute companion to ``_CELL_MARGIN`` (meters).  Bucket assignment
#: truncates ``(x - min_x) / cell``, so a stored point's true coordinate can
#: sit up to a few 1e-11 m outside its nominal cell rectangle at city scale;
#: a nanometer pad dominates that error even when ``radius * _CELL_MARGIN``
#: alone would not (tiny radii).
_CELL_PAD = 1e-9


@dataclass(frozen=True)
class DiskColumnPlan:
    """Per-(query, cell-column) decomposition of a batch of disk queries.

    Each entry describes one grid column ``cx`` scanned by query
    ``qidx``: cells ``cy in [olo, ohi]`` are the only ones that can contain
    points within the radius, and of those, cells ``cy in [ilo, ihi]`` lie
    *entirely* inside the disk (every member point is certainly kept).  The
    remaining cells — ``[olo, ilo - 1]`` and ``[ihi + 1, ohi]`` — form the
    boundary band that still needs the exact distance filter.  An empty
    interior is encoded as ``ilo == ohi + 1, ihi == ohi`` so both band runs
    degenerate into the single run ``[olo, ohi]`` with no special-casing.

    Classification uses the conservative margins ``_CELL_MARGIN`` /
    ``_CELL_PAD``: a cell is only promoted out of the band when float
    rounding provably cannot flip any of its points' fates, so consuming the
    plan yields results bit-identical to filtering the full scan box.
    """

    n_queries: int
    qidx: np.ndarray  #: (n_pairs,) intp — owning query of each column
    cx: np.ndarray  #: (n_pairs,) intp — grid column index
    olo: np.ndarray  #: (n_pairs,) intp — first cell row that can intersect
    ohi: np.ndarray  #: (n_pairs,) intp — last cell row that can intersect
    ilo: np.ndarray  #: (n_pairs,) intp — first fully-inside cell row
    ihi: np.ndarray  #: (n_pairs,) intp — last fully-inside cell row


def _check_radius(radius: float) -> None:
    """Reject a negative, infinite or NaN query radius."""
    if not 0 <= radius < math.inf:
        raise GeometryError(f"radius must be finite and non-negative, got {radius}")


def _disk_keep(dx: np.ndarray, dy: np.ndarray, radius: float) -> np.ndarray:
    """Mask of ``(dx, dy)`` offsets within *radius*, decided as ``np.hypot``.

    Squared distances are cheap but can disagree with the overflow-immune
    ``hypot`` comparison when the squares denormalise or the point sits
    within ~1e-12 (relative) of the boundary.  Everything outside that band
    is provably decided the same way by both formulas, so only band entries
    — normally none — are re-decided with ``np.hypot`` itself.
    """
    d2 = dx * dx
    d2 += dy * dy
    rsq = radius * radius
    keep = d2 <= rsq
    band = np.abs(d2 - rsq) <= 1e-12 * rsq
    band |= (d2 < _TINY) | (rsq < _TINY) | ~np.isfinite(d2)
    bi = np.flatnonzero(band)
    if len(bi):
        keep[bi] = np.hypot(dx[bi], dy[bi]) <= radius
    return keep


class GridIndex:
    """Uniform grid over a fixed set of planar points.

    Parameters
    ----------
    xy:
        Array of shape ``(n, 2)`` with point coordinates in meters.
    cell_size:
        Grid cell edge length in meters.  A good default is on the order of
        the smallest query radius; see the ablation bench for the tradeoff.
    bounds:
        Optional explicit bounding box.  Defaults to the tight bounds of the
        points (expanded by one cell so boundary points never fall outside).
    """

    def __init__(self, xy: np.ndarray, cell_size: float, bounds: BBox | None = None) -> None:
        xy = np.asarray(xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise GeometryError(f"expected (n, 2) coordinates, got shape {xy.shape}")
        if cell_size <= 0:
            raise GeometryError(f"cell_size must be positive, got {cell_size}")
        self._xy = xy
        self._cell = float(cell_size)
        if bounds is None:
            if len(xy) == 0:
                bounds = BBox(0.0, 0.0, cell_size, cell_size)
            else:
                bounds = BBox(
                    float(xy[:, 0].min()),
                    float(xy[:, 1].min()),
                    float(xy[:, 0].max()),
                    float(xy[:, 1].max()),
                ).expanded(cell_size)
        self._bounds = bounds
        self._nx = max(1, int(np.ceil(bounds.width / cell_size)))
        self._ny = max(1, int(np.ceil(bounds.height / cell_size)))

        # Bucket points by cell using a counting-sort layout: ``_order`` holds
        # point indices grouped by cell, ``_start`` delimits each cell's slice.
        n_cells = self._nx * self._ny
        if len(xy):
            cx, cy = self._cell_of_many(xy[:, 0], xy[:, 1])
            flat = cx * self._ny + cy
            order = np.argsort(flat, kind="stable")
            counts = np.bincount(flat, minlength=n_cells)
        else:
            order = np.empty(0, dtype=np.intp)
            counts = np.zeros(n_cells, dtype=np.intp)
        self._order = order
        self._start = np.concatenate([[0], np.cumsum(counts)])
        # Point coordinates pre-permuted into the bucket order: the batch
        # path filters its gathered pool with one contiguous read per axis
        # and only surviving entries pay the point-index gather.
        self._xord = np.ascontiguousarray(xy[order, 0]) if len(xy) else xy
        self._yord = np.ascontiguousarray(xy[order, 1]) if len(xy) else xy
        self._clipped = self._any_outside_bounds()

    def _any_outside_bounds(self) -> bool:
        """Whether any point was clipped into an edge cell from outside.

        Only points strictly outside the bounding box distort the grid
        geometry (their assigned edge cell's rectangle does not contain
        them); in-bounds border points always land in a cell whose closed
        rectangle covers them.  :meth:`disk_column_plan` needs edge-cell
        guards only when this is true.
        """
        if len(self._xy) == 0:
            return False
        b = self._bounds
        xs, ys = self._xy[:, 0], self._xy[:, 1]
        return bool(
            (xs < b.min_x).any()
            or (xs > b.max_x).any()
            or (ys < b.min_y).any()
            or (ys > b.max_y).any()
        )

    @property
    def n_points(self) -> int:
        return len(self._xy)

    @property
    def bucket_order(self) -> np.ndarray:
        """Point indices grouped by cell (the CSR pool, read-only layout)."""
        return self._order

    @property
    def bucket_start(self) -> np.ndarray:
        """Per-cell slice boundaries into :attr:`bucket_order` (flat x-major)."""
        return self._start

    @property
    def bucket_xord(self) -> np.ndarray:
        """x coordinates pre-permuted into bucket order."""
        return self._xord

    @property
    def bucket_yord(self) -> np.ndarray:
        """y coordinates pre-permuted into bucket order."""
        return self._yord

    @property
    def bounds(self) -> BBox:
        return self._bounds

    @property
    def cell_size(self) -> float:
        return self._cell

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Number of cells along each axis ``(nx, ny)``."""
        return self._nx, self._ny

    def _cell_of_many(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cx = np.clip(((xs - self._bounds.min_x) / self._cell).astype(np.intp), 0, self._nx - 1)
        cy = np.clip(((ys - self._bounds.min_y) / self._cell).astype(np.intp), 0, self._ny - 1)
        return cx, cy

    def cells_of(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Clamped ``(cx, cy)`` cell coordinates for each point in *xy*."""
        q = np.asarray(xy, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2:
            raise GeometryError(f"expected (n, 2) coordinates, got shape {q.shape}")
        return self._cell_of_many(q[:, 0], q[:, 1])

    def cell_ranges(
        self, xy: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Clamped cell ranges ``(cx0, cx1, cy0, cy1)`` a radius query scans.

        The returned box of cells is exactly the candidate set
        :meth:`query_radius` filters — a superset of the disk — so any
        monotone statistic over the box (e.g. a per-type count) is a sound
        upper bound for the same statistic over the disk.  ``astype(intp)``
        truncates toward zero, matching the scalar path's ``int(...)``.
        """
        q = np.asarray(xy, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2:
            raise GeometryError(f"expected (q, 2) query centers, got shape {q.shape}")
        _check_radius(radius)
        cx0 = np.maximum(0, ((q[:, 0] - radius - self._bounds.min_x) / self._cell).astype(np.intp))
        cx1 = np.minimum(
            self._nx - 1, ((q[:, 0] + radius - self._bounds.min_x) / self._cell).astype(np.intp)
        )
        cy0 = np.maximum(0, ((q[:, 1] - radius - self._bounds.min_y) / self._cell).astype(np.intp))
        cy1 = np.minimum(
            self._ny - 1, ((q[:, 1] + radius - self._bounds.min_y) / self._cell).astype(np.intp)
        )
        return cx0, cx1, cy0, cy1

    def interior_cell_ranges(
        self, xy: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Clamped cell ranges ``(cx0, cx1, cy0, cy1)`` certainly inside the disk.

        The largest cell-aligned box contained in each query's inscribed
        square (half-side ``radius / sqrt(2)``), so every point in those
        cells is within *radius* of the center: any monotone statistic over
        the box is a sound *lower* bound for the disk.  Ranges may be empty
        (``cx1 < cx0`` or ``cy1 < cy0``) for radii small relative to the
        cell size.
        """
        q = np.asarray(xy, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2:
            raise GeometryError(f"expected (q, 2) query centers, got shape {q.shape}")
        _check_radius(radius)
        # Shrink the half-side by one ulp-scale factor so float rounding can
        # never admit a corner at distance > radius.
        s = radius / np.sqrt(2.0) * (1.0 - 1e-12)
        cx0 = np.maximum(
            0, np.ceil((q[:, 0] - s - self._bounds.min_x) / self._cell).astype(np.intp)
        )
        cx1 = np.minimum(
            self._nx - 1,
            np.floor((q[:, 0] + s - self._bounds.min_x) / self._cell).astype(np.intp) - 1,
        )
        cy0 = np.maximum(
            0, np.ceil((q[:, 1] - s - self._bounds.min_y) / self._cell).astype(np.intp)
        )
        cy1 = np.minimum(
            self._ny - 1,
            np.floor((q[:, 1] + s - self._bounds.min_y) / self._cell).astype(np.intp) - 1,
        )
        return cx0, cx1, cy0, cy1

    def disk_column_plan(self, xy: np.ndarray, radius: float) -> DiskColumnPlan:
        """Classify each query's scan-box cells as interior / band / outside.

        For every query the scan box from :meth:`cell_ranges` is flattened
        into ``(query, column)`` pairs exactly as :meth:`query_batch` does,
        then each column's cell rows are split by distance to the disk:

        * rows whose farthest corner is within ``radius`` shrunk by the
          classification margin are *interior* — every member point is
          certainly kept, so a prefix-sum rectangle sum can count them;
        * rows whose nearest corner is beyond ``radius`` grown by the margin
          are *outside* — no member point can be kept, so they are trimmed
          from the scan entirely (this is where large radii win: the scan
          box is O((r/cell)^2) cells but the band is only O(r/cell));
        * everything else is *band* and still needs the exact filter.

        When points lie strictly outside the bounding box,
        :meth:`_cell_of_many` clips them into edge cells whose rectangles do
        not contain them, so whole-cell geometry is unreliable there: in
        that case edge rows/columns are never classified interior *and*
        never trimmed — they stay in the band whenever the scan box touches
        them.  Indexes whose points all lie inside bounds (the normal case)
        skip both guards.
        """
        q = np.asarray(xy, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2:
            raise GeometryError(f"expected (q, 2) query centers, got shape {q.shape}")
        _check_radius(radius)
        nq = len(q)
        cx0, cx1, cy0, cy1 = self.cell_ranges(q, radius)
        spans = np.where((cx1 >= cx0) & (cy1 >= cy0), cx1 - cx0 + 1, 0)
        n_pairs = int(spans.sum())
        if n_pairs == 0:
            e = np.empty(0, dtype=np.intp)
            return DiskColumnPlan(nq, e, e, e, e, e, e)

        pair_starts = np.concatenate([[0], np.cumsum(spans)[:-1]])
        qidx = np.repeat(np.arange(nq, dtype=np.intp), spans)
        rel_col = np.arange(n_pairs, dtype=np.intp) - np.repeat(pair_starts, spans)
        cx = cx0[qidx] + rel_col

        qx = q[qidx, 0]
        qy = q[qidx, 1] - self._bounds.min_y
        x_lo = self._bounds.min_x + cx * self._cell
        x_hi = x_lo + self._cell
        dxmax = np.maximum(qx - x_lo, x_hi - qx)
        dxmin = np.maximum(0.0, np.maximum(x_lo - qx, qx - x_hi))
        r_in = radius * (1.0 - _CELL_MARGIN) - _CELL_PAD
        r_out = radius * (1.0 + _CELL_MARGIN) + _CELL_PAD

        # Outer trim: a cell row can hold kept points only if its y-interval
        # meets [qy - t, qy + t] with t the disk's half-height at the
        # column's nearest |dx|.
        t2 = r_out * r_out - dxmin * dxmin
        t = np.sqrt(np.maximum(t2, 0.0))
        olo = np.maximum(cy0[qidx], np.floor((qy - t) / self._cell).astype(np.intp))
        ohi = np.minimum(cy1[qidx], np.floor((qy + t) / self._cell).astype(np.intp))
        ohi = np.where(t2 > 0.0, ohi, olo - 1)
        if self._clipped:
            # Clipped points live in edge cells with unreliable rectangles:
            # any pair whose scan range touches a grid edge keeps its full
            # untrimmed range so no clipped point can be trimmed away.
            full = (
                (cx == 0)
                | (cx == self._nx - 1)
                | (cy0[qidx] == 0)
                | (cy1[qidx] == self._ny - 1)
            )
            olo = np.where(full, cy0[qidx], olo)
            ohi = np.where(full, cy1[qidx], ohi)

        # Interior: rows whose full y-extent fits inside [qy - s, qy + s]
        # with s the half-height at the column's farthest |dx| under the
        # shrunk radius.
        s2 = r_in * r_in - dxmax * dxmax
        s = np.sqrt(np.maximum(s2, 0.0))
        ilo = np.ceil((qy - s) / self._cell).astype(np.intp)
        ihi = np.floor((qy + s) / self._cell).astype(np.intp) - 1
        np.maximum(ilo, olo, out=ilo)
        np.minimum(ihi, ohi, out=ihi)
        good = (s2 > 0.0) & (ilo <= ihi)
        if self._clipped:
            np.maximum(ilo, 1, out=ilo)
            np.minimum(ihi, self._ny - 2, out=ihi)
            good &= (cx >= 1) & (cx <= self._nx - 2) & (ilo <= ihi)
        # Empty interior folds into "one band run [olo, ohi]".
        ilo = np.where(good, ilo, ohi + 1)
        ihi = np.where(good, ihi, ohi)
        return DiskColumnPlan(nq, qidx, cx, olo, ohi, ilo, ihi)

    def _candidates_in_box(self, min_x: float, min_y: float, max_x: float, max_y: float) -> np.ndarray:
        """Indices of all points in cells overlapping the given box."""
        cx0 = max(0, int((min_x - self._bounds.min_x) / self._cell))
        cx1 = min(self._nx - 1, int((max_x - self._bounds.min_x) / self._cell))
        cy0 = max(0, int((min_y - self._bounds.min_y) / self._cell))
        cy1 = min(self._ny - 1, int((max_y - self._bounds.min_y) / self._cell))
        if cx1 < cx0 or cy1 < cy0:
            return np.empty(0, dtype=np.intp)
        chunks = []
        for cx in range(cx0, cx1 + 1):
            # Cells (cx, cy0..cy1) are contiguous in the flat layout.
            flat0 = cx * self._ny + cy0
            flat1 = cx * self._ny + cy1
            lo = self._start[flat0]
            hi = self._start[flat1 + 1]
            if hi > lo:
                chunks.append(self._order[lo:hi])
        if not chunks:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(chunks)

    def query_radius(self, center: Point, radius: float) -> np.ndarray:
        """Indices of points within *radius* meters of *center* (inclusive)."""
        _check_radius(radius)
        cand = self._candidates_in_box(
            center.x - radius, center.y - radius, center.x + radius, center.y + radius
        )
        if len(cand) == 0:
            return cand
        # Same hypot-exact filter as the batch path.
        dx = self._xy[cand, 0] - center.x
        dy = self._xy[cand, 1] - center.y
        return cand[_disk_keep(dx, dy, radius)]

    def query_batch(self, xy: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Radius query for many centers in one vectorized pass.

        Parameters
        ----------
        xy:
            ``(q, 2)`` array of query centers in meters.
        radius:
            Query radius shared by the whole batch.

        Returns
        -------
        ``(indices, offsets)`` in CSR layout: the points within *radius* of
        center ``i`` are ``indices[offsets[i]:offsets[i + 1]]``, in exactly
        the order :meth:`query_radius` would return them.

        The batch is answered without any per-query Python loop: cell
        ranges are computed for all queries at once, and every query's
        contiguous ``(cx, cy0..cy1)`` column slices are flattened into one
        ``(query, column)`` pair list in owner-major order — so the
        gathered pool needs no sort to match the scalar layout.  The pool
        is bounded here, not by the caller: each pair's slice length is
        known before anything is gathered, so the pairs are split into
        consecutive runs of at most :data:`POOL_BUDGET` pool entries
        (a single larger pair runs alone), and one distance filter runs
        per run.  Runs keep the pair order, so the result does not depend
        on where the batch was split.
        """
        q = np.asarray(xy, dtype=float)
        if q.ndim != 2 or q.shape[1] != 2:
            raise GeometryError(f"expected (q, 2) query centers, got shape {q.shape}")
        _check_radius(radius)
        nq = len(q)
        empty = np.empty(0, dtype=np.intp)
        offsets = np.zeros(nq + 1, dtype=np.intp)
        if nq == 0 or len(self._xy) == 0:
            return empty, offsets

        cx0, cx1, cy0, cy1 = self.cell_ranges(q, radius)
        spans = np.where((cx1 >= cx0) & (cy1 >= cy0), cx1 - cx0 + 1, 0)
        n_pairs = int(spans.sum())
        if n_pairs == 0:
            return empty, offsets

        # Flatten every query's cell columns into (query, column) pairs,
        # ordered by query then ascending column: expanding their slices in
        # this order reproduces the scalar per-query candidate order with
        # no sort over the gathered pool.
        pair_starts = np.concatenate([[0], np.cumsum(spans)[:-1]])
        qidx = np.repeat(np.arange(nq, dtype=np.intp), spans)
        rel_col = np.arange(n_pairs, dtype=np.intp) - np.repeat(pair_starts, spans)
        cx = cx0[qidx] + rel_col
        # Cells (cx, cy0..cy1) are contiguous in the flat layout.
        lo = self._start[cx * self._ny + cy0[qidx]]
        lengths = self._start[cx * self._ny + cy1[qidx] + 1] - lo
        ends = np.cumsum(lengths)
        # 32-bit positions halve the memory traffic of the expansion
        # whenever they suffice.
        pool_dtype = np.int32 if len(self._xy) < np.iinfo(np.int32).max else np.intp
        qx = np.ascontiguousarray(q[:, 0])
        qy = np.ascontiguousarray(q[:, 1])
        points: list[np.ndarray] = []
        counts = np.zeros(nq, dtype=np.intp)
        start = 0
        while start < n_pairs:
            before = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, before + POOL_BUDGET, side="right")))
            total = int(ends[stop - 1]) - before
            if total:
                run = lengths[start:stop]
                out_start = np.concatenate([[0], np.cumsum(run)[:-1]])
                pos = np.arange(total, dtype=pool_dtype)
                pos += np.repeat((lo[start:stop] - out_start).astype(pool_dtype), run)
                owners = np.repeat(qidx[start:stop].astype(pool_dtype), run)
                # Same hypot-exact filter as the scalar path, evaluated on
                # the pre-permuted coordinate arrays so the pool is filtered
                # before any point-index gather.
                dx = self._xord[pos]
                dx -= qx[owners]
                dy = self._yord[pos]
                dy -= qy[owners]
                keep = _disk_keep(dx, dy, radius)
                points.append(self._order[pos[keep]])
                counts += np.bincount(owners[keep], minlength=nq)
            start = stop
        np.cumsum(counts, out=offsets[1:])
        if not points:
            return empty, offsets
        indices = points[0] if len(points) == 1 else np.concatenate(points)
        return indices.astype(np.intp, copy=False), offsets

    def query_box(self, box: BBox) -> np.ndarray:
        """Indices of points inside *box* (inclusive boundaries)."""
        cand = self._candidates_in_box(box.min_x, box.min_y, box.max_x, box.max_y)
        if len(cand) == 0:
            return cand
        keep = box.contains_many(self._xy[cand, 0], self._xy[cand, 1])
        return cand[keep]

    def count_radius(self, center: Point, radius: float) -> int:
        """Number of points within *radius* of *center*."""
        return int(len(self.query_radius(center, radius)))
