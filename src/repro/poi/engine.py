"""The unified Freq query engine.

Every frequency evaluation in the repo — scalar :meth:`POIDatabase.freq`,
batched :meth:`POIDatabase.freq_batch`, the lazy anchor-row fills, and
the serve dispatcher's micro-batches — routes through one
:class:`FreqEngine`, which picks an execution *tier* per call:

``banded``
    The PR-2 path: gather every candidate in the scan box and run the
    hypot-exact distance filter over the whole pool.  Optimal when the
    disk covers only a few grid cells.

``pyramid``
    The large-radius path: classify scan-box cells with
    :meth:`GridIndex.disk_column_plan`, answer fully-inside cells with
    O(1) rectangle sums over the radius-independent cell prefix sums, and
    run the exact filter only over the thin boundary band.  The filtered
    pool shrinks from O((r/cell)^2) to O(r/cell) cells, which is where the
    old engine's speedup collapsed.

Both tiers produce histograms bit-identical to the scalar reference —
the pyramid's cell classification is conservative (see
``grid_index._CELL_MARGIN``), and the band filter makes exactly the same
keep decisions as ``_disk_keep`` whichever kernel
(:mod:`repro.poi.kernels`) executes it.

Every engine call emits a :class:`QueryPlan` describing what actually ran
(tier, kernel, pool sizes); experiment runners collect them with
:func:`collecting_query_plans` and fold a summary into result provenance.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.errors import DatasetError
from repro.geo.grid_index import POOL_BUDGET
from repro.poi import kernels

if TYPE_CHECKING:
    from repro.poi.database import POIDatabase

__all__ = [
    "ENGINE_MODES",
    "FreqEngine",
    "check_radius",
    "QueryPlan",
    "collecting_query_plans",
    "record_query_plan",
    "summarize_query_plans",
]

#: Valid engine selectors, in documentation order.
ENGINE_MODES = ("auto", "banded", "pyramid")


@dataclass(frozen=True)
class QueryPlan:
    """What one engine call actually executed.

    ``engine`` is the caller's selector (``auto``/``banded``/``pyramid``),
    ``tier`` the path that ran, ``kernel`` the band-filter implementation
    (``numpy`` or ``numba``).  The pool statistics quantify the pyramid
    win: ``n_interior_cells`` were answered by prefix-sum rectangle sums,
    and only ``n_band_candidates`` pool entries paid the exact filter.
    """

    op: str
    engine: str
    tier: str
    kernel: str
    radius: float
    n_queries: int
    n_pairs: int
    n_interior_cells: int
    n_band_candidates: int

    def to_provenance(self) -> dict[str, Any]:
        """JSON-ready form (what lands in experiment provenance)."""
        return asdict(self)


# --- provenance collection -------------------------------------------------
#
# The engine calls record_query_plan() on every completed evaluation; the
# experiment runner wraps each run in collecting_query_plans() and folds a
# summary into ExperimentResult.provenance["freq_engine"].  When no
# collector is active, plans are dropped — ad-hoc library use pays nothing.

_COLLECTOR_STACK: list[list[QueryPlan]] = []


def record_query_plan(plan: QueryPlan) -> None:
    """Hand a completed plan to the innermost active collector (if any)."""
    if _COLLECTOR_STACK:
        _COLLECTOR_STACK[-1].append(plan)


@contextmanager
def collecting_query_plans() -> Iterator[list[QueryPlan]]:
    """Collect every query plan recorded inside the ``with`` body."""
    collected: list[QueryPlan] = []
    _COLLECTOR_STACK.append(collected)
    try:
        yield collected
    finally:
        _COLLECTOR_STACK.pop()


def summarize_query_plans(plans: list[QueryPlan]) -> dict[str, Any]:
    """Aggregate collected plans into a compact provenance record.

    Experiments issue thousands of engine calls; provenance keeps per
    ``(op, tier, kernel)`` totals rather than the raw plan stream.
    """
    groups: dict[tuple[str, str, str], dict[str, int]] = {}
    engines = sorted({p.engine for p in plans})
    for p in plans:
        g = groups.setdefault(
            (p.op, p.tier, p.kernel),
            {"calls": 0, "n_queries": 0, "n_interior_cells": 0, "n_band_candidates": 0},
        )
        g["calls"] += 1
        g["n_queries"] += p.n_queries
        g["n_interior_cells"] += p.n_interior_cells
        g["n_band_candidates"] += p.n_band_candidates
    return {
        "engines": engines,
        "calls": [
            {"op": op, "tier": tier, "kernel": kernel, **stats}
            for (op, tier, kernel), stats in sorted(groups.items())
        ],
    }


def check_radius(radius: float) -> None:
    """Reject a negative, infinite or NaN Freq radius with a DatasetError."""
    if not 0 <= radius < math.inf:
        raise DatasetError(f"radius must be finite and non-negative, got {radius}")


class FreqEngine:
    """Radius-tiered executor for batched Freq evaluations.

    Parameters
    ----------
    database:
        The owning :class:`~repro.poi.database.POIDatabase`; the engine
        reads its grid index, type arrays, and cell prefix sums.
    mode:
        ``"auto"`` picks the tier per call from the radius;
        ``"banded"``/``"pyramid"`` force one path (the pyramid stays exact
        at any radius — forcing is a debugging/benchmarking tool, not a
        correctness risk).
    pyramid_threshold_cells:
        With ``mode="auto"``, use the pyramid once the radius spans at
        least this many grid cells.  The default was tuned on the batch
        engine bench: below it the plan overhead outweighs the trimmed
        pool.
    """

    #: Auto tier boundary, in units of grid cells covered by the radius.
    #: Measured on the batch-engine bench (beijing, 500 m cells): banded
    #: wins up to ~2.5 km, the pyramid from ~3 km up.
    PYRAMID_THRESHOLD_CELLS = 6.0

    def __init__(
        self,
        database: POIDatabase,
        mode: str = "auto",
        pyramid_threshold_cells: float | None = None,
    ) -> None:
        self._db = database
        self.mode = mode  # validated by the property setter
        self._threshold = (
            self.PYRAMID_THRESHOLD_CELLS
            if pyramid_threshold_cells is None
            else float(pyramid_threshold_cells)
        )
    @property
    def mode(self) -> str:
        """The configured selector: ``auto``, ``banded`` or ``pyramid``."""
        return self._mode

    @mode.setter
    def mode(self, value: str) -> None:
        if value not in ENGINE_MODES:
            raise DatasetError(
                f"engine must be one of {ENGINE_MODES}, got {value!r}"
            )
        self._mode = value

    @property
    def pyramid_threshold_cells(self) -> float:
        return self._threshold

    def select_tier(self, radius: float) -> str:
        """The tier ``mode`` resolves to for one call at *radius*."""
        if self._mode != "auto":
            return self._mode
        cell = self._db.grid.cell_size
        return "pyramid" if radius >= self._threshold * cell else "banded"

    # -- execution ----------------------------------------------------

    def freq_batch(
        self, coords: np.ndarray, radius: float, op: str = "freq_batch"
    ) -> np.ndarray:
        """``Freq`` for many centers: ``(n, M)`` int64, scalar-identical."""
        check_radius(radius)
        db = self._db
        n, m = len(coords), db.n_types
        tier = self.select_tier(radius)
        kernel = kernels.active_kernel()
        out = np.zeros((n, m), dtype=np.int64)
        stats = {"n_pairs": 0, "n_interior_cells": 0, "n_band_candidates": 0}
        if n and len(db):
            for start, stop in self._chunks(n, radius, tier, m):
                block = np.ascontiguousarray(coords[start:stop])
                if tier == "pyramid":
                    self._pyramid_block(block, radius, out[start:stop], stats)
                else:
                    self._banded_block(block, radius, out[start:stop], stats)
        record_query_plan(
            QueryPlan(
                op=op,
                engine=self._mode,
                tier=tier,
                kernel=kernel,
                radius=float(radius),
                n_queries=n,
                n_pairs=stats["n_pairs"],
                n_interior_cells=stats["n_interior_cells"],
                n_band_candidates=stats["n_band_candidates"],
            )
        )
        return out

    def freq(self, x: float, y: float, radius: float) -> np.ndarray:
        """Scalar ``Freq`` as a 1-query batch: ``(M,)`` int64."""
        return self.freq_batch(np.array([[x, y]], dtype=float), radius, op="freq")[0]

    # -- internals ----------------------------------------------------

    def _chunks(
        self, n: int, radius: float, tier: str, m: int
    ) -> Iterator[tuple[int, int]]:
        """Query chunking that bounds every intermediate's memory.

        The banded tier's cost is the gathered candidate pool (about
        :data:`~repro.geo.grid_index.POOL_BUDGET` entries per chunk); the
        pyramid adds per-pair prefix gathers of width ``m``, so its chunks
        also cap ``pairs * m`` elements.
        """
        grid = self._db.grid
        cell = grid.cell_size
        area = max(grid.bounds.width * grid.bounds.height, 1.0)
        density = len(self._db) / area
        side = 2 * radius + 2 * cell
        if tier == "banded":
            est = max(1.0, density * side * side)
            chunk = int(min(n, max(64, POOL_BUDGET / est)))
        else:
            # Band candidates live in a strip ~2 cells thick around the
            # circle; interior pairs cost m-wide prefix gathers each.
            est_band = max(1.0, density * 4.0 * side * 2.0 * cell)
            est_pair_elems = max(1.0, (2 * radius / cell + 2.0) * m)
            chunk = int(
                min(
                    n,
                    max(64, min(POOL_BUDGET / est_band, 24_000_000 / est_pair_elems)),
                )
            )
        for start in range(0, n, chunk):
            yield start, min(n, start + chunk)

    def _banded_block(
        self,
        block: np.ndarray,
        radius: float,
        out: np.ndarray,
        stats: dict[str, int],
    ) -> None:
        """Filter the full scan box — the small-radius tier."""
        grid = self._db.grid
        cx0, cx1, cy0, cy1 = grid.cell_ranges(block, radius)
        spans = np.where((cx1 >= cx0) & (cy1 >= cy0), cx1 - cx0 + 1, 0)
        n_pairs = int(spans.sum())
        stats["n_pairs"] += n_pairs
        if n_pairs == 0:
            return
        pair_starts = np.concatenate([[0], np.cumsum(spans)[:-1]])
        qidx = np.repeat(np.arange(len(block), dtype=np.intp), spans)
        rel_col = np.arange(n_pairs, dtype=np.intp) - np.repeat(pair_starts, spans)
        cx = cx0[qidx] + rel_col
        self._filter_runs(block, radius, qidx, cx, cy0[qidx], cy1[qidx], out, stats)

    def _pyramid_block(
        self,
        block: np.ndarray,
        radius: float,
        out: np.ndarray,
        stats: dict[str, int],
    ) -> None:
        """Prefix-sum rectangle + counted stubs + exactly-filtered band.

        Each query's interior (cells fully inside the disk) is answered in
        two parts: one rectangle sum over the 2-D cell prefix sums — four
        ``M``-wide gathers *per query*, independent of the radius — and the
        staircase stubs the rectangle misses, whose members need no
        distance check and are simply counted.  Only the boundary band pays
        the exact filter.  The rectangle is derived from the plan's own
        interior runs (tightest run over the inscribed-square columns), so
        it is inside every column's interior by construction — no float
        re-derivation can break the partition.
        """
        grid = self._db.grid
        nq = len(block)
        plan = grid.disk_column_plan(block, radius)
        stats["n_pairs"] += len(plan.qidx)
        has_int = plan.ilo <= plan.ihi
        int_q = plan.qidx[has_int]
        int_cx = plan.cx[has_int]
        int_lo = plan.ilo[has_int]
        int_hi = plan.ihi[has_int]
        stats["n_interior_cells"] += int((int_hi - int_lo + 1).sum())

        # Candidate rectangle columns: the inscribed square's x-range.  The
        # exact bounds only matter for speed; correctness comes from the
        # containment guard below.
        half = (radius * (1.0 - 1e-12) - 1e-9) / np.sqrt(2.0)
        min_x = grid.bounds.min_x
        cell = grid.cell_size
        bx0 = np.ceil((block[:, 0] - half - min_x) / cell).astype(np.intp)
        bx1 = np.floor((block[:, 0] + half - min_x) / cell).astype(np.intp) - 1
        np.maximum(bx0, 0, out=bx0)
        np.minimum(bx1, grid.grid_shape[0] - 1, out=bx1)
        width = bx1 - bx0 + 1

        # Per-query rectangle y-range: the tightest interior run over the
        # candidate columns, valid only when every candidate column has an
        # interior run (no holes) — then [bx0, bx1] x [by0, by1] is covered
        # by the interior and can be answered by one prefix rectangle.
        rect_lo = np.zeros(nq, dtype=np.intp)
        rect_hi = np.full(nq, -1, dtype=np.intp)
        has_rect = np.zeros(nq, dtype=bool)
        inbox = (int_cx >= bx0[int_q]) & (int_cx <= bx1[int_q])
        ib_q = int_q[inbox]
        if len(ib_q):
            starts = np.concatenate([[0], np.flatnonzero(ib_q[1:] != ib_q[:-1]) + 1])
            uq = ib_q[starts]
            counts = np.diff(np.concatenate([starts, [len(ib_q)]]))
            by0 = np.maximum.reduceat(int_lo[inbox], starts)
            by1 = np.minimum.reduceat(int_hi[inbox], starts)
            ok = (counts == width[uq]) & (by0 <= by1)
            sel = uq[ok]
            if len(sel):
                pref = self._db.cell_prefix_sums()
                c0 = by0[ok]
                c1 = by1[ok] + 1
                a0 = bx0[sel]
                a1 = bx1[sel] + 1
                # Counts fit int32; only the accumulate into `out` widens.
                rect = pref[a1, c1] - pref[a0, c1]
                rect -= pref[a1, c0]
                rect += pref[a0, c0]
                out[sel] += rect
                rect_lo[sel] = c0
                rect_hi[sel] = by1[ok]
                has_rect[sel] = True

        # Interior stubs: whatever each column's interior run has outside
        # the rectangle.  Members are certainly inside the disk — count
        # them without filtering.
        in_rect_col = has_rect[int_q] & inbox
        s1a = int_lo
        s1b = np.where(in_rect_col, np.minimum(rect_lo[int_q] - 1, int_hi), int_hi)
        s2a = np.where(in_rect_col, np.maximum(rect_hi[int_q] + 1, int_lo), int_hi + 1)
        s2b = int_hi
        m1 = s1a <= s1b
        m2 = s2a <= s2b
        stub_q = np.concatenate([int_q[m1], int_q[m2]])
        stub_cx = np.concatenate([int_cx[m1], int_cx[m2]])
        stub_a = np.concatenate([s1a[m1], s2a[m2]])
        stub_b = np.concatenate([s1b[m1], s2b[m2]])
        expanded = self._expand_runs(stub_q, stub_cx, stub_a, stub_b)
        if expanded is not None:
            pos, owners = expanded
            out += kernels.run_histogram(
                pos, owners, self._db.types_bucket_order, nq, out.shape[1]
            )

        # Boundary band: the runs below and above the interior stretch.
        b1hi = np.minimum(plan.ilo - 1, plan.ohi)
        b2lo = np.maximum(plan.ihi + 1, plan.olo)
        m1 = plan.olo <= b1hi
        m2 = b2lo <= plan.ohi
        run_q = np.concatenate([plan.qidx[m1], plan.qidx[m2]])
        run_cx = np.concatenate([plan.cx[m1], plan.cx[m2]])
        run_a = np.concatenate([plan.olo[m1], b2lo[m2]])
        run_b = np.concatenate([b1hi[m1], plan.ohi[m2]])
        self._filter_runs(block, radius, run_q, run_cx, run_a, run_b, out, stats)

    def _expand_runs(
        self,
        run_q: np.ndarray,
        run_cx: np.ndarray,
        run_a: np.ndarray,
        run_b: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Expand cell runs ``(cx, [a, b])`` into pool positions + owners.

        Returns ``None`` when the runs hold no points.  Positions index the
        grid's bucket-ordered arrays; owners name each entry's query, in
        run order (the consumers are order-insensitive histograms).
        """
        if len(run_q) == 0:
            return None
        grid = self._db.grid
        ny = grid.grid_shape[1]
        start = grid.bucket_start
        lo = start[run_cx * ny + run_a]
        hi = start[run_cx * ny + run_b + 1]
        lengths = hi - lo
        total = int(lengths.sum())
        if total == 0:
            return None
        pool_dtype = np.int32 if grid.n_points < np.iinfo(np.int32).max else np.intp
        out_start = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        pos = np.arange(total, dtype=pool_dtype)
        pos += np.repeat((lo - out_start).astype(pool_dtype), lengths)
        owners = np.repeat(run_q, lengths)
        return pos, owners

    def _filter_runs(
        self,
        block: np.ndarray,
        radius: float,
        run_q: np.ndarray,
        run_cx: np.ndarray,
        run_a: np.ndarray,
        run_b: np.ndarray,
        out: np.ndarray,
        stats: dict[str, int],
    ) -> None:
        """Expand cell runs into the pool and histogram the kept entries."""
        expanded = self._expand_runs(run_q, run_cx, run_a, run_b)
        if expanded is None:
            return
        pos, owners = expanded
        stats["n_band_candidates"] += len(pos)
        grid = self._db.grid
        out += kernels.band_histogram(
            pos,
            owners,
            grid.bucket_xord,
            grid.bucket_yord,
            self._db.types_bucket_order,
            np.ascontiguousarray(block[:, 0]),
            np.ascontiguousarray(block[:, 1]),
            radius,
            len(block),
            out.shape[1],
        )
