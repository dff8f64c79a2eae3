"""The geo-information service provider (GSP) model.

The paper's LBS architecture (Fig. 1) exposes exactly one query interface:
retrieving the POIs within a given range of a location.  ``POIDatabase``
implements that interface (:meth:`query`) and the derived POI type histogram
(:meth:`freq`), backed by a uniform grid index so both are cheap enough to
sit in the inner loop of every attack.

The adversary's prior knowledge ``P`` in the paper is precisely this object:
the public POI map plus the ability to evaluate ``Freq`` anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import DatasetError
from repro.geo.bbox import BBox
from repro.geo.grid_index import GridIndex
from repro.geo.point import Point
from repro.poi.engine import FreqEngine, check_radius
from repro.poi.models import POI
from repro.poi.vocabulary import TypeVocabulary

__all__ = ["POIDatabase"]


class POIDatabase:
    """A static POI map with range queries and type-frequency aggregation.

    Parameters
    ----------
    xy:
        ``(n, 2)`` planar POI coordinates in meters.
    type_ids:
        ``(n,)`` integer array of type ids, each in ``[0, len(vocabulary))``.
    vocabulary:
        The type vocabulary; its length ``M`` is the frequency-vector width.
    bounds:
        The city's bounding box.  Defaults to the tight POI bounds.
    cell_size:
        Grid-index cell size in meters; defaults to 500 m, on the order of
        the smallest query radius studied in the paper.
    """

    def __init__(
        self,
        xy: np.ndarray,
        type_ids: np.ndarray,
        vocabulary: TypeVocabulary,
        bounds: BBox | None = None,
        cell_size: float = 500.0,
    ) -> None:
        xy = np.asarray(xy, dtype=float)
        type_ids = np.asarray(type_ids, dtype=np.intp)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise DatasetError(f"expected (n, 2) coordinates, got shape {xy.shape}")
        if type_ids.shape != (len(xy),):
            raise DatasetError(
                f"type_ids shape {type_ids.shape} does not match {len(xy)} POIs"
            )
        if len(type_ids) and (type_ids.min() < 0 or type_ids.max() >= len(vocabulary)):
            raise DatasetError("type ids out of vocabulary range")
        if bounds is None:
            if len(xy) == 0:
                raise DatasetError("cannot infer bounds from an empty POI set")
            bounds = BBox(
                float(xy[:, 0].min()),
                float(xy[:, 1].min()),
                float(xy[:, 0].max()),
                float(xy[:, 1].max()),
            )
        self._xy = xy
        self._types = type_ids
        self._vocab = vocabulary
        self._bounds = bounds
        self._index = GridIndex(xy, cell_size=cell_size, bounds=bounds.expanded(cell_size))
        self._city_freq = np.bincount(type_ids, minlength=len(vocabulary)).astype(np.int64)
        # Infrequent rank per paper Eq. (7): the rarest type ranks 1.  Ties
        # broken by type id for determinism.
        order = np.lexsort((np.arange(len(vocabulary)), self._city_freq))
        ranks = np.empty(len(vocabulary), dtype=np.int64)
        ranks[order] = np.arange(1, len(vocabulary) + 1)
        self._ranks = ranks
        self._by_type: list[np.ndarray] = [
            np.flatnonzero(type_ids == t) for t in range(len(vocabulary))
        ]
        # Freq evaluated at a POI is re-used heavily by the attacks (every
        # candidate pruning step asks for Freq(p, 2r)); memoise the rows
        # actually asked for, per queried radius, filled lazily in
        # vectorized batches (see :meth:`anchor_freqs`).
        self._anchor_rows: dict[float, _AnchorRows] = {}
        # Radius-independent 2-D prefix sums of per-cell type histograms,
        # backing the sound Freq bounds (:meth:`freq_bounds`) and the
        # engine's pyramid tier.
        self._cell_prefix: np.ndarray | None = None
        # Type ids pre-permuted into the grid's bucket order, so the band
        # kernels histogram pool entries without a point-index gather.
        self._types_ord: np.ndarray | None = None
        self._engine = FreqEngine(self)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @classmethod
    def from_pois(
        cls,
        pois: Sequence[POI],
        vocabulary: TypeVocabulary,
        bounds: BBox | None = None,
        cell_size: float = 500.0,
    ) -> "POIDatabase":
        """Build a database from :class:`~repro.poi.models.POI` objects."""
        xy = np.array([[p.location.x, p.location.y] for p in pois], dtype=float)
        types = np.array([p.type_id for p in pois], dtype=np.intp)
        return cls(xy, types, vocabulary, bounds=bounds, cell_size=cell_size)

    def __len__(self) -> int:
        return len(self._xy)

    @property
    def n_types(self) -> int:
        """Number of POI types ``M`` — the frequency-vector width."""
        return len(self._vocab)

    @property
    def vocabulary(self) -> TypeVocabulary:
        return self._vocab

    @property
    def bounds(self) -> BBox:
        return self._bounds

    @property
    def positions(self) -> np.ndarray:
        """Read-only view of the ``(n, 2)`` POI coordinate array."""
        view = self._xy.view()
        view.flags.writeable = False
        return view

    @property
    def type_ids(self) -> np.ndarray:
        """Read-only view of the ``(n,)`` type-id array."""
        view = self._types.view()
        view.flags.writeable = False
        return view

    @property
    def grid(self) -> GridIndex:
        """The backing grid index (shared with the engine)."""
        return self._index

    @property
    def types_bucket_order(self) -> np.ndarray:
        """Type ids permuted into the grid's bucket order (lazy, cached)."""
        tord = self._types_ord
        if tord is None:
            tord = self._types_ord = self._types[self._index.bucket_order]
        return tord

    @property
    def engine(self) -> FreqEngine:
        """The Freq engine every frequency query routes through."""
        return self._engine

    def poi(self, index: int) -> POI:
        """Materialise the POI at a given index."""
        return POI(
            poi_id=int(index),
            location=Point(float(self._xy[index, 0]), float(self._xy[index, 1])),
            type_id=int(self._types[index]),
        )

    def location_of(self, index: int) -> Point:
        """Planar location of the POI at *index*."""
        return Point(float(self._xy[index, 0]), float(self._xy[index, 1]))

    def type_of(self, index: int) -> int:
        """Type id of the POI at *index*."""
        return int(self._types[index])

    # ------------------------------------------------------------------
    # The GSP query interfaces (paper §II-A)
    # ------------------------------------------------------------------

    def query(self, center: Point, radius: float) -> np.ndarray:
        """``Query(l, r)``: indices of POIs within *radius* of *center*."""
        return self._index.query_radius(center, radius)

    def freq(self, center: Point, radius: float) -> np.ndarray:
        """``Freq(l, r)``: POI type frequency vector around *center*.

        Returns an ``(M,)`` int64 array where entry ``i`` counts the POIs of
        type ``i`` within *radius* of *center*.  Routed through the
        :class:`~repro.poi.engine.FreqEngine`, whose tiers are all
        bit-identical to histogramming :meth:`query`'s result directly.
        """
        return self._engine.freq(center.x, center.y, radius)

    def query_batch(
        self, xy: "Sequence[Point] | np.ndarray", radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """``Query(l, r)`` for many locations in one vectorized pass.

        Accepts an ``(n, 2)`` coordinate array or a sequence of
        :class:`~repro.geo.point.Point`; returns ``(indices, offsets)`` in
        CSR layout — the POIs within *radius* of location ``i`` are
        ``indices[offsets[i]:offsets[i + 1]]``, exactly as :meth:`query`
        would return them.
        """
        return self._index.query_batch(self._as_coords(xy), radius)

    def freq_batch(self, xy: "Sequence[Point] | np.ndarray", radius: float) -> np.ndarray:
        """``Freq(l, r)`` for many locations at once, as an ``(n, M)`` matrix.

        Bit-identical to stacking :meth:`freq` per location, but answered by
        the :class:`~repro.poi.engine.FreqEngine`: the banded tier gathers
        and filters the scan box in one vectorized pass, the pyramid tier
        additionally answers fully-inside cells with prefix-sum rectangle
        sums so only the boundary band pays the exact filter.  Queries are
        chunked so every intermediate stays within a fixed memory budget
        regardless of the batch size or radius.
        """
        return self._engine.freq_batch(self._as_coords(xy), radius)

    def anchor_freqs(
        self, radius: float, indices: "Sequence[int] | np.ndarray | None" = None
    ) -> np.ndarray:
        """Anchor frequency rows: ``Freq(p_i, radius)`` for POIs ``p_i``.

        The attacks evaluate ``Freq(p, 2r)`` for every candidate anchor POI
        ``p``; those anchors repeat across targets, so the database keeps
        every row it has computed, per queried radius, and fills the
        missing ones in one vectorized engine call.  With *indices* (an
        array of POI indices) the ``(len(indices), M)`` int32 row block is
        returned; without it every row is filled and the full
        ``(n_pois, M)`` matrix is returned.  Either is a fresh read-only
        gather: memory grows with the rows the callers read, not with the
        city.
        """
        check_radius(radius)
        store = self._anchor_store(radius)
        if indices is None:
            indices = np.arange(len(self._xy))
        indices = np.asarray(indices, dtype=np.intp)
        missing = store.missing(indices)
        if len(missing):
            store.add(
                missing, self._engine.freq_batch(self._xy[missing], radius, op="anchor_freqs")
            )
            self._anchor_rows[float(radius)] = store
        block = store.take(indices)
        block.flags.writeable = False
        return block

    def freq_bounds(
        self,
        radius: float,
        indices: "Sequence[int] | np.ndarray | None" = None,
        side: str = "upper",
    ) -> np.ndarray:
        """Sound elementwise bounds on ``Freq(p_i, radius)`` per POI.

        With ``side="upper"``, the exact type histogram of every POI in the
        grid cells a radius query at ``p_i`` would scan — a superset of the
        disk, so every entry is ``>=`` the true ``Freq`` entry.  With
        ``side="lower"``, the histogram of the cells certainly inside the
        disk (the inscribed cell box), so every entry is ``<=`` the truth.

        Both come from radius-independent 2-D prefix sums of per-cell type
        histograms — four ``(n, M)`` gathers, no distance filtering — and
        are computed afresh on each call, for the rows of *indices* or, by
        default, for every POI.  The attacks sandwich candidate anchors
        between the two: a vector the upper bound fails to dominate cannot
        survive exact pruning, one the lower bound already dominates
        certainly does, and only the band in between pays for exact anchor
        rows.  The returned block is read-only.
        """
        if side not in ("upper", "lower"):
            raise DatasetError(f"side must be 'upper' or 'lower', got {side!r}")
        xy = self._xy if indices is None else self._xy[indices]
        block = self._bound_rows(xy, radius, side)
        block.flags.writeable = False
        return block

    def _bound_rows(self, xy: np.ndarray, radius: float, side: str) -> np.ndarray:
        """Evaluate one side of the Freq bounds at the given coordinates."""
        pref = self.cell_prefix_sums()
        if side == "upper":
            cx0, cx1, cy0, cy1 = self._index.cell_ranges(xy, radius)
        else:
            cx0, cx1, cy0, cy1 = self._index.interior_cell_ranges(xy, radius)
        ok = (cx1 >= cx0) & (cy1 >= cy0)
        cx0 = np.where(ok, cx0, 0)
        cx1 = np.where(ok, cx1, -1)
        cy0 = np.where(ok, cy0, 0)
        cy1 = np.where(ok, cy1, -1)
        # One gather, then in-place arithmetic: a single (n, M) temporary
        # at a time.
        rows = pref[cx1 + 1, cy1 + 1]
        rows -= pref[cx0, cy1 + 1]
        rows -= pref[cx1 + 1, cy0]
        rows += pref[cx0, cy0]
        rows[~ok] = 0
        return rows

    def cell_prefix_sums(self) -> np.ndarray:
        """The zero-padded 2-D prefix sums of per-cell type histograms.

        Shape ``(nx + 1, ny + 1, M)`` int32: entry ``[i, j]`` sums the
        histograms of all cells ``(< i, < j)``.  Depends only on the static
        POI set (like the grid index itself), so it is built once and
        survives :meth:`clear_cache`.  Backs both :meth:`freq_bounds` and
        the engine's pyramid tier.
        """
        pref = self._cell_prefix
        if pref is None:
            nx, ny = self._index.grid_shape
            m = self.n_types
            cx, cy = self._index.cells_of(self._xy)
            hist = np.bincount(
                (cx * ny + cy) * m + self._types, minlength=nx * ny * m
            ).reshape(nx, ny, m)
            np.cumsum(hist, axis=0, out=hist)
            np.cumsum(hist, axis=1, out=hist)
            # Counts are bounded by the POI total, so int32 suffices and
            # halves the gather traffic of every bound evaluation.
            pref = np.zeros((nx + 1, ny + 1, m), dtype=np.int32)
            pref[1:, 1:] = hist
            self._cell_prefix = pref
        return pref

    def freq_at_poi(self, poi_index: int, radius: float) -> np.ndarray:
        """``Freq`` evaluated at a POI's own location.

        A read-only view of the POI's row in the store behind
        :meth:`anchor_freqs`; a missing row is filled on demand, so batched
        callers should fill theirs with :meth:`anchor_freqs` first.  Rows
        never change once written, so the view keeps its values whatever
        the store does later, but it shares no memory with the blocks
        :meth:`anchor_freqs` returns.
        """
        store = self._anchor_store(radius)
        i = int(poi_index)
        if store.slot[i] < 0:
            store.add(np.array([i]), self.freq(self.location_of(i), radius)[None, :])
            self._anchor_rows[float(radius)] = store
        row = store.row(i)
        row.flags.writeable = False
        return row

    def clear_cache(self) -> None:
        """Drop every memoised anchor row, at every radius.

        The radius-independent cell prefix sums are structural (a fixed
        function of the POI set, like the grid index) and are kept.
        """
        self._anchor_rows.clear()

    def _anchor_store(self, radius: float) -> _AnchorRows:
        """The row store of *radius*.

        A new store is registered by its first fill, so a radius the engine
        rejects leaves none behind.
        """
        store = self._anchor_rows.get(float(radius))
        return _AnchorRows(len(self._xy), self.n_types) if store is None else store

    @staticmethod
    def _as_coords(xy: "Sequence[Point] | np.ndarray") -> np.ndarray:
        """Coerce an ``(n, 2)`` array or a sequence of Points to coordinates."""
        if isinstance(xy, np.ndarray):
            coords = np.asarray(xy, dtype=float)
        else:
            pts = list(xy)
            if pts and isinstance(pts[0], Point):
                coords = np.array([[p.x, p.y] for p in pts], dtype=float)
            else:
                coords = np.asarray(pts, dtype=float)
        if coords.size == 0:
            return coords.reshape(0, 2)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise DatasetError(f"expected (n, 2) coordinates, got shape {coords.shape}")
        return coords

    # ------------------------------------------------------------------
    # City-level aggregates used by attacks and defenses
    # ------------------------------------------------------------------

    @property
    def city_frequency(self) -> np.ndarray:
        """Overall POI frequency ``F`` over the whole city (read-only)."""
        view = self._city_freq.view()
        view.flags.writeable = False
        return view

    @property
    def infrequent_ranks(self) -> np.ndarray:
        """Infrequent rank ``R(i)`` per type: the rarest type ranks 1."""
        view = self._ranks.view()
        view.flags.writeable = False
        return view

    def pois_of_type(self, type_id: int) -> np.ndarray:
        """Read-only view of the indices of every POI with the given type."""
        if not 0 <= type_id < self.n_types:
            raise DatasetError(f"type id {type_id} out of range [0, {self.n_types})")
        view = self._by_type[type_id].view()
        view.flags.writeable = False
        return view

    def rarest_present_type(self, freq_vector: np.ndarray) -> int | None:
        """The city-rarest type with a non-zero entry in *freq_vector*.

        This is steps 1–2 of Cao et al.'s attack: sort the reported vector
        by the city-wide frequency ``F`` and take the most infrequent type
        ``t_l`` with ``n_l > 0``.  Returns ``None`` when the vector is all
        zeros (nothing to anchor on).
        """
        freq_vector = np.asarray(freq_vector)
        if freq_vector.shape != (self.n_types,):
            raise DatasetError(
                f"frequency vector has shape {freq_vector.shape}, expected ({self.n_types},)"
            )
        present = np.flatnonzero(freq_vector > 0)
        if len(present) == 0:
            return None
        return int(present[np.argmin(self._ranks[present])])


class _AnchorRows:
    """The ``Freq(p, r)`` rows computed so far at one radius.

    ``slot[p]`` is POI ``p``'s row in ``rows`` (``-1`` while unfilled).  The
    filled rows sit densely at the front of ``rows``, which doubles when it
    runs out of room; a row is written once and never changes, so a view
    taken before a growth keeps reading the same values afterwards.
    """

    __slots__ = ("slot", "rows", "n")

    def __init__(self, n_pois: int, n_types: int) -> None:
        self.slot = np.full(n_pois, -1, dtype=np.intp)
        # Counts are bounded by the POI total, so int32 rows halve the fill
        # and gather traffic.
        self.rows = np.empty((0, n_types), dtype=np.int32)
        self.n = 0

    def missing(self, indices: np.ndarray) -> np.ndarray:
        """The distinct POIs among *indices* whose row is not filled yet."""
        return np.unique(indices[self.slot[indices] < 0])

    def add(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Fill the rows of the distinct, unfilled POIs *indices*."""
        n, k = self.n, len(indices)
        if n + k > len(self.rows):
            grown = np.empty((max(n + k, 2 * len(self.rows)), self.rows.shape[1]), np.int32)
            grown[:n] = self.rows[:n]
            self.rows = grown
        self.rows[n : n + k] = values
        self.slot[indices] = np.arange(n, n + k)
        self.n = n + k

    def take(self, indices: np.ndarray) -> np.ndarray:
        """A fresh ``(len(indices), M)`` gather of filled rows."""
        return self.rows[self.slot[indices]]

    def row(self, index: int) -> np.ndarray:
        """A view of one filled row."""
        return self.rows[self.slot[index]]
