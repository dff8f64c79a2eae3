"""Histogram kernels for the Freq query engine.

The engine reduces every Freq evaluation to "histogram the pool entries
that survive the exact disk filter".  :func:`band_histogram` is that
reduction: a NumPy kernel whose keep decisions are
:func:`repro.geo.grid_index._disk_keep`'s, so the engine stays
bit-identical to the scalar reference.  :func:`run_histogram` counts pool
entries that need no filter.
"""

from __future__ import annotations

import numpy as np

from repro.geo.grid_index import _disk_keep

__all__ = ["band_histogram", "run_histogram", "active_kernel"]


def active_kernel() -> str:
    """The band-filter kernel's name: always ``"numpy"``.

    Kept only because the end-to-end benchmark's worker records it in each
    result's environment; it goes with the benchmark's next refresh.
    """
    return "numpy"


def band_histogram(
    pos: np.ndarray,
    owners: np.ndarray,
    xord: np.ndarray,
    yord: np.ndarray,
    tord: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
    radius: float,
    nq: int,
    m: int,
) -> np.ndarray:
    """Histogram the pool entries within *radius* of their owning query.

    Parameters mirror the engine's pool layout: ``pos`` indexes the
    bucket-ordered arrays ``xord``/``yord``/``tord``, ``owners`` names each
    entry's query, and ``qx``/``qy`` are the per-query centers.  Returns an
    ``(nq, m)`` int64 matrix whose row ``i`` counts the kept entries of each
    type for query ``i`` — exactly what filtering with ``_disk_keep`` and
    ``np.bincount`` would produce.
    """
    dx = xord[pos]
    dx -= qx[owners]
    dy = yord[pos]
    dy -= qy[owners]
    keep = _disk_keep(dx, dy, radius)
    kept_owner = owners[keep].astype(np.int64)
    kept_type = tord[pos[keep]]
    flat = np.bincount(kept_owner * m + kept_type, minlength=nq * m)
    return flat.reshape(nq, m)


def run_histogram(
    pos: np.ndarray,
    owners: np.ndarray,
    tord: np.ndarray,
    nq: int,
    m: int,
) -> np.ndarray:
    """Histogram pool entries *without* any distance filter.

    Used by the pyramid tier for interior cells outside the per-query
    prefix rectangle: their members are certainly inside the disk, so they
    only need counting.  Returns ``(nq, m)`` int64.
    """
    flat = np.bincount(owners.astype(np.int64) * m + tord[pos], minlength=nq * m)
    return flat.reshape(nq, m)
