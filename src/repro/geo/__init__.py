"""Geometry substrate: projection, distances, spatial indexes, disk regions."""

from repro.geo.bbox import BBox
from repro.geo.disk import Disk, covers, lens_area
from repro.geo.distance import haversine, l1_distance
from repro.geo.grid_index import GridIndex
from repro.geo.point import EARTH_RADIUS_M, GeoPoint, Point
from repro.geo.projection import LocalProjection
from repro.geo.region import DiskIntersection

__all__ = [
    "Point",
    "GeoPoint",
    "EARTH_RADIUS_M",
    "LocalProjection",
    "BBox",
    "Disk",
    "covers",
    "lens_area",
    "DiskIntersection",
    "GridIndex",
    "haversine",
    "l1_distance",
]
