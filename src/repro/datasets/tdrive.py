"""Synthetic T-drive-style taxi trajectories (offline substitute, see DESIGN.md).

The real T-drive dataset (Yuan et al., 2010) holds one week of GPS traces
from 10,357 Beijing taxis.  The attacks consume only ``(location,
timestamp)`` sequences, and what distinguishes real traces from uniform
random locations — the paper's third takeaway — is that taxis concentrate
where the city is busy, i.e. where POIs cluster.  The synthesizer
reproduces exactly that:

* each taxi performs trips between *hotspots* — locations sampled near
  POIs, so trip endpoints are POI-density-biased like real taxi demand;
* motion between hotspots follows the straight segment at urban taxi
  speeds (5–15 m/s) with GPS-like jitter;
* samples are emitted at T-drive-like intervals (1–5 minutes);
* timestamps spread over one week, giving the hour/day features of the
  trajectory attack a realistic marginal distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import DatasetError
from repro.core.rng import RngLike, as_generator
from repro.datasets.trajectory import Trajectory, TrajectoryPoint
from repro.geo.point import Point
from repro.poi.database import POIDatabase

__all__ = ["TaxiFleetConfig", "synthesize_taxi_trajectories", "taxi_locations"]

_WEEK_S = 7 * 86400.0


@dataclass(frozen=True, slots=True)
class TaxiFleetConfig:
    """Parameters of the synthetic taxi fleet."""

    n_taxis: int = 200
    trips_per_taxi: int = 6
    sample_interval_min_s: float = 60.0
    sample_interval_max_s: float = 300.0
    speed_min_mps: float = 5.0
    speed_max_mps: float = 15.0
    hotspot_jitter_m: float = 300.0
    gps_noise_m: float = 15.0

    def __post_init__(self) -> None:
        if self.n_taxis <= 0 or self.trips_per_taxi <= 0:
            raise DatasetError("fleet needs positive n_taxis and trips_per_taxi")
        if not 0 < self.sample_interval_min_s <= self.sample_interval_max_s:
            raise DatasetError("invalid sample interval range")
        if not 0 < self.speed_min_mps <= self.speed_max_mps:
            raise DatasetError("invalid speed range")


def _sample_hotspots(db: POIDatabase, n: int, jitter_m: float, rng: np.random.Generator) -> np.ndarray:
    """Locations near uniformly chosen POIs — POI-density-biased demand."""
    idx = rng.integers(0, len(db), size=n)
    base = db.positions[idx]
    noise = rng.normal(0.0, jitter_m, size=(n, 2))
    pts = base + noise
    b = db.bounds
    pts[:, 0] = np.clip(pts[:, 0], b.min_x, b.max_x)
    pts[:, 1] = np.clip(pts[:, 1], b.min_y, b.max_y)
    return pts


def _walk_fleet(
    db: POIDatabase, config: TaxiFleetConfig, gen: np.random.Generator
) -> tuple[list[float], list[float], list[float], list[int]]:
    """Walk every taxi of the fleet in Python floats.

    Returns the samples as flat ``x``, ``y`` and ``t`` lists, and the
    ``n_taxis + 1`` offsets that delimit each taxi's run of samples.

    The output is pinned bit for bit, generator state included, so two
    things stay as they are: the leg length is ``np.hypot`` (``math.hypot``
    rounds differently in the last place), and each sample draws its own
    ``gen.normal(0.0, gps_noise_m, 2)`` between the scalar uniforms (the
    ziggurat sampler consumes a variable number of generator words, so
    normals cannot be drawn ahead).
    """
    random, normal = gen.random, gen.normal

    def uniform(lo: float, hi: float) -> float:
        # NumPy's scalar gen.uniform computes exactly this; calling it costs 3x more.
        return lo + (hi - lo) * random()

    xs: list[float] = []
    ys: list[float] = []
    ts: list[float] = []
    offsets: list[int] = []
    for _ in range(config.n_taxis):
        offsets.append(len(ts))
        stops = _sample_hotspots(db, config.trips_per_taxi + 1, config.hotspot_jitter_m, gen)
        (px, py), *legs = stops.tolist()
        t = uniform(0.0, _WEEK_S * 0.5)
        xs.append(px)
        ys.append(py)
        ts.append(t)
        for dx, dy in legs:
            speed = uniform(config.speed_min_mps, config.speed_max_mps)
            while True:
                step_s = uniform(config.sample_interval_min_s, config.sample_interval_max_s)
                lx, ly = dx - px, dy - py
                dist = float(np.hypot(lx, ly))
                travel = speed * step_s
                t += step_s
                arrived = travel >= dist
                if arrived:
                    px, py = dx, dy
                else:
                    px, py = px + lx / dist * travel, py + ly / dist * travel
                nx, ny = normal(0.0, config.gps_noise_m, 2).tolist()
                xs.append(px + nx)
                ys.append(py + ny)
                ts.append(t)
                if arrived:
                    break
            # Dwell at the stop (passenger exchange) before the next trip.
            t += uniform(60.0, 900.0)
    offsets.append(len(ts))
    return xs, ys, ts, offsets


def synthesize_taxi_trajectories(
    db: POIDatabase,
    config: TaxiFleetConfig = TaxiFleetConfig(),
    rng: RngLike = None,
) -> list[Trajectory]:
    """Generate one week of trajectories for the configured fleet."""
    xs, ys, ts, offsets = _walk_fleet(db, config, as_generator(rng))
    return [
        Trajectory(
            user_id=taxi,
            points=tuple(
                TrajectoryPoint(Point(x, y), t)
                for x, y, t in zip(xs[lo:hi], ys[lo:hi], ts[lo:hi])
            ),
        )
        for taxi, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
    ]


def taxi_locations(
    db: POIDatabase,
    n: int,
    config: TaxiFleetConfig = TaxiFleetConfig(),
    rng: RngLike = None,
) -> list[Point]:
    """Draw *n* single target locations from synthetic taxi traces.

    This is the paper's "Beijing: T-drive" target sampler: pick random
    trajectory points of the fleet.
    """
    if n < 0:
        raise DatasetError(f"n must be non-negative, got {n}")
    gen = as_generator(rng)
    xs, ys, ts, offsets = _walk_fleet(db, config, gen)
    # Trajectory's time-order invariant, checked without building the objects.
    for taxi, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        if any(b < a for a, b in zip(ts[lo:hi], ts[lo + 1 : hi])):
            raise DatasetError(f"trajectory {taxi} is not time-ordered")
    picks = gen.integers(0, len(xs), size=n)
    return [Point(xs[i], ys[i]) for i in picks.tolist()]
