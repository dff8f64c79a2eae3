"""Dataset substrate: synthetic T-drive, Foursquare, and random targets."""

from repro.datasets.foursquare import CheckinConfig, checkin_locations, synthesize_checkins
from repro.datasets.random_locations import random_locations
from repro.datasets.targets import DATASET_NAMES, dataset_city, sample_targets
from repro.datasets.tdrive import (
    TaxiFleetConfig,
    synthesize_taxi_trajectories,
    taxi_locations,
)
from repro.datasets.trajectory import (
    ReleasePair,
    Trajectory,
    TrajectoryPoint,
    extract_release_pairs,
)
from repro.datasets.trajectory_io import load_trajectory_log, save_trajectory_log

__all__ = [
    "Trajectory",
    "TrajectoryPoint",
    "ReleasePair",
    "extract_release_pairs",
    "save_trajectory_log",
    "load_trajectory_log",
    "TaxiFleetConfig",
    "synthesize_taxi_trajectories",
    "taxi_locations",
    "CheckinConfig",
    "synthesize_checkins",
    "checkin_locations",
    "random_locations",
    "DATASET_NAMES",
    "sample_targets",
    "dataset_city",
]
