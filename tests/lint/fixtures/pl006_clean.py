"""PL006 negative cases: the unified Release API, and non-shim `.run`s."""

import numpy as np

from repro.attacks import FineGrainedAttack, Release
from repro.attacks.region import RegionAttack


def unified_api(db, freq: np.ndarray, radius: float):
    return RegionAttack(db).run(Release(freq, radius))


def batch_api(db, releases: list[Release]):
    return RegionAttack(db).run_batch(releases)


def two_arg_run_on_an_unrelated_class(runner, release, radius: float):
    # TrajectoryAttack.run(release, radius) is its real signature, not the
    # shim; untracked receivers must not be flagged.
    return runner.run(release, radius)


def loop_over_a_dict_of_attacks(db, freq: np.ndarray, radius: float):
    variants = {
        "paper": FineGrainedAttack(db, max_aux=20),
        "sound": FineGrainedAttack(db, max_aux=20, sound_only=True),
    }
    outcomes = {}
    for name, attack in variants.items():
        outcomes[name] = attack.run(Release(freq, radius))
    return outcomes
