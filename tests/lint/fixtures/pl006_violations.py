"""PL006 positive cases: the deprecated positional attack shim."""

import numpy as np

from repro.attacks import FineGrainedAttack
from repro.attacks.region import RegionAttack


def chained_positional(db, freq: np.ndarray, radius: float):
    return RegionAttack(db).run(freq, radius)  # PL006


def variable_positional(db, freq: np.ndarray, radius: float):
    attack = FineGrainedAttack(db, max_aux=20)
    return attack.run(freq, radius)  # PL006


def radius_keyword_is_still_the_shim(db, freq: np.ndarray, radius: float):
    attack = RegionAttack(db)
    return attack.run(freq, radius=radius)  # PL006


def loop_over_a_dict_of_attacks(db, freq: np.ndarray, radius: float):
    variants = {
        "paper": FineGrainedAttack(db, max_aux=20),
        "sound": FineGrainedAttack(db, max_aux=20, sound_only=True),
    }
    for name, attack in variants.items():
        attack.run(freq, radius)  # PL006
