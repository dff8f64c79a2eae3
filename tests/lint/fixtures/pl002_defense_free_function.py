"""PL002 positive case *inside* defense/: a free-function mechanism call.

Mechanism invocations in repro.defense must live inside Defense classes,
the release path the serve ledger's PrivacyAccountant meters;
a module-level helper bypasses that structure.
"""

import numpy as np

from repro.dp.mechanisms import laplace_mechanism


def helper_outside_any_class(freq: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return laplace_mechanism(freq, 1.0, 0.5, rng)  # PL002
