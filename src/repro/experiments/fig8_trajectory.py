"""Figure 8 — exploiting two successive queries (trajectory uniqueness).

T-drive trajectories in Beijing; release pairs with changed frequency
vectors and gaps of at most 10 minutes.  The distance regressor is trained
on a disjoint set of at most ``n_train`` pairs (its dense Gram grows with
the square of that number), then the enhanced attack filters candidate
pairs by predicted displacement.  Paper gains over the single-release
attack: +0.203, +0.146, +0.09, +0.001 at r = 0.5/1/2/4 km — large when the
single attack is ambiguous, vanishing once r alone suffices.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.attacks.trajectory import DistanceRegressor, PairRelease, TrajectoryAttack
from repro.core.rng import derive_rng
from repro.datasets.tdrive import TaxiFleetConfig, synthesize_taxi_trajectories
from repro.datasets.trajectory import extract_release_pairs
from repro.experiments.common import RADII_M
from repro.experiments.results import ExperimentResult
from repro.experiments.scale import SCALES, ExperimentScale
from repro.poi.cities import beijing

__all__ = ["run_fig8"]

_MAX_GAP_S = 600.0


def run_fig8(
    scale: ExperimentScale = SCALES["ci"],
    radii: Sequence[float] = RADII_M,
    band_quantile: float = 0.75,
) -> ExperimentResult:
    """Evaluate the two-release attack against single-release at each r."""
    result = ExperimentResult(
        experiment_id="fig8",
        title="Exploiting the power of two successive queries",
        config={
            "scale": scale.name,
            "n_taxis": scale.n_taxis,
            "n_train": scale.n_train,
            "max_gap_s": _MAX_GAP_S,
            "band_quantile": band_quantile,
        },
        notes=(
            "Paper reference gains: +0.203/+0.146/+0.09/+0.001 at r=0.5/1/2/4km."
        ),
    )
    city = beijing(scale.seed)
    db = city.database
    fleet = TaxiFleetConfig(n_taxis=scale.n_taxis)
    trajectories = synthesize_taxi_trajectories(
        db, fleet, derive_rng(scale.seed, "fig8-fleet")
    )
    pairs = extract_release_pairs(trajectories, max_gap_s=_MAX_GAP_S)

    for radius in radii:
        interior = city.interior(radius)
        inside = [
            pair
            for pair in pairs
            if interior.contains(pair.first.location)
            and interior.contains(pair.second.location)
        ]
        firsts = db.freq_batch([p.first.location for p in inside], radius)
        seconds = db.freq_batch([p.second.location for p in inside], radius)
        usable: list[tuple] = [
            (pair, f1, f2)
            for pair, f1, f2 in zip(inside, firsts, seconds)
            # the paper drops unchanged releases (useless to both sides)
            if not np.array_equal(f1, f2)
        ]

        if len(usable) < 40:
            result.add_row(r_km=radius / 1000.0, n_pairs=len(usable))
            continue

        split = len(usable) // 2
        train, test = usable[:split][: scale.n_train], usable[split:]
        test = test[: scale.n_targets]
        releases = [
            PairRelease(f1, f2, p.first.timestamp, p.second.timestamp)
            for p, f1, f2 in train
        ]
        distances = np.array([p.distance for p, _, _ in train])
        regressor = DistanceRegressor().fit(
            releases, distances, band_quantile=band_quantile
        )

        attack = TrajectoryAttack(db, regressor)
        n_single = n_enhanced = n_gain = 0
        for pair, f1, f2 in test:
            outcome = attack.run(
                PairRelease(f1, f2, pair.first.timestamp, pair.second.timestamp),
                radius,
            )
            n_single += outcome.single.success
            n_enhanced += outcome.enhanced.success
            n_gain += outcome.gain
        n = len(test)
        result.add_row(
            r_km=radius / 1000.0,
            n_pairs=n,
            single_success=n_single / n,
            enhanced_success=n_enhanced / n,
            gain=(n_enhanced - n_single) / n,
            regressor_tolerance_m=regressor.tolerance_m,
        )
    return result
