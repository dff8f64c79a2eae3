"""Figure 2 — accuracy of the sanitization-recovery prediction models.

The paper trains one RBF-SVC per sanitized type on 10,000 random locations
(2,000 validation) and reports mean validation accuracy above 0.95 for both
cities at every query range (exact means 0.990–0.998).  This runner
reproduces the per-(city, radius) mean and standard deviation.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.attacks.recovery import SanitizationRecoveryAttack
from repro.core.rng import derive_rng
from repro.defense.sanitization import Sanitizer
from repro.experiments.common import RADII_M
from repro.experiments.results import ExperimentResult
from repro.experiments.scale import SCALES, ExperimentScale
from repro.poi.cities import CITY_BUILDERS

__all__ = ["run_fig2", "auto_max_types"]

#: Number of recovery models trained per (city, radius) at reduced scales.
#: The paper trains one model per sanitized type; the reduced presets train
#: the N city-rarest sanitized types — the ones the region attack anchors
#: on — to bound the number of SVC fits per pass.
_AUTO_MAX_TYPES = {"ci": 20, "quick": 40}


def auto_max_types(scale: ExperimentScale, requested: "int | None") -> "int | None":
    """Resolve the per-scale default for the number of recovery models."""
    if requested is not None:
        return requested
    return _AUTO_MAX_TYPES.get(scale.name)


def run_fig2(
    scale: ExperimentScale = SCALES["ci"],
    radii: Sequence[float] = RADII_M,
    city_names: Sequence[str] = ("beijing", "nyc"),
    sanitize_threshold: int = 10,
    max_types: "int | None" = None,
    recovery_model: str = "svc",
) -> ExperimentResult:
    """Train the recovery models and report validation accuracies.

    ``max_types`` optionally trains only the first N sanitized types (in
    rarity order) to bound CI runtime; the paper trains all of them, which
    the ``paper`` scale restores with ``max_types=None``.
    """
    max_types = auto_max_types(scale, max_types)
    result = ExperimentResult(
        experiment_id="fig2",
        title="Accuracy of sanitization-recovery prediction models",
        config={
            "scale": scale.name,
            "n_train": scale.n_train,
            "n_validation": scale.n_validation,
            "threshold": sanitize_threshold,
            "max_types": max_types,
            "model": recovery_model,
        },
        notes=(
            "Paper reference: mean accuracies 0.990-0.998 for both cities at "
            "r in {0.5, 1, 2, 4} km (Fig. 2)."
        ),
    )
    for city_name in city_names:
        city = CITY_BUILDERS[city_name](scale.seed)
        sanitizer = Sanitizer(city.database, threshold=sanitize_threshold)
        for radius in radii:
            attack = SanitizationRecoveryAttack(
                city.database, sanitizer, limit_types=max_types, model=recovery_model
            )
            report = attack.fit(
                radius=radius,
                n_train=scale.n_train,
                n_validation=scale.n_validation,
                rng=derive_rng(scale.seed, "fig2", city_name, radius),
                bounds=city.interior(radius),
            )
            result.add_row(
                city=city_name,
                r_km=radius / 1000.0,
                n_models=len(report.type_ids),
                mean_accuracy=report.mean_accuracy,
                std_accuracy=report.std_accuracy,
            )
    return result
