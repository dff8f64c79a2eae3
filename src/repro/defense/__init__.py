"""Defense mechanisms: the three baselines plus the paper's contributions."""

from repro.defense.base import Defense, NoDefense
from repro.defense.budget import BudgetedDefense
from repro.defense.cloaking import AdaptiveIntervalCloak, CloakingDefense, UserPopulation
from repro.defense.dp_release import DPReleaseMechanism
from repro.defense.geo_ind import GeoIndDefense
from repro.defense.laplace_release import LaplaceHistogramDefense
from repro.defense.nonprivate import NonPrivateOptimizationDefense
from repro.defense.optimization import PerturbationPlan, optimize_release
from repro.defense.sanitization import Sanitizer
from repro.defense.utility import (
    jaccard_index,
    l1_error,
    normalized_utility,
    top_k_jaccard,
)

__all__ = [
    "Defense",
    "NoDefense",
    "Sanitizer",
    "GeoIndDefense",
    "UserPopulation",
    "AdaptiveIntervalCloak",
    "CloakingDefense",
    "optimize_release",
    "PerturbationPlan",
    "NonPrivateOptimizationDefense",
    "DPReleaseMechanism",
    "LaplaceHistogramDefense",
    "BudgetedDefense",
    "jaccard_index",
    "top_k_jaccard",
    "l1_error",
    "normalized_utility",
]
