"""Ablation bench: anchor-harvesting variants of the fine-grained attack.

DESIGN.md calls out the soundness/precision tradeoff of Algorithm 1's
domination-check anchors.  This bench compares three harvesting policies
at r = 2 km on Beijing random targets:

* ``paper``      — Algorithm 1 as published (may admit false anchors);
* ``consistent`` — extension: anchors must be mutually within 2r;
* ``sound``      — extension: zero-difference anchors only (provably true).

Expected shape: the paper variant yields the smallest areas but can lose
the target; the sound variant always contains the target at the cost of a
larger area.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.attacks.base import Release
from repro.attacks.fine_grained import FineGrainedAttack
from repro.core.rng import derive_rng
from repro.experiments.results import ExperimentResult
from repro.poi.cities import beijing


def _evaluate(bench_scale):
    city = beijing(bench_scale.seed)
    db = city.database
    radius = 2_000.0
    rng = derive_rng(bench_scale.seed, "ablation-anchors")
    box = city.interior(radius)
    targets = [box.sample_point(rng) for _ in range(bench_scale.n_targets)]

    variants = {
        "paper": FineGrainedAttack(db, max_aux=20),
        "consistent": FineGrainedAttack(db, max_aux=20, consistent_anchors=True),
        "sound": FineGrainedAttack(db, max_aux=20, sound_only=True),
    }
    result = ExperimentResult(
        experiment_id="ablation_anchors",
        title="Anchor harvesting variants (r = 2 km, Beijing random)",
        config={"n_targets": len(targets), "max_aux": 20},
    )
    for name, attack in variants.items():
        areas, contains, n_success = [], 0, 0
        mc_rng = derive_rng(bench_scale.seed, "ablation-mc", name)
        for target in targets:
            outcome = attack.run(Release(db.freq(target, radius), radius))
            if not outcome.success:
                continue
            n_success += 1
            areas.append(
                outcome.search_area_m2(n_samples=bench_scale.n_area_samples, rng=mc_rng) / 1e6
            )
            contains += outcome.contains(target)
        result.add_row(
            variant=name,
            n_success=n_success,
            mean_area_km2=float(np.mean(areas)) if areas else float("nan"),
            contains_rate=contains / n_success if n_success else float("nan"),
        )
    return result


def test_bench_ablation_anchors(benchmark, bench_scale):
    result = run_once(benchmark, lambda: _evaluate(bench_scale))
    print()
    print(result.render())

    rows = {row["variant"]: row for row in result.rows}
    # Sound anchors are guaranteed: the region always contains the target.
    assert rows["sound"]["contains_rate"] == 1.0
    # The price of soundness is a larger search area.
    assert rows["sound"]["mean_area_km2"] >= rows["paper"]["mean_area_km2"]
    # The consistency filter never lowers containment below the paper policy.
    assert rows["consistent"]["contains_rate"] >= rows["paper"]["contains_rate"] - 0.05
