"""poiagg — reproduction of "Practical Location Privacy Attacks and Defense
on Point-of-interest Aggregates" (Tong et al., ICDCS 2021).

The package is organised by layer:

* :mod:`repro.core` — errors, RNG discipline.
* :mod:`repro.geo` — planar geometry, spatial indexes, disk regions.
* :mod:`repro.poi` — POI databases (the geo-information provider), the
  synthetic Beijing/NYC cities.
* :mod:`repro.datasets` — target samplers: synthetic T-drive taxi traces,
  Foursquare-style check-ins, uniform random locations.
* :mod:`repro.ml` — from-scratch SVM family (libsvm-style SVC, kernel regression).
* :mod:`repro.dp` — Gaussian/Laplace mechanisms, planar Laplace, accounting.
* :mod:`repro.attacks` — region re-identification, the fine-grained attack,
  the trajectory-uniqueness attack, the anti-sanitization recovery attack.
* :mod:`repro.defense` — sanitization, geo-indistinguishability, spatial
  k-cloaking, the optimization-based release, and the DP release mechanism.
* :mod:`repro.experiments` — one runner per figure of the paper.

Quickstart (seed discipline included: generators derive from the
experiment seed via :mod:`repro.core.rng`, per lint rule PL001)::

    from repro.attacks import RegionAttack, Release
    from repro.core.rng import derive_rng
    from repro.poi import beijing

    city = beijing()
    db = city.database
    target = city.interior(2000.0).sample_point(derive_rng(1, "quickstart"))
    outcome = RegionAttack(db).run(Release(db.freq(target, 2000.0), 2000.0))
    print(outcome.success, outcome.region)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
