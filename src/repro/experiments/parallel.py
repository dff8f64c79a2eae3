"""Sharded (multi-process) execution of experiment runners.

Paper-scale sweeps multiply four datasets by four radii by parameter
grids; the runners are embarrassingly parallel across their dataset/city
axis.  :func:`run_sharded` splits one experiment along such an axis, runs
each shard in its own process under
:func:`~repro.experiments.supervisor.supervise_shards`, and merges the row
lists.

Because every runner derives its randomness from ``(seed, labels)`` — not
from a sequentially consumed stream — a sharded run produces *bit-identical*
rows to the serial run, which the test suite asserts.  Only the shard value
and the experiment config cross the process boundary: a worker gets its
city from the same lru-cached builders (:mod:`repro.poi.cities`) the serial
path uses, so it inherits, under the ``fork`` start method, any city the
parent already built, and otherwise builds it from the seed (tens of
milliseconds for the paper's presets).

Within each shard the runners use the vectorized batch engine
(:meth:`~repro.poi.database.POIDatabase.freq_batch` plus
:meth:`~repro.attacks.region.RegionAttack.run_batch`), so sharding
composes with batching: processes split the coarse dataset/city axis
while numpy handles the per-target fan-out inside each process.

Every shard attempt runs in a fresh process.  The
:class:`~repro.experiments.supervisor.ShardPolicy` adds what a run asks
for: per-attempt wall-clock timeouts with hung-worker replacement,
bounded retries, a serial fallback for crash-looping shards, and (with an
output directory) atomic per-shard checkpoints with shard-level resume
and a JSONL journal.  The default policy gives each shard one attempt,
with no timeout and no fallback.  A failing shard does not cancel its
siblings: the sweep runs to completion, then a
:class:`~repro.core.errors.ShardError` names the first failed shard and
carries every shard's :class:`~repro.experiments.supervisor.ShardReport`.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.core.errors import ConfigError, ShardError
from repro.experiments.registry import get_experiment
from repro.experiments.results import ExperimentResult
from repro.experiments.scale import ExperimentScale
from repro.experiments.supervisor import ShardPolicy, WorkerFaultPlan, supervise_shards

if TYPE_CHECKING:
    from pathlib import Path

__all__ = [
    "run_sharded",
    "resolve_max_workers",
    "ShardAxis",
    "SHARD_SPECS",
    "SHARD_AXES",
    "DEFAULT_SHARDS",
]

#: Default shard values per axis (the full evaluation menus).
DEFAULT_SHARDS: dict[str, tuple] = {
    "datasets": ("bj_tdrive", "bj_random", "nyc_foursquare", "nyc_random"),
    "city_names": ("beijing", "nyc"),
}


@dataclass(frozen=True)
class ShardAxis:
    """How one experiment shards: the kwarg it splits on and its menu."""

    param: str
    shards: tuple


#: The shard axis *and* default shard menu per experiment — the single
#: source of truth for what ``run_sharded`` does without explicit shards.
#: fig9_10/fig11_12 evaluate the two real-trace datasets only (the paper
#: runs the ML recovery and DP sweeps on T-drive and Foursquare).
SHARD_SPECS: dict[str, ShardAxis] = {
    "fig2": ShardAxis("city_names", DEFAULT_SHARDS["city_names"]),
    "fig3": ShardAxis("city_names", DEFAULT_SHARDS["city_names"]),
    "fig4": ShardAxis("datasets", DEFAULT_SHARDS["datasets"]),
    "fig5": ShardAxis("datasets", DEFAULT_SHARDS["datasets"]),
    "fig6": ShardAxis("datasets", DEFAULT_SHARDS["datasets"]),
    "fig7": ShardAxis("datasets", DEFAULT_SHARDS["datasets"]),
    "fig9_10": ShardAxis("datasets", ("bj_tdrive", "nyc_foursquare")),
    "fig11_12": ShardAxis("datasets", ("bj_tdrive", "nyc_foursquare")),
    "uniqueness": ShardAxis("city_names", DEFAULT_SHARDS["city_names"]),
}

#: Back-compat view: the natural shard axis per experiment.
SHARD_AXES: dict[str, str] = {k: v.param for k, v in SHARD_SPECS.items()}


def resolve_max_workers(max_workers: "int | None", n_shards: int) -> int:
    """The documented worker-count default: ``min(n_shards, os.cpu_count())``."""
    if max_workers is not None:
        if max_workers < 1:
            raise ConfigError(f"max_workers must be at least 1, got {max_workers}")
        return max_workers
    return max(1, min(n_shards, os.cpu_count() or 1))


def _merge(partials: list[dict], shards: Sequence[object], shard_param: str) -> ExperimentResult:
    merged = ExperimentResult(**partials[0])
    merged.config[shard_param] = list(shards)
    for part in partials[1:]:
        merged.rows.extend(part["rows"])
    return merged


def run_sharded(
    experiment_id: str,
    scale: ExperimentScale,
    shards: "Sequence[object] | None" = None,
    shard_param: "str | None" = None,
    max_workers: "int | None" = None,
    *,
    timeout_s: "float | None" = None,
    retries: int = 0,
    serial_fallback: bool = False,
    out: "Path | str | None" = None,
    resume: bool = False,
    policy: "ShardPolicy | None" = None,
    fault_plan: "WorkerFaultPlan | None" = None,
    **kwargs: object,
) -> ExperimentResult:
    """Run *experiment_id* split along its shard axis across processes.

    Parameters
    ----------
    shards:
        The shard values (e.g. dataset names); ``None`` uses the
        experiment's default menu from :data:`SHARD_SPECS` (which encodes
        that fig9_10/fig11_12 evaluate two datasets only).
    shard_param:
        The runner kwarg the shards feed; defaults per
        :data:`SHARD_SPECS`.
    max_workers:
        Most shards in flight at once; defaults to
        ``min(len(shards), os.cpu_count())``.
    timeout_s / retries / serial_fallback:
        Supervision knobs (see :class:`~repro.experiments.supervisor.ShardPolicy`):
        per-attempt wall-clock timeout, extra attempts per shard on fresh
        workers, and re-running a crash-looping shard in this process.
    out / resume:
        Output directory for per-shard checkpoints and the JSONL journal
        (``<out>/.checkpoints/``); ``resume=True`` re-runs only shards
        without a matching checkpoint, bit-identical to an uninterrupted
        run.
    policy / fault_plan:
        Full :class:`~repro.experiments.supervisor.ShardPolicy` override
        (it replaces the three knobs above) and the chaos-testing
        :class:`~repro.experiments.supervisor.WorkerFaultPlan`.

    A terminal shard failure raises :class:`~repro.core.errors.ShardError`
    once every other shard has run; the exception carries every shard's
    report, and the completed shards' checkpoints survive for ``resume``.
    """
    if shard_param is None:
        spec = SHARD_SPECS.get(experiment_id)
        if spec is None:
            raise ConfigError(
                f"experiment {experiment_id!r} has no default shard axis; "
                f"pass shard_param explicitly"
            )
        shard_param = spec.param
    if shards is None:
        spec = SHARD_SPECS.get(experiment_id)
        if spec is not None and spec.param == shard_param:
            shards = spec.shards
        else:
            shards = DEFAULT_SHARDS.get(shard_param)
    if not shards:
        raise ConfigError("run_sharded needs a non-empty list of shard values")
    get_experiment(experiment_id)  # validate the id before spawning workers

    shards = tuple(shards)
    max_workers = resolve_max_workers(max_workers, len(shards))
    if policy is None:
        policy = ShardPolicy(
            timeout_s=timeout_s, retries=retries, serial_fallback=serial_fallback
        )
    partials, reports = supervise_shards(
        experiment_id,
        scale,
        shards,
        shard_param,
        kwargs,
        max_workers=max_workers,
        policy=policy,
        out=out,
        resume=resume,
        fault_plan=fault_plan,
    )
    failed = [r for r in reports if not r.ok]
    if failed:
        worst = failed[0]
        raise ShardError(
            f"{len(failed)}/{len(reports)} shards of {experiment_id!r} failed "
            f"terminally; first: {shard_param}={worst.shard!r} "
            f"[{worst.status} after {worst.attempts} attempt(s)]: {worst.error}",
            shard=worst.shard,
            reports=reports,
        )
    merged = _merge(partials, shards, shard_param)
    merged.provenance["sharding"] = {
        "shard_param": shard_param,
        "max_workers": max_workers,
        "policy": asdict(policy),
        "shards": [asdict(r) for r in reports],
    }
    return merged
