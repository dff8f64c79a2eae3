"""Sharded (multi-process) execution of experiment runners.

Paper-scale sweeps multiply four datasets by four radii by parameter
grids; the runners are embarrassingly parallel across their dataset/city
axis.  :func:`run_sharded` splits one experiment along such an axis, runs
each shard in its own process, and merges the row lists.

Because every runner derives its randomness from ``(seed, labels)`` — not
from a sequentially consumed stream — a sharded run produces *bit-identical*
rows to the serial run, which the test suite asserts.  The cities the
shards evaluate are built once in the parent and published through
:mod:`repro.poi.shared`: workers receive a few-hundred-byte
:class:`~repro.poi.shared.SharedCityHandle` in their initializer and
attach the POI arrays and CSR grid pool zero-copy, so nothing heavyweight
crosses process boundaries — not the city, and (since the task payload is
hoisted into the initializer) not the experiment config either.  Shard
axes the parent cannot map to cities simply skip sharing and workers
regenerate from the seed as before.

Within each shard the runners use the vectorized batch engine
(:meth:`~repro.poi.database.POIDatabase.freq_batch` plus
:meth:`~repro.attacks.region.RegionAttack.run_batch`), so sharding
composes with batching: processes split the coarse dataset/city axis
while numpy handles the per-target fan-out inside each process.

Two execution modes share the merge logic:

* the **plain pool** (default) — a ``ProcessPoolExecutor`` that fails
  fast: the first shard failure cancels the outstanding shards and is
  re-raised as a :class:`~repro.core.errors.ShardError` naming the shard;
* the **supervised** mode (:mod:`repro.experiments.supervisor`) — used
  whenever a timeout, retry budget, serial fallback, checkpoint
  directory, resume, or fault plan is requested.  It adds per-shard
  wall-clock timeouts with hung-worker replacement, bounded retries on
  fresh workers, crash isolation, atomic per-shard checkpoints with
  shard-level resume, and a JSONL heartbeat journal; per-shard
  :class:`~repro.experiments.supervisor.ShardReport` records land in the
  merged result's ``provenance``.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.core.errors import ConfigError, ShardError
from repro.experiments.registry import get_experiment
from repro.experiments.results import ExperimentResult
from repro.experiments.scale import ExperimentScale
from repro.experiments.supervisor import ShardPolicy, WorkerFaultPlan, supervise_shards
from repro.poi.shared import SharedCityHandle, attach_and_install, share_cities

if TYPE_CHECKING:
    from pathlib import Path

    from repro.poi.cities import City

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
    """The documented pool-size default: ``min(n_shards, os.cpu_count())``."""
    if max_workers is not None:
        if max_workers < 1:
            raise ConfigError(f"max_workers must be at least 1, got {max_workers}")
        return max_workers
    return max(1, min(n_shards, os.cpu_count() or 1))


# The experiment/scale/kwargs payload is identical for every task a worker
# runs, so it is shipped once per *worker* (pool initializer) rather than
# once per *task*; submits carry only the shard value.
_WORKER_TASK: "tuple[str, dict, str, dict] | None" = None


def _init_worker(
    experiment_id: str,
    scale_fields: dict,
    shard_param: str,
    kwargs: dict,
    city_handles: tuple[SharedCityHandle, ...],
) -> None:
    """Pool-worker initializer: attach shared cities, pin the task payload."""
    global _WORKER_TASK
    if city_handles:
        attach_and_install(city_handles)
    _WORKER_TASK = (experiment_id, scale_fields, shard_param, kwargs)


def _run_shard(shard_value: object) -> dict:
    """Worker entry point: run one shard and return the result as a dict."""
    if _WORKER_TASK is None:
        raise ConfigError("worker used before its initializer ran")
    experiment_id, scale_fields, shard_param, kwargs = _WORKER_TASK
    scale = ExperimentScale(**scale_fields)
    runner = get_experiment(experiment_id)
    result = runner(scale=scale, **{shard_param: (shard_value,)}, **kwargs)
    return asdict(result)


def _run_pool(
    experiment_id: str,
    scale: ExperimentScale,
    shards: Sequence[object],
    shard_param: str,
    max_workers: int,
    kwargs: dict,
    city_handles: tuple[SharedCityHandle, ...],
) -> list[dict]:
    """Plain pool: fail fast, cancel the rest, name the failing shard."""
    scale_fields = asdict(scale)
    with ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_init_worker,
        initargs=(experiment_id, scale_fields, shard_param, kwargs, city_handles),
    ) as pool:
        futures = {pool.submit(_run_shard, v): v for v in shards}
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        for future in done:
            exc = future.exception()
            if exc is not None:
                for other in futures:
                    other.cancel()
                raise ShardError(
                    f"shard {shard_param}={futures[future]!r} of {experiment_id!r} "
                    f"failed: {type(exc).__name__}: {exc}",
                    shard=futures[future],
                ) from exc
        return [future.result() for future in futures]  # dict order == shard order


def _cities_for_shards(
    shard_param: str, shards: Sequence[object], seed: int
) -> "list[City]":
    """The cities the shard values will evaluate, deduplicated.

    Only the two standard axes are mappable; a custom axis returns an
    empty list and the run proceeds without shared memory (workers
    regenerate cities from the seed, as before).
    """
    from repro.datasets.targets import dataset_city
    from repro.poi.cities import CITY_BUILDERS

    cities: "list[City]" = []
    try:
        if shard_param == "city_names":
            cities = [CITY_BUILDERS[str(v)](seed) for v in shards]
        elif shard_param == "datasets":
            cities = [dataset_city(str(v), seed) for v in shards]
    except Exception:
        return []  # unknown name: let the worker raise the precise error
    unique: "dict[tuple[str, int], City]" = {}
    for city in cities:
        unique.setdefault((city.name, city.seed), city)
    return list(unique.values())


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
    supervised: "bool | None" = None,
    policy: "ShardPolicy | None" = None,
    fault_plan: "WorkerFaultPlan | None" = None,
    share_memory: bool = True,
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
        Process pool size; defaults to ``min(len(shards), os.cpu_count())``.
    timeout_s / retries / serial_fallback:
        Supervision knobs (see :class:`~repro.experiments.supervisor.ShardPolicy`):
        per-attempt wall-clock timeout, extra attempts per shard on fresh
        workers, and re-running a crash-looping shard in this process.
    out / resume:
        Output directory for per-shard checkpoints and the JSONL journal
        (``<out>/.checkpoints/``); ``resume=True`` re-runs only shards
        without a matching checkpoint, bit-identical to an uninterrupted
        run.
    supervised:
        Force (``True``) or forbid (``False``) the supervised engine;
        ``None`` picks it automatically when any supervision option is
        used.
    policy / fault_plan:
        Full :class:`~repro.experiments.supervisor.ShardPolicy` override
        and the chaos-testing
        :class:`~repro.experiments.supervisor.WorkerFaultPlan`.
    share_memory:
        Build the shards' cities once in the parent and let workers
        attach them zero-copy via :mod:`repro.poi.shared` (default).
        ``False`` — or a shard axis the parent cannot map to cities —
        makes every worker regenerate its city from the seed instead.
        Either way the rows are bit-identical; the segments are unlinked
        when the run returns.

    A terminal shard failure raises :class:`~repro.core.errors.ShardError`;
    in supervised mode the exception carries every shard's report and the
    completed shards' checkpoints survive for ``resume``.
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
    if supervised is None:
        supervised = any(
            (timeout_s is not None, retries, serial_fallback, out is not None,
             resume, policy is not None, fault_plan is not None)
        )

    shared_cities = (
        _cities_for_shards(shard_param, shards, scale.seed) if share_memory else []
    )
    sharing = share_cities(shared_cities) if shared_cities else nullcontext(())

    if not supervised:
        with sharing as handles:
            partials = _run_pool(
                experiment_id, scale, shards, shard_param, max_workers, kwargs,
                tuple(handles),
            )
        merged = _merge(partials, shards, shard_param)
        merged.provenance["sharding"] = {
            "mode": "pool",
            "shard_param": shard_param,
            "max_workers": max_workers,
            "shared_memory_cities": len(shared_cities),
        }
        return merged

    if policy is None:
        policy = ShardPolicy(
            timeout_s=timeout_s, retries=retries, serial_fallback=serial_fallback
        )
    with sharing as handles:
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
            city_handles=tuple(handles),
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
        "mode": "supervised",
        "shard_param": shard_param,
        "max_workers": max_workers,
        "shared_memory_cities": len(shared_cities),
        "policy": asdict(policy),
        "shards": [asdict(r) for r in reports],
    }
    return merged
