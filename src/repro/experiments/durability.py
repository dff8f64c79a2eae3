"""Crash-sweep scenarios for every durable writer in the repo.

Each scenario here wires one writer into the
:mod:`repro.core.crashsweep` harness: ``setup`` builds deterministic
baseline state, ``run`` performs the durable operation that gets killed
at every op, and ``check`` is the recovery oracle a restarted process
would effectively execute.  The five writer families of ISSUE 10:

========================  ==================================================
scenario                  oracle (what recovery must guarantee)
========================  ==================================================
``checkpoint-overwrite``  the checkpoint is the old payload or the new one,
                          bit-exactly — never absent, never torn
``dataset-cache-put``     a cache read serves the complete entry or a miss;
                          it never raises and never serves torn arrays
``budget-ledger``         restart replays to a consistent ledger: every
                          acknowledged spend survives (no double-serve) and
                          over-counting is bounded by the one in-flight batch
``shard-checkpoint-gc``   every checkpoint file that exists parses whole;
                          clearing subsumed shard checkpoints can die midway
                          without manufacturing a resumable torn state
``quarantine-sidecar``    the sidecar is absent or complete JSONL; the
                          damaged source is never mutated
========================  ==================================================

``default_scenarios()`` feeds them all to ``poiagg crashsweep`` and the
CI smoke job.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.crashsweep import SweepScenario
from repro.core.errors import CacheIntegrityError, LedgerIntegrityError
from repro.dp.mechanisms import PrivacyParams
from repro.experiments.runner import load_checkpoint, write_checkpoint
from repro.experiments.scale import ExperimentScale
from repro.experiments.supervisor import (
    clear_shard_checkpoints,
    shard_checkpoint_path,
)
from repro.geo.bbox import BBox
from repro.ingest.cache import DatasetCache
from repro.ingest.loaders import QUARANTINE_SUFFIX, ingest_poi_csv
from repro.poi.database import POIDatabase
from repro.poi.io import save_database
from repro.poi.vocabulary import TypeVocabulary
from repro.serve.ledger import BudgetLedger

__all__ = ["default_scenarios"]


def _tiny_db() -> POIDatabase:
    """The conftest ``tiny_db`` twin: 6 POIs, 3 types, known geometry."""
    vocab = TypeVocabulary(["a", "b", "c"])
    xy = np.array(
        [
            [100.0, 100.0],
            [900.0, 100.0],
            [500.0, 500.0],
            [520.0, 520.0],
            [500.0, 900.0],
            [480.0, 480.0],
        ]
    )
    types = np.array([0, 0, 1, 1, 2, 0])
    return POIDatabase(
        xy, types, vocab, bounds=BBox(0, 0, 1000, 1000), cell_size=100
    )


# ----------------------------------------------------------------------
# checkpoint-overwrite: the bare atomic_writer contract
# ----------------------------------------------------------------------

_OLD_CKPT = {"experiment_id": "exp", "scale": "tiny", "seed": 1, "epoch": 1}
_NEW_CKPT = {"experiment_id": "exp", "scale": "tiny", "seed": 1, "epoch": 2}


def _ckpt_setup(ctx: dict, root: Path) -> None:
    ctx["path"] = root / "out" / ".checkpoints" / "exp_tiny.json"
    write_checkpoint(ctx["path"], _OLD_CKPT)


def _ckpt_run(ctx: dict, root: Path) -> None:
    write_checkpoint(ctx["path"], _NEW_CKPT)


def _ckpt_check(ctx: dict, root: Path) -> None:
    loaded = load_checkpoint(ctx["path"])
    if loaded in (_OLD_CKPT, _NEW_CKPT):
        return
    # A lying fsync can publish a name whose data blocks never landed;
    # the detection contract: the torn file reads as no-checkpoint
    # (resume redoes the work) rather than as a trusted payload.
    if ctx["mode"] == "fsync-lie" and loaded is None:
        return
    raise AssertionError(f"checkpoint neither old nor new: {loaded!r}")


# ----------------------------------------------------------------------
# dataset-cache-put: payload-first / manifest-last commit protocol
# ----------------------------------------------------------------------


def _cache_setup(ctx: dict, root: Path) -> None:
    db = _tiny_db()
    source = root / "pois.csv"
    save_database(db, source)
    ctx["db"] = db
    ctx["source"] = source
    ctx["cache_root"] = root / "cache"


def _cache_run(ctx: dict, root: Path) -> None:
    DatasetCache(ctx["cache_root"]).put(ctx["source"], ctx["db"], cell_size=100.0)


def _cache_check(ctx: dict, root: Path) -> None:
    # A fresh reader (fresh process, fresh cache object) after the crash:
    # a miss is fine, an integrity error or torn arrays are not.
    try:
        served = DatasetCache(ctx["cache_root"]).get(ctx["source"])
    except CacheIntegrityError as exc:
        # Against a lying fsync the checksummed manifest is exactly the
        # detection mechanism: load_or_build rebuilds from source.
        if ctx["mode"] == "fsync-lie":
            return
        raise AssertionError(f"crash left a detectably-torn entry: {exc}") from exc
    if served is None:
        return
    db = ctx["db"]
    if not (
        np.array_equal(served.positions, db.positions)
        and np.array_equal(served.type_ids, db.type_ids)
        and list(served.vocabulary.names) == list(db.vocabulary.names)
    ):
        raise AssertionError("cache served an entry that is not bit-identical")


# ----------------------------------------------------------------------
# budget-ledger: WAL append and compaction under fire
# ----------------------------------------------------------------------

#: Small enough that 12 spends exercise append, snapshot compaction and
#: the in-place WAL truncate several times inside one run.
_LEDGER_KW = {"compact_every": 4}
_LEDGER_BUDGET = PrivacyParams(epsilon=100.0, delta=0.0)
_LEDGER_USERS = ("alice", "bob", "carol")


def _ledger_setup(ctx: dict, root: Path) -> None:
    ctx["dir"] = root / "ledger"
    ledger = BudgetLedger(_LEDGER_BUDGET, directory=ctx["dir"], **_LEDGER_KW)
    ledger.spend("alice", 1.0)
    ledger.spend("bob", 1.0)
    ledger.close()
    # What each user has durably spent and been *served* for so far.
    ctx["acked"] = {"alice": 1.0, "bob": 1.0, "carol": 0.0}
    ctx["in_flight"] = dict.fromkeys(_LEDGER_USERS, 0.0)


def _ledger_run(ctx: dict, root: Path) -> None:
    ledger = BudgetLedger(_LEDGER_BUDGET, directory=ctx["dir"], **_LEDGER_KW)
    for i in range(12):
        user = _LEDGER_USERS[i % len(_LEDGER_USERS)]
        # The charge in flight: durable-but-unacknowledged is legal
        # over-counting, so the oracle needs to know its size.
        ctx["in_flight"][user] = 1.0
        ledger.spend(user, 1.0)
        ctx["in_flight"][user] = 0.0
        ctx["acked"][user] += 1.0
    ledger.close()


def _ledger_check(ctx: dict, root: Path) -> None:
    # Restart: replay the snapshot, then the WAL.  Any
    # refusal to restore (mid-file corruption) fails the oracle — except
    # after a lying fsync, where refusing to start IS the documented
    # fail-safe (serve nothing rather than an inconsistent ledger).
    try:
        ledger = BudgetLedger(_LEDGER_BUDGET, directory=ctx["dir"], **_LEDGER_KW)
    except LedgerIntegrityError:
        if ctx["mode"] == "fsync-lie":
            return
        raise
    try:
        for user in _LEDGER_USERS:
            spent = ledger.user_state(user)["spent_epsilon"]
            acked = ctx["acked"][user]
            if spent < acked - 1e-9:
                raise AssertionError(
                    f"double-spend window: {user} served {acked} but the "
                    f"replayed ledger only charges {spent}"
                )
            ceiling = acked + ctx["in_flight"][user]
            if spent > ceiling + 1e-9:
                raise AssertionError(
                    f"over-count exceeds the in-flight batch: {user} "
                    f"charged {spent} > {ceiling}"
                )
    finally:
        ledger.close()


# ----------------------------------------------------------------------
# shard-checkpoint-gc: subsumed-clear can die midway, harmlessly
# ----------------------------------------------------------------------

_SCALE = ExperimentScale(
    name="tiny",
    n_targets=1,
    n_train=1,
    n_validation=1,
    n_area_samples=1,
    n_taxis=1,
    n_users=1,
    seed=7,
)


def _shards_setup(ctx: dict, root: Path) -> None:
    ctx["out"] = root / "out"


def _shards_run(ctx: dict, root: Path) -> None:
    out = ctx["out"]
    for shard in ("beijing", "shanghai"):
        write_checkpoint(
            shard_checkpoint_path(out, "exp", _SCALE, shard),
            {
                "experiment_id": "exp",
                "scale": _SCALE.name,
                "seed": _SCALE.seed,
                "shard_value": shard,
                "result": {"rows": [1, 2, 3]},
            },
        )
    write_checkpoint(
        Path(out) / ".checkpoints" / f"exp_{_SCALE.name}.json",
        {"experiment_id": "exp", "scale": _SCALE.name, "seed": _SCALE.seed},
    )
    clear_shard_checkpoints(out, "exp", _SCALE)


def _shards_check(ctx: dict, root: Path) -> None:
    # Oracle: whatever checkpoint files survive, each parses whole — the
    # resume path trusts any file that matches, so a torn-but-present
    # checkpoint is the one unrecoverable state.
    ckpt_dir = Path(ctx["out"]) / ".checkpoints"
    if not ckpt_dir.exists():
        return
    for path in ckpt_dir.rglob("*.json"):
        try:
            json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            # Unparseable = load_checkpoint reads it as absent, so resume
            # redoes the shard: detectable, the fsync-lie escape hatch.
            if ctx["mode"] == "fsync-lie":
                continue
            raise AssertionError(f"torn checkpoint survives at {path}: {exc}") from exc


# ----------------------------------------------------------------------
# quarantine-sidecar: damaged-source ingest publishes whole or not at all
# ----------------------------------------------------------------------


def _quarantine_setup(ctx: dict, root: Path) -> None:
    source = root / "pois.csv"
    save_database(_tiny_db(), source)
    # Damage one data row so quarantine-policy ingest diverts it: a
    # non-integer poi_id is unfixable but file-structure-preserving.
    lines = source.read_text().splitlines(keepends=True)
    lines[3] = "bogus" + lines[3]
    # Damaging the scenario *input* — the quarantine-role artifact under
    # test is the sidecar, which the loader writes via atomic_write_text.
    source.write_text("".join(lines))  # poiagg: disable=PL007
    ctx["source"] = source
    ctx["source_bytes"] = source.read_bytes()
    ctx["sidecar"] = source.with_name(source.name + QUARANTINE_SUFFIX)


def _quarantine_run(ctx: dict, root: Path) -> None:
    ingest_poi_csv(ctx["source"], policy="quarantine")


def _quarantine_check(ctx: dict, root: Path) -> None:
    if ctx["source"].read_bytes() != ctx["source_bytes"]:
        raise AssertionError("ingest mutated the damaged source file")
    sidecar = ctx["sidecar"]
    if not sidecar.exists():
        return  # the commit never happened: re-ingest rebuilds it
    for lineno, line in enumerate(sidecar.read_text().splitlines(), 1):
        try:
            json.loads(line)
        except json.JSONDecodeError as exc:
            raise AssertionError(
                f"torn quarantine sidecar at line {lineno}: {exc}"
            ) from exc


def default_scenarios() -> list[SweepScenario]:
    """The standard sweep battery: one scenario per durable writer."""
    return [
        SweepScenario(
            name="checkpoint-overwrite",
            setup=_ckpt_setup,
            run=_ckpt_run,
            check=_ckpt_check,
            description="atomic_writer overwrite is all-or-nothing",
        ),
        SweepScenario(
            name="dataset-cache-put",
            setup=_cache_setup,
            run=_cache_run,
            check=_cache_check,
            description="cache entries are complete-or-invisible",
        ),
        SweepScenario(
            name="budget-ledger",
            setup=_ledger_setup,
            run=_ledger_run,
            check=_ledger_check,
            description="WAL replay never double-spends across rotate/compact",
        ),
        SweepScenario(
            name="shard-checkpoint-gc",
            setup=_shards_setup,
            run=_shards_run,
            check=_shards_check,
            description="checkpoint GC leaves no torn resumable state",
        ),
        SweepScenario(
            name="quarantine-sidecar",
            setup=_quarantine_setup,
            run=_quarantine_run,
            check=_quarantine_check,
            description="quarantine sidecars publish whole or not at all",
        ),
    ]
