"""Seeded disk-fault chaos: real durable writers driven against a
misbehaving disk, asserting the typed-failure and consistency contracts.

Unlike the crash sweeps (exhaustive, deterministic schedules), this
suite injects *probabilistic* fault mixes — ENOSPC, EIO, torn writes,
lying fsyncs — so adaptive code paths (repair loops, rotation fallback,
parked-WAL recovery) get exercised under fault sequences no enumeration
would produce.  The contract under any mix:

* failures surface as typed errors (``DiskPressureError``/``OSError``/
  a ``ReproError`` subclass), never a raw ``ValueError`` off a closed
  handle or a half-written artifact silently served;
* acknowledged work survives: a spend that returned normally is in the
  reopened ledger, a cache entry that ``put`` returned for round-trips.

Seeds come from ``POIAGG_CHAOS_SEEDS`` (space-separated; default
``"0 1"``), shared by every chaos suite, so CI can widen the sweep
without code changes.
"""

import pytest

from repro.core.errors import DiskPressureError, ReproError
from repro.core.faults import seeds_from_env
from repro.core.vfs import DiskFaultPlan, FaultyVFS, install_vfs
from repro.dp.mechanisms import PrivacyParams
from repro.serve.ledger import BudgetLedger

SEEDS = seeds_from_env(default=(0, 1))

USERS = ("alice", "bob", "carol")

#: Fault mixes, from gentle to hostile.
MIXES = [
    DiskFaultPlan(enospc_rate=0.1),
    DiskFaultPlan(eio_rate=0.15, torn_write_rate=0.1),
    DiskFaultPlan(enospc_rate=0.1, eio_rate=0.1, torn_write_rate=0.15),
]


def chaos_plan(mix: DiskFaultPlan, seed: int) -> DiskFaultPlan:
    from dataclasses import replace

    return replace(mix, seed=seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mix", range(len(MIXES)))
def test_ledger_spends_are_typed_and_acked_spends_survive(tmp_path, seed, mix):
    plan = chaos_plan(MIXES[mix], seed)
    budget = PrivacyParams(1000.0, 0.0)
    acked = dict.fromkeys(USERS, 0.0)
    vfs = FaultyVFS(plan)
    with install_vfs(vfs):
        try:
            ledger = BudgetLedger(budget, tmp_path, compact_every=5)
        except OSError:
            return  # the disk refused startup itself: typed, clean
        for i in range(40):
            user = USERS[i % len(USERS)]
            try:
                ledger.spend(user, 1.0)
            except (DiskPressureError, OSError):
                continue  # typed refusal; nothing committed
            except ReproError as exc:  # pragma: no cover - unexpected kind
                pytest.fail(f"unexpected typed error: {exc}")
            acked[user] += 1.0
        try:
            ledger.close()
        except OSError:
            pass
    # Reopen on a healthy disk: every acknowledged spend must be there.
    reopened = BudgetLedger(budget, tmp_path)
    for user in USERS:
        spent = reopened.user_state(user)["spent_epsilon"] if acked[user] else 0.0
        assert spent == pytest.approx(acked[user]), (user, spent, acked[user])
    reopened.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_survives_chaos_plus_power_cut(tmp_path, seed):
    """The hostile mix *and* a power cut at the end: the reopened ledger
    may hold at most one in-flight spend beyond the acknowledged ones."""
    plan = chaos_plan(
        DiskFaultPlan(eio_rate=0.1, torn_write_rate=0.1, fsync_lie_rate=0.05),
        seed,
    )
    budget = PrivacyParams(1000.0, 0.0)
    acked = dict.fromkeys(USERS, 0.0)
    in_flight = dict.fromkeys(USERS, 0.0)
    vfs = FaultyVFS(plan)
    with install_vfs(vfs):
        try:
            ledger = BudgetLedger(budget, tmp_path, compact_every=7)
        except OSError:
            return
        for i in range(30):
            user = USERS[i % len(USERS)]
            try:
                ledger.spend(user, 1.0)
            except (DiskPressureError, OSError):
                in_flight[user] += 1.0
                continue
            acked[user] += 1.0
        vfs.simulate_crash()  # no close(): the power just went out
    try:
        reopened = BudgetLedger(budget, tmp_path)
    except ReproError:
        # A lying fsync can leave a detectably-torn store; refusing to
        # start is the documented detection outcome.
        assert plan.fsync_lie_rate > 0
        return
    for user in USERS:
        spent = reopened.user_state(user)["spent_epsilon"] if acked[user] else 0.0
        # Over-counting (a charged-but-unserved release) is acceptable;
        # under-counting an acknowledged spend never is — except under a
        # lying fsync, where durability was stolen after the ack.
        upper = acked[user] + in_flight[user]
        assert spent <= upper + 1e-9
        if plan.fsync_lie_rate == 0:
            assert spent >= acked[user] - 1e-9
    reopened.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_cache_round_trip_or_typed_failure_under_chaos(tmp_path, seed):
    import numpy as np

    from repro.experiments.durability import _tiny_db
    from repro.ingest.cache import DatasetCache
    from repro.poi.io import save_database

    db = _tiny_db()
    sources = []
    for i in range(8):
        source = tmp_path / f"pois-{i}.csv"
        save_database(db, source)
        sources.append(source)

    plan = chaos_plan(DiskFaultPlan(eio_rate=0.15, torn_write_rate=0.1), seed)
    cache = DatasetCache(tmp_path / "cache")
    stored = []
    with install_vfs(FaultyVFS(plan)):
        for source in sources:
            try:
                cache.put(source, db, cell_size=100.0)
            except (OSError, ReproError):
                continue  # typed refusal; the entry stays invisible
            stored.append(source)
    # Healthy disk again: every acknowledged put round-trips bit-exactly
    # (get raising CacheIntegrityError here would fail the test).
    for source in stored:
        served = cache.get(source)
        assert served is not None, f"acked cache entry for {source} vanished"
        assert np.array_equal(served.positions, db.positions)
        assert np.array_equal(served.type_ids, db.type_ids)
