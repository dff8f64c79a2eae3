"""Property: WAL compaction is state-preserving.

For any spend sequence and any ``compact_every``, the reopened ledger's
``to_state()`` is bit-identical to an uncompacted twin that replayed the
same sequence — compaction changes the *representation* of the durable
history, never the accounts.  The second property drives a SIGKILL into the
middle of compaction itself (every durable op of ``compact()``) and
demands the same: recovery from any torn compaction replays to the
exact pre-crash state.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import BudgetExhaustedError
from repro.core.vfs import DiskFaultPlan, FaultyVFS, SimulatedCrash, install_vfs
from repro.dp.mechanisms import PrivacyParams
from repro.serve.ledger import BudgetLedger

USERS = ("alice", "bob", "carol")

spend_sequences = st.lists(
    st.tuples(
        st.sampled_from(USERS),
        st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


def replay(directory, spends, budget, **ledger_kw):
    ledger = BudgetLedger(PrivacyParams(budget, 0.0), directory, **ledger_kw)
    for user, epsilon in spends:
        try:
            ledger.spend(user, epsilon)
        except BudgetExhaustedError:
            pass
    return ledger


@given(
    spends=spend_sequences,
    budget=st.floats(min_value=0.5, max_value=20.0),
    compact_every=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=60, deadline=None)
def test_compaction_preserves_to_state(tmp_path_factory, spends, budget, compact_every):
    base = tmp_path_factory.mktemp("wal-prop")
    compacted = replay(base / "compacted", spends, budget, compact_every=compact_every)
    compacted.close()
    # The twin never compacts mid-run: one giant WAL.
    plain = replay(base / "plain", spends, budget, compact_every=10**9)
    live_state = plain.to_state()

    reopened = BudgetLedger(PrivacyParams(budget, 0.0), base / "compacted")
    assert reopened.to_state() == live_state
    # Compaction earned its keep: the on-disk WAL is bounded by roughly
    # one compaction window, not the whole history.
    assert reopened.wal_bytes_on_disk() <= plain.wal_bytes_on_disk() or (
        len(spends) <= compact_every
    )
    reopened.close()
    plain.close()


@given(
    spends=spend_sequences,
    budget=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=25, deadline=None)
def test_sigkill_mid_compaction_preserves_to_state(
    tmp_path_factory, spends, budget
):
    """Kill compaction at every durable op; recovery is bit-identical."""
    base = tmp_path_factory.mktemp("wal-crash")
    params = PrivacyParams(budget, 0.0)

    # Count compaction's durable ops with a fault-free instrumented run.
    counting = FaultyVFS(DiskFaultPlan())
    with install_vfs(counting):
        ledger = replay(base / "count", spends, budget, compact_every=10**9)
        before = len(counting.op_log)
        ledger.compact()
        n_compact_ops = len(counting.op_log) - before
        expected = ledger.to_state()
        ledger.close()
    assert n_compact_ops >= 1

    for k in range(1, n_compact_ops + 1):
        directory = base / f"kill-{k}"
        ledger = replay(directory, spends, budget, compact_every=10**9)
        expected_state = ledger.to_state()
        assert expected_state == expected
        vfs = FaultyVFS(DiskFaultPlan(crash_at_op=k))
        with install_vfs(vfs):
            try:
                ledger.compact()
            except SimulatedCrash:
                pass
            vfs.simulate_crash()
        recovered = BudgetLedger(params, directory)
        assert recovered.to_state() == expected_state, f"compaction op {k}"
        recovered.close()


@given(spends=spend_sequences, compact_every=st.integers(min_value=1, max_value=8))
@settings(max_examples=25, deadline=None)
def test_wal_stays_bounded_under_compaction(
    tmp_path_factory, spends, compact_every
):
    """The WAL never holds more than one compaction window."""
    directory = tmp_path_factory.mktemp("wal-bound") / "ledger"
    ledger = BudgetLedger(PrivacyParams(1e9, 0.0), directory, compact_every=compact_every)
    record_bytes = 128  # generous per-record ceiling
    for i, (user, epsilon) in enumerate(spends * 3):
        ledger.spend(user, epsilon)
        bound = record_bytes * (compact_every + 1) + 512
        assert ledger.wal_bytes_on_disk() <= bound, (i, ledger.wal_bytes_on_disk())
    total = sum(ledger.user_state(u)["spent_epsilon"] for u in USERS)
    assert math.isfinite(total) and total > 0
    ledger.close()
    assert ledger.wal_bytes_on_disk() == 0 or directory.is_dir()
