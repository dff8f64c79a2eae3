"""Budget-ledger unit tests: spending, refusal, and crash-safe restore."""

from __future__ import annotations

import errno
import json

import pytest

from repro.core.errors import (
    BudgetExhaustedError,
    ConfigError,
    DiskPressureError,
    LedgerIntegrityError,
)
from repro.core.vfs import DurableVFS, install_vfs
from repro.dp.mechanisms import PrivacyParams
from repro.serve.ledger import SNAPSHOT_NAME, WAL_NAME, BudgetLedger


BUDGET = PrivacyParams(3.0, 0.0)


def test_spend_until_refused_is_deterministic():
    ledger = BudgetLedger(BUDGET)
    for _ in range(3):
        ledger.spend("alice", 1.0)
    with pytest.raises(BudgetExhaustedError):
        ledger.spend("alice", 1.0)
    # Refusal is terminal: every later spend is refused too.
    with pytest.raises(BudgetExhaustedError):
        ledger.spend("alice", 0.5)
    assert ledger.remaining("alice")[0] == pytest.approx(0.0)
    assert ledger.n_granted == 3
    assert ledger.n_refused == 2


def test_refusal_payload_is_typed():
    ledger = BudgetLedger(PrivacyParams(1.0, 0.0))
    ledger.spend("bob", 1.0)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        ledger.spend("bob", 1.0)
    payload = excinfo.value.payload()
    assert payload["error"] == "BudgetExhausted"
    assert payload["user_id"] == "bob"
    assert payload["budget_epsilon"] == 1.0
    assert payload["spent_epsilon"] == pytest.approx(1.0)


def test_would_refuse_matches_spend_at_the_boundary():
    """The advisory pre-check and the durable commit agree to the last ulp."""
    ledger = BudgetLedger(PrivacyParams(1.0, 0.0))
    # Ten spends of 0.1 do not sum to exactly 1.0 in floats; whatever
    # spend() decides, would_refuse() must have predicted.
    for _ in range(10):
        assert ledger.would_refuse("carol", 0.1) is None
        ledger.spend("carol", 0.1)
    assert ledger.would_refuse("carol", 0.1) is not None
    with pytest.raises(BudgetExhaustedError):
        ledger.spend("carol", 0.1)


def test_users_are_isolated():
    ledger = BudgetLedger(PrivacyParams(1.0, 0.0))
    ledger.spend("alice", 1.0)
    ledger.spend("bob", 1.0)  # alice's exhaustion does not affect bob
    assert ledger.n_users == 2


def test_spend_batch_composes_within_the_batch():
    ledger = BudgetLedger(PrivacyParams(2.0, 0.0))
    outcomes = ledger.spend_batch(
        [("dave", 1.0, 0.0), ("dave", 1.0, 0.0), ("dave", 1.0, 0.0)]
    )
    assert outcomes[0] is None and outcomes[1] is None
    assert isinstance(outcomes[2], BudgetExhaustedError)


def test_invalid_spends_are_config_errors():
    ledger = BudgetLedger(BUDGET)
    with pytest.raises(ConfigError):
        ledger.spend("eve", 0.0)
    with pytest.raises(ConfigError):
        ledger.spend("eve", 1.0, delta=-0.1)


def test_restart_restores_spent_budget(tmp_path):
    with BudgetLedger(BUDGET, directory=tmp_path) as ledger:
        ledger.spend("alice", 1.0)
        ledger.spend("alice", 1.0)
        ledger.spend("bob", 1.0)
    reborn = BudgetLedger(BUDGET, directory=tmp_path)
    assert reborn.remaining("alice")[0] == pytest.approx(1.0)
    assert reborn.remaining("bob")[0] == pytest.approx(2.0)
    reborn.spend("alice", 1.0)
    with pytest.raises(BudgetExhaustedError):
        reborn.spend("alice", 1.0)


def test_restore_from_wal_only_without_snapshot(tmp_path):
    ledger = BudgetLedger(BUDGET, directory=tmp_path)
    ledger.spend("alice", 1.0)
    # No close(): simulate a hard kill by abandoning the handle.
    (tmp_path / SNAPSHOT_NAME).unlink(missing_ok=True)
    reborn = BudgetLedger(BUDGET, directory=tmp_path)
    assert reborn.remaining("alice")[0] == pytest.approx(2.0)


def test_torn_trailing_wal_line_is_dropped(tmp_path):
    ledger = BudgetLedger(BUDGET, directory=tmp_path)
    ledger.spend("alice", 1.0)
    ledger.spend("alice", 1.0)
    wal = tmp_path / WAL_NAME
    content = wal.read_text(encoding="utf-8")
    # Tear the final append mid-record, as a crash mid-write would.
    wal.write_text(content[:-9], encoding="utf-8")
    reborn = BudgetLedger(BUDGET, directory=tmp_path)
    # The torn spend was never served, so dropping it is the safe call.
    assert reborn.remaining("alice")[0] == pytest.approx(2.0)


def test_torn_tail_is_truncated_before_new_appends(tmp_path):
    """Regression: a torn tail survived restore and the next append
    concatenated onto it, so a *later* restart saw a merged mid-file
    record — either an integrity error or a silently dropped spend."""
    ledger = BudgetLedger(BUDGET, directory=tmp_path)
    ledger.spend("alice", 1.0)
    wal = tmp_path / WAL_NAME
    with open(wal, "a", encoding="utf-8") as fh:
        fh.write('{"seq":2,"user":"al')  # crash mid-append: no newline
    reborn = BudgetLedger(BUDGET, directory=tmp_path)
    assert reborn.remaining("alice")[0] == pytest.approx(2.0)
    reborn.spend("bob", 1.0)
    # Every line in the repaired WAL must be a complete record.
    for line in wal.read_text(encoding="utf-8").splitlines():
        json.loads(line)
    third = BudgetLedger(BUDGET, directory=tmp_path)
    assert third.remaining("alice")[0] == pytest.approx(2.0)
    assert third.remaining("bob")[0] == pytest.approx(2.0)


def test_complete_record_missing_newline_is_a_torn_tail(tmp_path):
    """The fsynced payload always ends in a newline, so a final line
    without one was never acknowledged and must not be replayed (or
    appended onto)."""
    ledger = BudgetLedger(BUDGET, directory=tmp_path)
    ledger.spend("alice", 1.0)
    wal = tmp_path / WAL_NAME
    with open(wal, "a", encoding="utf-8") as fh:
        fh.write('{"seq":2,"user":"alice","eps":1.0,"delta":0.0}')
    reborn = BudgetLedger(BUDGET, directory=tmp_path)
    assert reborn.remaining("alice")[0] == pytest.approx(2.0)
    reborn.spend("alice", 1.0)
    third = BudgetLedger(BUDGET, directory=tmp_path)
    assert third.remaining("alice")[0] == pytest.approx(1.0)


def test_parked_wal_never_nul_pads_a_shrunken_file(tmp_path):
    """Regression: if the WAL is *shorter* than the remembered offset,
    recovery must resynchronize, not extend the file with NUL bytes."""
    ledger = BudgetLedger(BUDGET, directory=tmp_path)
    ledger.spend("alice", 1.0)
    # Park the handle with a stale offset over an emptied file.
    ledger._wal.close()
    ledger._wal = None
    (tmp_path / WAL_NAME).write_text("", encoding="utf-8")
    ledger.spend("alice", 1.0)
    data = (tmp_path / WAL_NAME).read_bytes()
    assert b"\x00" not in data
    for line in data.decode("utf-8").splitlines():
        json.loads(line)


def test_mid_file_wal_corruption_is_an_integrity_error(tmp_path):
    ledger = BudgetLedger(BUDGET, directory=tmp_path)
    ledger.spend("alice", 1.0)
    ledger.spend("alice", 1.0)
    wal = tmp_path / WAL_NAME
    lines = wal.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0][:-4] + "!!!"
    wal.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(LedgerIntegrityError):
        BudgetLedger(BUDGET, directory=tmp_path)


def test_compact_then_stale_wal_replays_exactly_once(tmp_path):
    """The crash window between snapshot replace and WAL truncation."""
    ledger = BudgetLedger(BUDGET, directory=tmp_path)
    ledger.spend("alice", 1.0)
    ledger.spend("alice", 1.0)
    stale_wal = (tmp_path / WAL_NAME).read_text(encoding="utf-8")
    ledger.compact()
    # Put the pre-compaction WAL back, as if the truncate never landed.
    (tmp_path / WAL_NAME).write_text(stale_wal, encoding="utf-8")
    reborn = BudgetLedger(BUDGET, directory=tmp_path)
    # Sequence filtering must not double-count the two spends.
    assert reborn.remaining("alice")[0] == pytest.approx(1.0)


class _BufferingFullDisk(DurableVFS):
    """A full disk as Python's buffered files meet it: the record reaches
    the file object's buffer, the flush to the OS fails with ENOSPC, and
    the buffer keeps the bytes for the next flush."""

    def _write(self, fh, data):
        fh._handle.write(data)
        raise OSError(errno.ENOSPC, "No space left on device", str(fh.path))


def test_refused_append_is_not_written_ahead_of_the_next_record(tmp_path):
    """Regression: a refused append left its payload in the WAL handle's
    buffer, the next append flushed it ahead of its own record under the
    same sequence number, and replay skipped the acknowledged spend."""
    ledger = BudgetLedger(BUDGET, directory=tmp_path)
    ledger.spend("alice", 1.0)
    with install_vfs(_BufferingFullDisk()):
        with pytest.raises(DiskPressureError):
            ledger.spend("alice", 1.0)
    ledger.spend("bob", 1.0)
    records = [
        json.loads(line)
        for line in (tmp_path / WAL_NAME).read_text(encoding="utf-8").splitlines()
    ]
    assert [(r["seq"], r["user"]) for r in records] == [(1, "alice"), (2, "bob")]
    reborn = BudgetLedger(BUDGET, directory=tmp_path)
    assert reborn.user_state("alice")["spent_epsilon"] == 1.0
    assert reborn.user_state("bob")["spent_epsilon"] == 1.0


def test_sealed_segments_refuse_to_restore(tmp_path):
    """A segment-rotating ledger that crashed before its next compaction
    left sealed segments; replaying only the WAL would skip their spends."""
    with BudgetLedger(BUDGET, directory=tmp_path) as ledger:
        ledger.spend("alice", 1.0)
    segment = tmp_path / f"{WAL_NAME}.00000001"
    segment.write_text('{"seq":2,"user":"alice","eps":1.0,"delta":0.0}\n', encoding="utf-8")
    with pytest.raises(LedgerIntegrityError, match=r"ledger\.wal\.00000001"):
        BudgetLedger(BUDGET, directory=tmp_path)


def test_leftover_wal_temp_file_is_ignored(tmp_path):
    """``ledger.wal.tmp`` was the old compaction's rewrite, not a segment."""
    with BudgetLedger(BUDGET, directory=tmp_path) as ledger:
        ledger.spend("alice", 1.0)
    leftover = tmp_path / f"{WAL_NAME}.tmp"
    leftover.write_text('{"seq":2,"user":"alice","eps":1.0,"delta":0.0}\n', encoding="utf-8")
    reborn = BudgetLedger(BUDGET, directory=tmp_path)
    assert reborn.remaining("alice")[0] == pytest.approx(2.0)


def test_compaction_triggers_by_append_count(tmp_path):
    """Compaction snapshots, then truncates the same WAL file in place."""
    ledger = BudgetLedger(BUDGET, directory=tmp_path, compact_every=2)
    wal = tmp_path / WAL_NAME
    inode = wal.stat().st_ino
    ledger.spend("alice", 0.5)
    ledger.spend("alice", 0.5)
    snapshot = json.loads((tmp_path / SNAPSHOT_NAME).read_text(encoding="utf-8"))
    assert snapshot["seq"] == 2
    assert wal.read_text(encoding="utf-8") == ""
    assert wal.stat().st_ino == inode
    assert sorted(p.name for p in tmp_path.iterdir()) == [SNAPSHOT_NAME, WAL_NAME]
    ledger.spend("bob", 1.0)  # the open append handle writes at the new end
    assert wal.read_text(encoding="utf-8").count("\n") == 1
    reborn = BudgetLedger(BUDGET, directory=tmp_path)
    assert reborn.remaining("alice")[0] == pytest.approx(2.0)
    assert reborn.remaining("bob")[0] == pytest.approx(2.0)


def test_budget_mismatch_refuses_to_restore(tmp_path):
    with BudgetLedger(BUDGET, directory=tmp_path) as ledger:
        ledger.spend("alice", 1.0)
    with pytest.raises(LedgerIntegrityError):
        BudgetLedger(PrivacyParams(99.0, 0.0), directory=tmp_path)


def test_in_memory_ledger_needs_no_directory():
    ledger = BudgetLedger(BUDGET)
    ledger.spend("alice", 1.0)
    ledger.close()  # no-op persistence, must not raise
