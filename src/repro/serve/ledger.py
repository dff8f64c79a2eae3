"""Persistent per-user privacy-budget ledgers for the serve layer.

A served DP release spends part of its user's ``(epsilon, delta)``
budget, and Primault et al. show deployed location-privacy systems fail
exactly here: sloppy accounting across repeated queries quietly voids
the guarantee.  The ledger therefore treats the spend record — not the
response — as the ground truth, with a *write-ahead* discipline:

1. a spend is appended to the write-ahead log (``ledger.wal``) and
   fsynced **before** the release is computed or returned;
2. every ``compact_every`` appends (and on clean shutdown), the full
   per-user accountant state is snapshotted to ``ledger.json`` through
   the atomic temp-file + rename protocol, and once the snapshot has
   landed the WAL is truncated in place.  The disk holds one snapshot
   and at most one compaction window of WAL records.

Crash analysis, in all directions:

* killed after the WAL append but before the response left — the spend
  is counted on restart although nothing was served.  Budget is lost,
  privacy is not: over-counting is the safe direction, and the ledger
  never refunds (a refund could double-spend if the release had in fact
  escaped the process).
* killed mid-append — the torn trailing WAL line is dropped on replay
  and truncated away before the reborn ledger accepts appends, so a new
  record can never concatenate onto the partial line and turn
  end-of-file damage into mid-file corruption.  Safe, because the
  corresponding release was only ever served *after* a complete,
  fsynced append.
* killed between the snapshot replace and the WAL truncate — WAL
  records carry monotonic sequence numbers and the snapshot stores the
  last sequence it absorbed, so replay skips records the snapshot
  already contains.  Spends are counted exactly once, and the next
  compaction truncates the leftovers.
* the disk refuses the append (``ENOSPC``/``EIO``) — nothing is
  committed in memory, the handle is dropped and the torn tail
  truncated away so later appends cannot poison the log, and the caller
  gets a typed :class:`~repro.core.errors.DiskPressureError` (the serve
  layer's 503 + Retry-After path).

A directory holding sealed segments (``ledger.wal.<digits>``, left by
the segment-rotating ledger of earlier versions when it crashed before
its next compaction) is refused with
:class:`~repro.core.errors.LedgerIntegrityError`: replaying only
``ledger.wal`` would skip their spends.

All durable I/O routes through :mod:`repro.core.vfs`, so the disk-chaos
suite and the crash-point sweeps exercise every window above.

Accounting itself is the same implementation the offline runners use —
one :class:`~repro.dp.accountant.PrivacyAccountant` per user, persisted
via its ``to_state``/``from_state`` snapshot API — so the refusal
boundary is bit-identical between the service and the experiments.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.core.errors import (
    BudgetExhaustedError,
    ConfigError,
    DiskPressureError,
    LedgerIntegrityError,
)
from repro.core.vfs import VFSFile, get_vfs
from repro.dp.accountant import PrivacyAccountant
from repro.dp.mechanisms import PrivacyParams
from repro.ingest.atomic import atomic_write_text

__all__ = ["BudgetLedger", "SNAPSHOT_NAME", "WAL_NAME"]

SNAPSHOT_NAME = "ledger.json"
WAL_NAME = "ledger.wal"

_SNAPSHOT_VERSION = 1


class BudgetLedger:
    """Thread-safe, crash-safe per-user ``(epsilon, delta)`` ledger.

    Parameters
    ----------
    budget:
        The per-user allowance.  Every user gets the same budget; the
        refusal boundary is enforced by the shared
        :class:`~repro.dp.accountant.PrivacyAccountant` tolerance, so it
        is deterministic: the first spend that would push a user past
        the budget is refused, as is every spend after it.
    directory:
        Where ``ledger.json`` and ``ledger.wal`` live.  ``None`` keeps
        the ledger purely in memory (tests, ephemeral load generation).
    compact_every:
        WAL appends between snapshot compactions; disk usage stays under
        one snapshot plus ``compact_every`` records.
    """

    def __init__(
        self,
        budget: PrivacyParams,
        directory: "str | Path | None" = None,
        compact_every: int = 1024,
    ) -> None:
        if compact_every < 1:
            raise ConfigError(f"compact_every must be >= 1, got {compact_every}")
        self._budget = budget
        self._dir = Path(directory) if directory is not None else None
        self._compact_every = compact_every
        self._lock = threading.Lock()
        self._accounts: dict[str, PrivacyAccountant] = {}
        self._seq = 0
        self._appends_since_compact = 0
        self._wal: "VFSFile | None" = None
        #: Byte length of the WAL's last durably-complete record; a
        #: refused append truncates back to this offset so the torn tail
        #: can never poison later appends.
        self._wal_offset = 0
        self.n_granted = 0
        self.n_refused = 0
        if self._dir is not None:
            get_vfs().mkdir(self._dir, parents=True, exist_ok=True)
            self._restore()
            self._open_wal()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def budget(self) -> PrivacyParams:
        return self._budget

    @property
    def n_users(self) -> int:
        with self._lock:
            return len(self._accounts)

    def remaining(self, user_id: str) -> tuple[float, float]:
        """``(epsilon, delta)`` the user can still spend."""
        with self._lock:
            account = self._accounts.get(user_id)
            if account is None:
                return (self._budget.epsilon, self._budget.delta)
            return (account.remaining_epsilon(), account.remaining_delta())

    def would_refuse(
        self, user_id: str, epsilon: float, delta: float = 0.0
    ) -> "BudgetExhaustedError | None":
        """The refusal a spend would hit right now, or ``None`` (advisory).

        The authoritative decision is :meth:`spend` under the ledger
        lock; this exists so the admission path can reject exhausted
        users with a typed 429 before their request ever queues.  The
        returned error is *not* raised and nothing is written.
        """
        with self._lock:
            account = self._accounts.get(user_id)
            if account is None:
                account = PrivacyAccountant(budget=self._budget)
            if not account.would_exceed(epsilon, delta):
                return None
            return BudgetExhaustedError(
                user_id,
                requested_epsilon=epsilon,
                requested_delta=delta,
                spent_epsilon=account.total_epsilon,
                spent_delta=account.total_delta,
                budget_epsilon=self._budget.epsilon,
                budget_delta=self._budget.delta,
            )

    def user_state(self, user_id: str) -> dict[str, float]:
        with self._lock:
            account = self._accounts.get(user_id)
            if account is None:
                account = PrivacyAccountant(budget=self._budget)
            return {
                "spent_epsilon": account.total_epsilon,
                "spent_delta": account.total_delta,
                "remaining_epsilon": account.remaining_epsilon(),
                "remaining_delta": account.remaining_delta(),
                "n_releases": float(account.n_invocations),
            }

    def stats(self) -> dict[str, float]:
        with self._lock:
            return {
                "n_users": float(len(self._accounts)),
                "n_granted": float(self.n_granted),
                "n_refused": float(self.n_refused),
                "total_epsilon_spent": sum(
                    a.total_epsilon for a in self._accounts.values()
                ),
                "wal_bytes": float(self._wal_bytes_locked()),
            }

    def to_state(self) -> dict[str, Any]:
        """The ledger's durable state as a canonical, comparable dict.

        Everything a restart restores: the sequence high-water mark, the
        budget, and each user's accountant snapshot.  Compaction is
        invisible here — the property suite asserts ``to_state()`` is
        bit-identical across it, including across a crash planted
        mid-compaction.  Users whose every spend was
        refused are omitted: a refusal commits nothing durable, so an
        empty accountant is an in-memory artifact a restart is not
        obliged to reproduce.
        """
        with self._lock:
            return {
                "seq": self._seq,
                "budget": [self._budget.epsilon, self._budget.delta],
                "users": {
                    user_id: self._accounts[user_id].to_state()
                    for user_id in sorted(self._accounts)
                    if self._accounts[user_id].n_invocations > 0
                },
            }

    def wal_bytes_on_disk(self) -> int:
        """Bytes currently held by the WAL."""
        with self._lock:
            return self._wal_bytes_locked()

    def _wal_bytes_locked(self) -> int:
        if self._dir is None:
            return 0
        try:
            return (self._dir / WAL_NAME).stat().st_size
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # Spending
    # ------------------------------------------------------------------

    def spend(
        self, user_id: str, epsilon: float, delta: float = 0.0, label: str = ""
    ) -> None:
        """Durably charge one release; raises :class:`BudgetExhaustedError`.

        The spend is on disk (appended + fsynced) before this returns,
        so the caller may only serve the release *after* a successful
        return — the order that makes a crash over-count, never
        double-spend.
        """
        outcome = self.spend_batch([(user_id, epsilon, delta)])[0]
        if outcome is not None:
            raise outcome

    def spend_batch(
        self, spends: Sequence[tuple[str, float, float]]
    ) -> "list[BudgetExhaustedError | None]":
        """Charge a micro-batch of releases with one WAL append + fsync.

        Returns one entry per requested spend: ``None`` if granted, or
        the :class:`BudgetExhaustedError` describing the refusal.  The
        batch is decided sequentially under the lock (two spends by one
        user in one batch compose), and all granted spends become
        durable together before any of them is committed in memory.

        Raises :class:`~repro.core.errors.DiskPressureError` when the
        disk refuses the append; in that case *nothing* was committed —
        neither durably nor in memory — so the caller can refuse the
        whole batch and retry later.
        """
        for user_id, epsilon, delta in spends:
            if epsilon <= 0:
                raise ConfigError(
                    f"ledger spends need epsilon > 0, got {epsilon} for {user_id!r}"
                )
            if delta < 0:
                raise ConfigError(
                    f"ledger spends need delta >= 0, got {delta} for {user_id!r}"
                )
        with self._lock:
            outcomes: "list[BudgetExhaustedError | None]" = []
            granted: list[tuple[str, float, float]] = []
            # Running per-user totals accumulated with the same
            # left-to-right association PrivacyAccountant.spend will use,
            # so the pre-check and the commit agree to the last ulp.
            running: dict[str, tuple[float, float]] = {}
            for user_id, epsilon, delta in spends:
                account = self._account(user_id)
                eff_eps, eff_delta = running.get(
                    user_id, (account.total_epsilon, account.total_delta)
                )
                if (
                    eff_eps + epsilon > self._budget.epsilon + 1e-12
                    or eff_delta + delta > self._budget.delta + 1e-12
                ):
                    self.n_refused += 1
                    outcomes.append(
                        BudgetExhaustedError(
                            user_id,
                            requested_epsilon=epsilon,
                            requested_delta=delta,
                            spent_epsilon=eff_eps,
                            spent_delta=eff_delta,
                            budget_epsilon=self._budget.epsilon,
                            budget_delta=self._budget.delta,
                        )
                    )
                    continue
                running[user_id] = (eff_eps + epsilon, eff_delta + delta)
                granted.append((user_id, epsilon, delta))
                outcomes.append(None)
            if granted:
                # PL013 rightly flags fsync under the ledger lock; here it
                # is the design: the WAL append IS the commit point, and
                # durability must be ordered before the in-memory spend
                # while both are covered by the same critical section —
                # releasing the lock between them would let a concurrent
                # spend observe granted-but-not-durable state. The I/O is
                # bounded (one small append, one fsync) and no other lock
                # is ever taken here, so no deadlock is possible.
                self._append_wal(granted)  # poiagg: disable=PL013
                for user_id, epsilon, delta in granted:
                    self._accounts[user_id].spend(epsilon, delta, label="serve")
                    self.n_granted += 1
                if self._appends_since_compact >= self._compact_every:
                    try:
                        self._compact_locked()  # poiagg: disable=PL013
                    except OSError:
                        # Compaction is a disk-usage optimization; the
                        # spends above are already durable and committed,
                        # so disk trouble here must not turn a granted
                        # batch into an error.  A later spend retries.
                        pass
            return outcomes

    def _account(self, user_id: str) -> PrivacyAccountant:
        account = self._accounts.get(user_id)
        if account is None:
            account = PrivacyAccountant(budget=self._budget)
            self._accounts[user_id] = account
        return account

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _trim_tail(self) -> None:
        """Cut the WAL back to its last durably-complete record.

        ``self._wal_offset`` is authoritative — it marks the end of the
        last durably-complete record (set by replay during restore,
        advanced by successful appends, reset by compaction).  A longer
        file carries a torn trailing record from a crash or a refused
        append: truncate it away *before* accepting appends, because a
        new record concatenated onto a partial line would turn
        recoverable end-of-file damage into mid-file corruption.  A
        shorter file is trusted: resynchronize the offset to it rather
        than pad the file out with NUL bytes.
        """
        assert self._dir is not None
        wal_path = self._dir / WAL_NAME
        try:
            size = wal_path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size > self._wal_offset:
            get_vfs().truncate(wal_path, self._wal_offset)
        else:
            self._wal_offset = size

    def _open_wal(self) -> VFSFile:
        """Trim the WAL's torn tail, then open it for appends.

        On failure the WAL stays parked (``self._wal is None``) and the
        error propagates; the parked-WAL path in ``_append_wal`` retries.
        """
        assert self._dir is not None
        self._trim_tail()
        self._wal = get_vfs().open(self._dir / WAL_NAME, "a")
        return self._wal

    def _append_wal(self, granted: Sequence[tuple[str, float, float]]) -> None:
        if self._dir is None:
            return
        wal_path = self._dir / WAL_NAME
        wal = self._wal
        if wal is None:
            # A refused append parked the WAL.  Trim before reopening
            # (blessing a torn tail would turn end-of-file damage into
            # mid-file corruption), and refuse the batch if the disk
            # still will not cooperate.
            try:
                wal = self._open_wal()
            except OSError as exc:
                raise DiskPressureError(
                    f"WAL unavailable after failed tail repair: {exc}",
                    op="open",
                    path=wal_path,
                    errno=exc.errno,
                ) from exc
        lines = []
        seq = self._seq
        for user_id, epsilon, delta in granted:
            seq += 1
            lines.append(
                json.dumps(
                    {"seq": seq, "user": user_id, "eps": epsilon, "delta": delta},
                    separators=(",", ":"),
                )
            )
        payload = "\n".join(lines) + "\n"
        vfs = get_vfs()
        try:
            wal.write(payload)
            vfs.fsync(wal)
        except OSError as exc:
            self._park_wal()
            raise DiskPressureError(
                f"WAL append refused by the disk: {exc}",
                op="write",
                path=wal_path,
                errno=exc.errno,
            ) from exc
        self._seq = seq
        self._wal_offset += len(payload.encode("utf-8"))
        self._appends_since_compact += len(granted)

    def _park_wal(self) -> None:
        """Drop the WAL handle after a refused append, then trim the tail.

        The handle goes first: Python may still buffer the refused
        payload and would write it ahead of the next record.  Closing
        drops that buffer, or writes it where the trim then cuts it.  The
        trim is best-effort; the next append trims again before it
        reopens.
        """
        assert self._wal is not None
        try:
            self._wal.close()
        except OSError:
            pass
        self._wal = None
        try:
            self._trim_tail()
        except OSError:
            pass

    def compact(self) -> None:
        """Snapshot all accounts atomically, then truncate the WAL.

        Public so the service can compact on clean shutdown.  Safe to
        call at any point: the snapshot lands via the atomic-rename
        protocol first, and replay's sequence filter makes every record
        the truncate has not yet cut a no-op if we crash in between.
        """
        with self._lock:
            # Compaction must see a frozen account table, so the snapshot
            # write (bounded: one atomic_write per compaction) happens
            # under the ledger lock by design — see spend_batch's note.
            self._compact_locked()  # poiagg: disable=PL013

    def _compact_locked(self) -> None:
        if self._dir is None:
            return
        self._write_snapshot()
        # The snapshot now holds every WAL record: cut the WAL in place.
        # The append handle is O_APPEND, so the next record lands at the
        # new end; a crash before the truncate leaves records replay
        # skips by seq.
        get_vfs().truncate(self._dir / WAL_NAME, 0)
        self._wal_offset = 0
        self._appends_since_compact = 0

    def _write_snapshot(self) -> None:
        assert self._dir is not None
        payload = {
            "version": _SNAPSHOT_VERSION,
            "seq": self._seq,
            "budget": [self._budget.epsilon, self._budget.delta],
            "users": {
                user_id: account.to_state()
                for user_id, account in self._accounts.items()
            },
        }
        atomic_write_text(self._dir / SNAPSHOT_NAME, json.dumps(payload))

    def close(self) -> None:
        """Compact and release the WAL handle."""
        with self._lock:
            # Final compaction on shutdown: same frozen-table argument as
            # compact(); nothing else can contend after close() anyway.
            try:
                self._compact_locked()  # poiagg: disable=PL013
            except OSError:
                # Shutdown must not fail because the disk is full; every
                # granted spend is already durable in the WAL.
                pass
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    def __enter__(self) -> "BudgetLedger":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------

    def _restore(self) -> None:
        assert self._dir is not None
        sealed = sorted(
            path.name
            for path in self._dir.glob(f"{WAL_NAME}.*")
            if path.suffix[1:].isdigit()
        )
        if sealed:
            raise LedgerIntegrityError(
                f"ledger directory {self._dir} holds sealed WAL segments "
                f"{', '.join(sealed)}; this ledger replays only {WAL_NAME}, so "
                "their spends would be skipped — refusing to restore"
            )
        snapshot_path = self._dir / SNAPSHOT_NAME
        if snapshot_path.exists():
            self._restore_snapshot(snapshot_path)
        wal_path = self._dir / WAL_NAME
        if wal_path.exists():
            # Remember where the durable records end; _open_wal trims any
            # torn tail beyond it before the first append.
            self._wal_offset = self._replay_wal(wal_path)

    def _restore_snapshot(self, path: Path) -> None:
        try:
            payload: dict[str, Any] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise LedgerIntegrityError(f"unreadable ledger snapshot {path}: {exc}") from exc
        if payload.get("version") != _SNAPSHOT_VERSION:
            raise LedgerIntegrityError(
                f"ledger snapshot {path} has version {payload.get('version')!r}, "
                f"expected {_SNAPSHOT_VERSION}"
            )
        budget = payload.get("budget")
        if (
            not isinstance(budget, list)
            or len(budget) != 2
            or abs(float(budget[0]) - self._budget.epsilon) > 1e-12
            or abs(float(budget[1]) - self._budget.delta) > 1e-12
        ):
            raise LedgerIntegrityError(
                f"ledger snapshot {path} was written for budget {budget}, "
                f"but the service is configured with "
                f"({self._budget.epsilon}, {self._budget.delta}); refusing to "
                "reinterpret spends under a different allowance"
            )
        try:
            for user_id, state in payload.get("users", {}).items():
                self._accounts[str(user_id)] = PrivacyAccountant.from_state(state)
            self._seq = int(payload["seq"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise LedgerIntegrityError(f"malformed ledger snapshot {path}: {exc}") from exc

    def _replay_wal(self, path: Path) -> int:
        """Replay the WAL; returns the byte length of its durable prefix.

        A record is durable only when its full line *including the
        trailing newline* reached the disk — the append fsyncs the
        newline-terminated payload before the spend is committed, so a
        final line missing its newline, failing UTF-8 decode, or failing
        to parse is a torn trailing write that was never acknowledged,
        and replay drops it; anywhere else such a line is corruption.
        Records at or below the snapshot's sequence number are already
        in it and are skipped.  The returned offset excludes the torn
        tail, so :meth:`_trim_tail` can cut it before the first append.
        """
        data = path.read_bytes()
        valid_prefix = 0
        last_seq = self._seq  # the snapshot's high-water mark
        anchored = False  # has replay advanced past the snapshot?
        offset = 0
        line_no = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            complete = newline != -1
            end = newline + 1 if complete else len(data)
            raw = data[offset : newline if complete else len(data)]
            offset = end
            line_no += 1
            is_tail = end >= len(data)
            if not raw.strip():
                if not data[offset:].strip():
                    break  # trailing blank lines: artifacts of the final append
                raise LedgerIntegrityError(
                    f"ledger WAL {path} has a blank record at line {line_no}"
                )
            try:
                if not complete:
                    raise ValueError("record is missing its trailing newline")
                record = json.loads(raw.decode("utf-8"))
                seq = int(record["seq"])
                user_id = str(record["user"])
                epsilon = float(record["eps"])
                delta = float(record["delta"])
            except (
                UnicodeDecodeError,
                json.JSONDecodeError,
                KeyError,
                TypeError,
                ValueError,
            ) as exc:
                if is_tail:
                    # Torn trailing append: the process died mid-write, so
                    # the corresponding release was never served.  Drop it.
                    break
                raise LedgerIntegrityError(
                    f"ledger WAL {path} is corrupt at line {line_no}: {exc}"
                ) from exc
            valid_prefix = end
            if seq <= last_seq:
                continue  # already absorbed by the snapshot
            if anchored and seq != last_seq + 1:
                raise LedgerIntegrityError(
                    f"ledger WAL {path} sequence jumps from {last_seq} to {seq} "
                    f"at line {line_no}"
                )
            try:
                self._account(user_id).spend(epsilon, delta, label="wal-replay")
            except Exception as exc:  # budget overflow on replay = corrupt log
                raise LedgerIntegrityError(
                    f"ledger WAL {path} replays past the budget at line "
                    f"{line_no}: {exc}"
                ) from exc
            last_seq = seq
            anchored = True
        self._seq = last_seq
        return valid_prefix
