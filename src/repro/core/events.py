"""The one append-only JSONL event log behind every journal.

The shard supervisor, the federated campaign and the serve layer each
keep a journal an operator can tail: launches, fates, retries, crashes
and heartbeats, one JSON object per line::

    {"t": 12.5, "event": "queued", "job_id": "j000001", "user_id": "u7"}

``t`` comes from the :class:`~repro.core.clock.Clock` the owner passes
in: seconds on the monotonic clock in production, simulated seconds in
tests.  Lines are written through the installed VFS, so disk-fault
plans reach the journal too.

Append-only logs cannot be committed by rename, so a journal is
advisory: durable state lives in the ledger and the checkpoints.  The
log owns two robustness properties:

* **bounded disk** — with ``max_bytes`` set, once the active file holds
  that many UTF-8 bytes it is renamed to ``<name>.1``, older
  generations shift up to ``<name>.3``, and the generation that would
  become the fourth is unlinked;
* **graceful degradation** — telemetry must never take its owner down:
  any ``OSError`` while opening, writing or rotating disables the log
  and records why in :attr:`EventLog.disabled_reason`.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

from repro.core.clock import Clock
from repro.core.vfs import VFSFile, get_vfs

__all__ = ["KEEP_ROTATED", "EventLog"]

#: Rotated generations kept next to the active file.
KEEP_ROTATED = 3


class EventLog:
    """Thread-safe JSONL event sink; a ``None`` path makes it a no-op."""

    def __init__(
        self, path: "str | Path | None", clock: Clock, *, max_bytes: "int | None" = None
    ) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._path = None if path is None else Path(path)
        self._max_bytes = max_bytes
        self._handle: "VFSFile | None" = None
        self._offset = 0
        self.disabled_reason: "str | None" = None
        if self._path is not None:
            vfs = get_vfs()
            try:
                vfs.mkdir(self._path.parent, parents=True, exist_ok=True)
                self._handle = vfs.open(self._path, "a")
                self._offset = self._path.stat().st_size
            except OSError as exc:
                self._disable_locked(f"journal open refused: {exc}")

    @property
    def enabled(self) -> bool:
        return self._handle is not None

    def event(self, kind: str, **fields: Any) -> None:
        """Append one ``{"t", "event", **fields}`` record."""
        if self._handle is None:
            return
        record = {"t": self._clock.now(), "event": kind, **fields}
        line = json.dumps(record, ensure_ascii=False, separators=(",", ":"), default=str)
        line += "\n"
        with self._lock:
            if self._handle is None:
                return
            try:
                self._handle.write(line)
            except OSError as exc:
                self._disable_locked(f"journal write refused: {exc}")
                return
            # Count on-disk bytes, not characters: non-ASCII fields would
            # otherwise rotate later than ``max_bytes`` promises.
            self._offset += len(line.encode("utf-8"))
            if self._max_bytes is not None and self._offset >= self._max_bytes:
                self._rotate_locked()

    def _rotate_locked(self) -> None:
        assert self._handle is not None and self._path is not None
        vfs = get_vfs()
        try:
            self._handle.close()
            vfs.unlink(self._generation(KEEP_ROTATED), missing_ok=True)
            for gen in range(KEEP_ROTATED - 1, 0, -1):
                if self._generation(gen).exists():
                    vfs.replace(self._generation(gen), self._generation(gen + 1))
            vfs.replace(self._path, self._generation(1))
            self._handle = vfs.open(self._path, "a")
            self._offset = 0
        except OSError as exc:
            self._disable_locked(f"journal rotation refused: {exc}")

    def _generation(self, k: int) -> Path:
        assert self._path is not None
        return self._path.with_name(f"{self._path.name}.{k}")

    def _disable_locked(self, reason: str) -> None:
        self.disabled_reason = reason
        self._close_locked()

    def _close_locked(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            self._close_locked()
