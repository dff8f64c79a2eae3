"""Injectable durable-I/O layer with seeded disk-fault injection.

Every durable-state writer in this repository — the atomic-write helpers,
the dataset cache, the budget ledger's WAL and snapshots, runner /
supervisor / federated checkpoints, quarantine sidecars, and the JSONL
heartbeat/audit journals — performs its filesystem side effects through
the VFS installed here instead of calling ``os`` directly (lint rule
PL015 enforces this for durable-path modules).  That single indirection
buys three things:

* **fault injection** — :class:`FaultyVFS` driven by a seeded
  :class:`DiskFaultPlan` (rates checked and faults tallied by
  :mod:`repro.core.faults`) turns the deployment failure modes that destroy
  real systems (``ENOSPC``, ``EIO``, torn writes at byte *k*, fsyncs
  that lie, slow devices, failing renames) into deterministic,
  replayable test inputs;
* **crash-point enumeration** — the faulty VFS logs every durable
  operation, so the sweep harness (:mod:`repro.core.crashsweep`) can
  re-run a writer and simulate a SIGKILL *before every single step* of
  its commit protocol — the dynamic counterpart of the static PL014
  commit-ordering analysis;
* **a durability model** — the faulty VFS tracks, per path, which bytes
  have actually been fsynced.  :meth:`FaultyVFS.simulate_crash` reverts
  the real filesystem to exactly that durable state (unfsynced suffixes
  are lost, renames publish only what the source inode had durably),
  which is what a power cut leaves behind.

Modelling note: rename/unlink *metadata* is treated as immediately
durable (journalled-filesystem semantics); what the model deliberately
loses is unfsynced *data*, because that is the failure PL014 exists to
prevent — ``os.replace`` publishing a name whose content never hit disk.

The production default (:class:`DurableVFS`) is a zero-overhead
pass-through to ``os``; nothing changes for normal runs.
"""

# The VFS primitives are the mechanism the commit-protocol rules credit:
# replace()/fsync() here are single delegated steps whose *ordering* is
# enforced at the call sites (atomic_writer, the WAL) and checked by
# PL014 through delegated-helper credit — flagging the primitives
# themselves would flag the mechanism, not a protocol violation.
# poiagg: disable=PL014

from __future__ import annotations

import errno as errno_module
import os
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

from repro.core.errors import ConfigError
from repro.core.faults import FaultCounts, check_rates
from repro.core.rng import derive_rng

__all__ = [
    "DISK_FAULT_KINDS",
    "DiskFaultPlan",
    "DurableVFS",
    "FaultyVFS",
    "SimulatedCrash",
    "VFSFile",
    "get_vfs",
    "install_vfs",
]

#: Every fault class the plan can inject, in taxonomy order.
DISK_FAULT_KINDS = (
    "enospc",
    "eio",
    "torn_write",
    "fsync_lie",
    "slow_io",
    "replace_failure",
)

#: Durable operations the fault layer mediates (and the sweep enumerates).
DURABLE_OPS = ("open", "write", "fsync", "replace", "unlink", "mkdir", "truncate")


class SimulatedCrash(BaseException):
    """The process 'died' at a planned crash point.

    Derives from :class:`BaseException` so writer-side ``except
    Exception`` containment (retry loops, keep-going harnesses) cannot
    swallow it — a SIGKILL is not catchable either.  Only the sweep
    harness that planted the crash point catches this.
    """

    def __init__(self, op_index: int, op: str, path: str) -> None:
        super().__init__(f"simulated crash at durable op #{op_index} ({op} {path})")
        self.op_index = op_index
        self.op = op
        self.path = path


class VFSFile:
    """A writable file handle whose side effects route through a VFS.

    Supports the minimal file protocol durable writers use: ``write``,
    ``flush``, ``close``, ``fileno``, context management, and ``name``.
    Reads never go through the VFS (torn *reads* are not a crash mode;
    integrity checking belongs to the readers).
    """

    def __init__(self, vfs: "DurableVFS", handle: "IO[Any]", path: Path, binary: bool) -> None:
        self._vfs = vfs
        self._handle = handle
        self._path = path
        self._binary = binary
        self.closed = False

    @property
    def name(self) -> str:
        return str(self._path)

    @property
    def path(self) -> Path:
        return self._path

    def fileno(self) -> int:
        return self._handle.fileno()

    def writable(self) -> bool:
        return True

    def write(self, data: "str | bytes") -> int:
        return self._route()._write(self, data)

    def _route(self) -> "DurableVFS":
        # A handle opened on the production disk follows whatever layer
        # is installed *now* — long-lived handles (the ledger's WAL) must
        # feel a mid-life install_vfs() the way a real file descriptor
        # feels the disk filling up.  A handle opened on an explicit
        # fault layer stays bound to it, so standalone FaultyVFS use
        # (unit tests, the sweep's counting run) is unaffected.
        if self._vfs is _DEFAULT_VFS:
            return _active_vfs
        return self._vfs

    def flush(self) -> None:
        self._handle.flush()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            # Flushes, and releases the file even when that flush fails:
            # bytes a refused write left in Python's buffer are dropped
            # here rather than written by a later garbage collection.
            self._handle.close()

    def __enter__(self) -> "VFSFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class DurableVFS:
    """The production durable-I/O layer: a direct pass-through to ``os``.

    Subclasses interpose on the narrow waist (`_write`, `_before_op`)
    rather than on every public method, so the fault/crash semantics stay
    in one place.
    """

    def open(
        self, path: "str | Path", mode: str = "w", encoding: "str | None" = None
    ) -> VFSFile:
        """Open *path* for writing (``w``/``wb``/``a``/``x`` modes only)."""
        if not any(flag in mode for flag in "wax"):
            raise ConfigError(f"VFS handles write modes only, got {mode!r}")
        path = Path(path)
        binary = "b" in mode
        self._before_op("open", path)
        handle = open(  # noqa: SIM115 — the VFSFile owns and closes it
            path, mode, encoding=None if binary else (encoding or "utf-8"),
            newline=None if binary else "",
        )
        return VFSFile(self, handle, path, binary)

    def fsync(self, fh: VFSFile) -> None:
        """Flush *fh* and force its bytes to stable storage."""
        fh.flush()
        self._before_op("fsync", fh.path)
        os.fsync(fh.fileno())
        self._after_fsync(fh.path)

    def replace(self, src: "str | Path", dst: "str | Path") -> None:
        """Atomically rename *src* over *dst* (the commit point)."""
        src, dst = Path(src), Path(dst)
        self._before_op("replace", dst)
        os.replace(src, dst)
        self._after_replace(src, dst)

    def unlink(self, path: "str | Path", *, missing_ok: bool = False) -> None:
        path = Path(path)
        self._before_op("unlink", path)
        try:
            os.unlink(path)
        except FileNotFoundError:
            if not missing_ok:
                raise
        self._after_unlink(path)

    def mkdir(
        self, path: "str | Path", *, parents: bool = False, exist_ok: bool = False
    ) -> None:
        path = Path(path)
        self._before_op("mkdir", path)
        path.mkdir(parents=parents, exist_ok=exist_ok)

    def truncate(self, path: "str | Path", length: int) -> None:
        """Cut *path* back to *length* bytes (torn-tail repair)."""
        path = Path(path)
        self._before_op("truncate", path)
        os.truncate(path, length)
        self._after_truncate(path, length)

    # -- interposition points ------------------------------------------

    def _write(self, fh: VFSFile, data: "str | bytes") -> int:
        self._before_op("write", fh.path, data=data)
        written = int(fh._handle.write(data))
        # Write-through: the OS sees every completed write immediately,
        # so a simulated crash never has Python-buffered bytes in limbo
        # (flush is not durability — only fsync advances the shadow).
        fh._handle.flush()
        return written

    def _before_op(self, op: str, path: Path, data: "str | bytes | None" = None) -> None:
        """Hook: fault injection / crash points happen here."""

    def _after_fsync(self, path: Path) -> None:
        """Hook: the durability model marks *path*'s bytes stable here."""

    def _after_replace(self, src: Path, dst: Path) -> None:
        """Hook: the durability model moves *src*'s durable state to *dst*."""

    def _after_unlink(self, path: Path) -> None:
        """Hook: the durability model forgets *path* here."""

    def _after_truncate(self, path: Path, length: int) -> None:
        """Hook: the durability model cuts *path*'s durable bytes here."""


@dataclass(frozen=True)
class DiskFaultPlan:
    """Seeded description of how a disk misbehaves.

    Rates are per-eligible-operation probabilities drawn from one
    generator derived from *seed*, so a given ``(plan, writer)`` pairing
    replays identically.  Deterministic triggers (``crash_at_op``,
    ``fail_op_index``) exist for the sweep harness: probability-free,
    exhaustive coverage of every commit step.

    Parameters
    ----------
    enospc_rate / eio_rate:
        Probability a ``write``/``open``/``replace`` raises
        ``OSError(ENOSPC)`` / ``OSError(EIO)``.
    torn_write_rate:
        Probability a write persists only a prefix of its payload before
        raising ``OSError(EIO)`` — an interrupted transfer.
    fsync_lie_rate:
        Probability an fsync reports success without making the bytes
        durable (battery-less write cache, lying virtio flush).
    slow_io_rate / slow_io_s:
        Probability an operation stalls for ``slow_io_s`` wall seconds.
    replace_failure_rate:
        Probability an ``os.replace`` raises ``OSError(EIO)`` *without*
        renaming (the commit never happens).
    crash_at_op:
        1-based durable-op index at which to raise
        :class:`SimulatedCrash` *instead of* performing the operation.
    crash_mode:
        ``"before"`` (die before op ``crash_at_op``) or ``"torn"`` (if
        that op is a write, persist a prefix, then die).
    lie_at_fsync:
        1-based fsync ordinal that silently lies (sweep mode
        ``fsync-lie``); independent of ``fsync_lie_rate``.
    path_substring:
        Restrict all faults to paths containing this substring.
    max_faults:
        Budget on probabilistic faults injected (crash/lie triggers are
        exempt); keeps chaos runs from degenerating into pure noise.
    """

    seed: int = 0
    enospc_rate: float = 0.0
    eio_rate: float = 0.0
    torn_write_rate: float = 0.0
    fsync_lie_rate: float = 0.0
    slow_io_rate: float = 0.0
    slow_io_s: float = 0.0
    replace_failure_rate: float = 0.0
    crash_at_op: "int | None" = None
    crash_mode: str = "before"
    lie_at_fsync: "int | None" = None
    path_substring: str = ""
    max_faults: "int | None" = None

    def __post_init__(self) -> None:
        check_rates(self, (f"{kind}_rate" for kind in DISK_FAULT_KINDS))
        if self.slow_io_s < 0:
            raise ConfigError(f"slow_io_s must be >= 0, got {self.slow_io_s}")
        if self.crash_mode not in ("before", "torn"):
            raise ConfigError(
                f"crash_mode must be 'before' or 'torn', got {self.crash_mode!r}"
            )
        if self.crash_at_op is not None and self.crash_at_op < 1:
            raise ConfigError(f"crash_at_op is 1-based, got {self.crash_at_op}")
        if self.lie_at_fsync is not None and self.lie_at_fsync < 1:
            raise ConfigError(f"lie_at_fsync is 1-based, got {self.lie_at_fsync}")

    @property
    def any_random_faults(self) -> bool:
        return any(getattr(self, f"{kind}_rate") > 0 for kind in DISK_FAULT_KINDS)


class FaultyVFS(DurableVFS):
    """A :class:`DurableVFS` that misbehaves according to a seeded plan.

    Besides injecting faults, it maintains the *durability shadow*: for
    every path it touches, the byte content that would survive a power
    cut right now.  Writes land on the real filesystem immediately (a
    healthy run is indistinguishable from the production VFS), but only
    an honest fsync advances a file's durable snapshot, and only
    :meth:`simulate_crash` applies the difference.

    Each rate is rolled independently per eligible operation, and
    :attr:`counts` tallies the injected faults by kind
    (:data:`DISK_FAULT_KINDS`); :attr:`n_ops` and :attr:`n_fsyncs` count
    the eligible operations it mediated.
    """

    def __init__(self, plan: "DiskFaultPlan | None" = None) -> None:
        self.plan = plan if plan is not None else DiskFaultPlan()
        self._rng = derive_rng(self.plan.seed, "disk-faults")
        self._lock = threading.RLock()
        #: durable content per path; ``None`` = durably absent.
        self._durable: dict[str, "bytes | None"] = {}
        #: paths whose current on-disk content may exceed their durable state.
        self._touched: set[str] = set()
        self.counts = FaultCounts()
        self.n_ops = 0
        self.n_fsyncs = 0
        self.op_log: list[tuple[str, str]] = []

    # -- observability --------------------------------------------------

    def durable_bytes(self, path: "str | Path") -> "bytes | None":
        """The content of *path* that would survive a crash right now."""
        with self._lock:
            self._track(Path(path))
            return self._durable.get(str(Path(path)))

    # -- the durability shadow -----------------------------------------

    def _track(self, path: Path) -> None:
        key = str(path)
        if key in self._durable:
            return
        # Directories carry no content to shadow — their creation is
        # metadata, treated as immediately durable like renames.
        if path.is_dir():
            return
        # First touch: whatever is on disk now predates the fault window
        # and is assumed durable.
        self._durable[key] = path.read_bytes() if path.exists() else None

    def _after_fsync(self, path: Path) -> None:
        with self._lock:
            self._durable[str(path)] = path.read_bytes() if path.exists() else None

    def _after_replace(self, src: Path, dst: Path) -> None:
        with self._lock:
            # The rename's metadata is durable (journalled FS); the data
            # visible under dst after a crash is whatever src had durably.
            src_durable = self._durable.get(str(src))
            self._durable[str(dst)] = src_durable if src_durable is not None else b""
            self._durable[str(src)] = None
            self._touched.add(str(dst))

    def _after_unlink(self, path: Path) -> None:
        with self._lock:
            self._durable[str(path)] = None

    def _after_truncate(self, path: Path, length: int) -> None:
        with self._lock:
            durable = self._durable.get(str(path))
            if durable is not None:
                self._durable[str(path)] = durable[:length]

    def simulate_crash(self) -> list[str]:
        """Revert the real filesystem to the durable shadow.

        Called by the sweep harness after catching
        :class:`SimulatedCrash` (or at any point during a chaos run):
        every touched path is rewritten to its durable content — or
        removed if it was never durably created.  Returns the paths that
        changed, i.e. the data a real crash would have eaten.
        """
        with self._lock:
            reverted: list[str] = []
            for key, durable in self._durable.items():
                path = Path(key)
                if path.is_dir():
                    continue
                on_disk = path.read_bytes() if path.exists() else None
                if on_disk == durable:
                    continue
                if durable is None:
                    path.unlink(missing_ok=True)
                else:
                    path.write_bytes(durable)
                reverted.append(key)
            return sorted(reverted)

    # -- fault injection ------------------------------------------------

    def _eligible(self, path: Path) -> bool:
        return self.plan.path_substring in str(path)

    def _budget_left(self) -> bool:
        budget = self.plan.max_faults
        return budget is None or self.counts.total < budget

    def _roll(self, rate: float) -> bool:
        if rate <= 0.0 or not self._budget_left():
            return False
        return bool(self._rng.random() < rate)

    def _os_error(self, code: int, op: str, path: Path) -> OSError:
        return OSError(code, f"injected {op} fault", str(path))

    def _before_op(self, op: str, path: Path, data: "str | bytes | None" = None) -> None:
        if not self._eligible(path):
            return
        with self._lock:
            self._track(path)
            self.n_ops += 1
            index = self.n_ops
            self.op_log.append((op, str(path)))
            if op == "fsync":
                self.n_fsyncs += 1
            plan = self.plan
            if plan.crash_at_op is not None and index >= plan.crash_at_op:
                if plan.crash_mode == "torn" and op == "write" and data is not None:
                    self._tear_write(path, data, crash=True)
                raise SimulatedCrash(index, op, str(path))
            if plan.lie_at_fsync is not None and op == "fsync":
                if self.n_fsyncs == plan.lie_at_fsync:
                    self.counts.count("fsync_lie")
                    raise _FsyncLied()
            if self._roll(plan.slow_io_rate):
                self.counts.count("slow_io")
                time.sleep(plan.slow_io_s)
            if op in ("open", "write") and self._roll(plan.enospc_rate):
                self.counts.count("enospc")
                raise self._os_error(errno_module.ENOSPC, op, path)
            if op in ("open", "write", "fsync") and self._roll(plan.eio_rate):
                self.counts.count("eio")
                raise self._os_error(errno_module.EIO, op, path)
            if op == "write" and data is not None and self._roll(plan.torn_write_rate):
                self.counts.count("torn_write")
                self._tear_write(path, data, crash=False)
                raise self._os_error(errno_module.EIO, "torn write", path)
            if op == "fsync" and self._roll(plan.fsync_lie_rate):
                self.counts.count("fsync_lie")
                raise _FsyncLied()
            if op == "replace" and self._roll(plan.replace_failure_rate):
                self.counts.count("replace_failure")
                raise self._os_error(errno_module.EIO, "replace", path)

    def _tear_write(self, path: Path, data: "str | bytes", crash: bool) -> None:
        """Persist a strict prefix of *data* directly (bypassing the VFS)."""
        raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        if not raw:
            return
        k = int(self._rng.integers(0, len(raw)))
        with open(path, "ab") as out:
            out.write(raw[:k])
        self._touched.add(str(path))

    # -- fsync-lie plumbing ---------------------------------------------

    def fsync(self, fh: VFSFile) -> None:
        """Like the honest fsync, but a lying one skips the durable mark."""
        fh.flush()
        try:
            self._before_op("fsync", fh.path)
        except _FsyncLied:
            return  # reported success; durable shadow NOT advanced
        os.fsync(fh.fileno())
        self._after_fsync(fh.path)

    def _write(self, fh: VFSFile, data: "str | bytes") -> int:
        written = super()._write(fh, data)
        with self._lock:
            self._touched.add(str(fh.path))
        return written


class _FsyncLied(Exception):
    """Internal control flow: the fsync 'succeeded' but synced nothing."""


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

_DEFAULT_VFS = DurableVFS()
_active_vfs: DurableVFS = _DEFAULT_VFS
_install_lock = threading.Lock()


def get_vfs() -> DurableVFS:
    """The currently installed durable-I/O layer (production by default)."""
    return _active_vfs


@contextmanager
def install_vfs(vfs: DurableVFS) -> Iterator[DurableVFS]:
    """Route all durable I/O through *vfs* for the duration of the block.

    Installation is process-global (the point is that *every* writer in
    the process sees the same disk), guarded against concurrent installs,
    and always restored — including when the block exits via
    :class:`SimulatedCrash`.
    """
    global _active_vfs
    with _install_lock:
        if _active_vfs is not _DEFAULT_VFS:
            raise ConfigError("a non-default VFS is already installed")
        _active_vfs = vfs
    try:
        yield vfs
    finally:
        with _install_lock:
            _active_vfs = _DEFAULT_VFS

