"""Supervised shard execution: timeouts, retries, crash isolation, resume.

:func:`repro.experiments.parallel.run_sharded` splits an experiment along
its dataset/city axis and runs each shard in its own process, always
through this module.  A bare process pool would be brittle at paper
scale: one hung worker stalls the whole sweep, one OOM-killed worker
aborts it and discards every completed shard.  The supervisor instead
starts one fresh process per shard attempt and adds, as the
:class:`ShardPolicy` asks:

* **timeouts** — every shard attempt has a wall-clock deadline; a worker
  that runs past it is SIGKILLed and the shard is rescheduled (hung
  workers cannot stall the sweep);
* **retries** — each shard gets a bounded number of attempts, each on a
  fresh process, so transient crashes (OOM kills, infra flakes) do not
  fail the sweep;
* **crash isolation** — a worker death fails only its shard; with
  ``serial_fallback`` the shard is re-run in the parent process after
  the parallel phase (the analogue of surviving ``BrokenProcessPool``);
* **shard checkpoints** — every completed shard atomically persists its
  rows under ``<out>/.checkpoints/shards/``, so ``resume=True`` re-runs
  only incomplete shards.  Because every runner derives randomness from
  ``(seed, labels)``, a resumed sweep is bit-identical to an
  uninterrupted one;
* **journal** — a JSONL progress/heartbeat journal
  (``<out>/.checkpoints/journal.jsonl``, a
  :class:`~repro.core.events.EventLog` stamped by the monotonic
  :class:`~repro.core.clock.SystemClock`) records every launch, fate,
  retry, and a periodic heartbeat naming the in-flight shards, so an
  operator can see which shard is running, stalled, or being retried.

Each shard's life is summarised in a :class:`ShardReport`; the merged
:class:`~repro.experiments.results.ExperimentResult` carries the reports
in its ``provenance``.  The state machine per shard::

    pending -> running -> ok                      (first attempt worked)
                       -> retried                 (a later attempt worked)
                       -> timed_out | crashed | failed   (budget exhausted)
    crashed --serial_fallback--> ok/retried       (re-run in the parent)
    checkpoint match -> resumed                   (never launched)

Testing hook: a seeded :class:`WorkerFaultPlan` (rates checked and
picked by :mod:`repro.core.faults`) makes workers deterministically
crash (``os._exit``), hang, or raise mid-shard, which the chaos suite
uses to drive every supervision path.
"""

# This module IS the sanctioned timing boundary: shard completed_at
# marks and attempt durations are operator telemetry outside the
# checkpointed rows (shard resume matches on (experiment, scale,
# seed, shard)), so wall-clock reads here cannot break resume
# bit-identity.
# poiagg: disable=PL005

from __future__ import annotations

import json
import multiprocessing
import os
import re
import time
import traceback
from collections import deque
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path

from repro.core.clock import SystemClock
from repro.core.errors import ConfigError, TransientError
from repro.core.events import EventLog
from repro.core.faults import check_rates, pick
from repro.core.rng import derive_rng
from repro.core.vfs import get_vfs
from repro.experiments.registry import get_experiment
from repro.experiments.runner import load_checkpoint, write_checkpoint
from repro.experiments.scale import ExperimentScale

__all__ = [
    "ShardPolicy",
    "ShardReport",
    "WorkerFaultPlan",
    "supervise_shards",
    "shard_checkpoint_path",
    "shard_journal_path",
    "clear_shard_checkpoints",
]

_SHARD_CHECKPOINT_DIR = Path(".checkpoints") / "shards"
_JOURNAL_NAME = "journal.jsonl"

#: Exit code an injected crash dies with (distinguishable from SIGKILL).
_CRASH_EXIT = 87

_FAULT_FATES = ("crash", "hang", "error", "ok")

#: One uniform per ``(shard, attempt)`` picks at most one of these; fault
#: kind -> rate field of :class:`WorkerFaultPlan`.
_WORKER_RATES = {fate: f"{fate}_rate" for fate in _FAULT_FATES if fate != "ok"}


@dataclass(frozen=True)
class ShardPolicy:
    """Supervision knobs for one sharded run.

    ``retries`` counts *extra* attempts after the first, each on a fresh
    worker process; ``timeout_s`` is the per-attempt wall-clock budget
    (``None`` — never kill).  ``serial_fallback`` re-runs a shard whose
    workers kept crashing in the parent process once the parallel phase
    is over (never applied to timeouts: what hung a worker would hang
    the parent).
    """

    timeout_s: "float | None" = None
    retries: int = 0
    serial_fallback: bool = False
    poll_interval_s: float = 0.05
    heartbeat_interval_s: float = 5.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive or None, got {self.timeout_s}")
        if self.retries < 0:
            raise ConfigError(f"retries must be non-negative, got {self.retries}")
        if self.poll_interval_s <= 0 or self.heartbeat_interval_s <= 0:
            raise ConfigError("poll_interval_s and heartbeat_interval_s must be positive")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1


@dataclass
class ShardReport:
    """Fate of one shard under supervision.

    ``status`` is the terminal state of the shard state machine:
    ``ok`` (first attempt succeeded), ``retried`` (a later attempt or the
    serial fallback succeeded), ``resumed`` (loaded from a matching
    checkpoint), or the failures ``timed_out`` / ``crashed`` / ``failed``
    (exception in the worker) once the attempt budget is exhausted.
    """

    shard: object
    status: str = "pending"
    attempts: int = 0
    durations_s: list = field(default_factory=list)
    error: "str | None" = None
    traceback: "str | None" = None
    serial_fallback: bool = False
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "retried", "resumed")


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Deterministic worker-level faults for chaos-testing the supervisor.

    Declarative rates, one seeded uniform per decision (picked into a
    fault by :func:`repro.core.faults.pick`), and the whole fault
    timeline a pure function of the plan.  The uniform is derived per
    ``(seed, shard, attempt)`` — not consumed sequentially — so fates do
    not depend on scheduling order.

    ``overrides`` pins specific shards to a fate (``"crash"`` —
    ``os._exit`` mid-shard, ``"hang"`` — sleep ``hang_s``, ``"error"`` —
    raise, ``"ok"`` — healthy); unlisted shards roll the rates.  Attempts
    beyond ``max_faults_per_shard`` are always healthy, which is how
    tests prove deterministic retry success on attempt N+1.
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    seed: int = 0
    max_faults_per_shard: int = 1
    hang_s: float = 3600.0
    overrides: tuple = ()

    def __post_init__(self) -> None:
        check_rates(
            self,
            _WORKER_RATES.values(),
            exceeds="worker fault rates (crash + hang + error) exceed 1",
        )
        if self.hang_s < 0:
            raise ConfigError(f"hang_s must be non-negative, got {self.hang_s}")
        if self.max_faults_per_shard < 0:
            raise ConfigError("max_faults_per_shard must be non-negative")
        for entry in self.overrides:
            if len(entry) != 2 or entry[1] not in _FAULT_FATES:
                raise ConfigError(
                    f"overrides entries must be (shard, fate) with fate in {_FAULT_FATES}"
                )

    def decide(self, shard_value: object, attempt: int) -> "str | None":
        """Fate of this ``(shard, attempt)``: None (healthy) or a fault name."""
        if attempt > self.max_faults_per_shard:
            return None
        for value, fate in self.overrides:
            if value == shard_value:
                return None if fate == "ok" else fate
        u = float(derive_rng(self.seed, "worker-fault", shard_value, attempt).random())
        return pick(u, self, _WORKER_RATES)


# --- checkpoint / journal layout ---


def _slug(value: object) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "-", str(value))


def shard_checkpoint_path(
    out: "Path | str", experiment_id: str, scale: ExperimentScale, shard_value: object
) -> Path:
    """Where the checkpoint for one completed shard lives."""
    name = f"{experiment_id}_{scale.name}_{_slug(shard_value)}.json"
    return Path(out) / _SHARD_CHECKPOINT_DIR / name


def shard_journal_path(out: "Path | str") -> Path:
    """The JSONL progress/heartbeat journal for sharded runs under *out*."""
    return Path(out) / ".checkpoints" / _JOURNAL_NAME


def clear_shard_checkpoints(
    out: "Path | str", experiment_id: str, scale: ExperimentScale
) -> int:
    """Delete the per-shard checkpoints of one ``(experiment, scale)``.

    Called by :func:`repro.experiments.runner.run_many` once the
    experiment-level checkpoint is written: the shard checkpoints are
    subsumed and keeping them would only let a later, different sweep
    resume from stale partials.  Returns the number of files removed.
    """
    removed = 0
    vfs = get_vfs()
    shard_dir = Path(out) / _SHARD_CHECKPOINT_DIR
    for path in shard_dir.glob(f"{experiment_id}_{scale.name}_*.json"):
        vfs.unlink(path, missing_ok=True)
        removed += 1
    return removed


def _config_key(kwargs: dict) -> str:
    """A stable fingerprint of the runner kwargs a shard was run with."""
    return json.dumps(kwargs, sort_keys=True, default=repr)


def _checkpoint_matches(
    checkpoint: "dict | None",
    experiment_id: str,
    scale: ExperimentScale,
    shard_param: str,
    shard_value: object,
    kwargs: dict,
) -> bool:
    if not isinstance(checkpoint, dict) or "result" not in checkpoint:
        return False
    return (
        checkpoint.get("experiment_id") == experiment_id
        and checkpoint.get("scale") == scale.name
        and checkpoint.get("seed") == scale.seed
        and checkpoint.get("shard_param") == shard_param
        and checkpoint.get("shard_value") == shard_value
        and checkpoint.get("config_key") == _config_key(kwargs)
    )


# --- the worker side ---


def _run_shard_in_process(
    experiment_id: str,
    scale_fields: dict,
    shard_param: str,
    shard_value: object,
    kwargs: dict,
) -> dict:
    """Run one shard in the current process and return the result dict."""
    scale = ExperimentScale(**scale_fields)
    runner = get_experiment(experiment_id)
    result = runner(scale=scale, **{shard_param: (shard_value,)}, **kwargs)
    return asdict(result)


def _supervised_worker(
    conn: mp_connection.Connection,
    experiment_id: str,
    scale_fields: dict,
    shard_param: str,
    shard_value: object,
    kwargs: dict,
    fault_plan: "WorkerFaultPlan | None",
    attempt: int,
) -> None:
    """Worker entry point: run one shard attempt, report over *conn*.

    Sends ``("ok", result_dict)`` or ``("error", type, message,
    traceback)``; a crashed worker sends nothing and the supervisor
    detects the dead process.  Injected faults fire before the runner so
    chaos tests stay cheap; the supervision semantics are identical to a
    fault mid-computation.
    """
    try:
        if fault_plan is not None:
            fate = fault_plan.decide(shard_value, attempt)
            if fate == "crash":
                os._exit(_CRASH_EXIT)  # simulate an OOM kill: no cleanup, no message
            elif fate == "hang":
                time.sleep(fault_plan.hang_s)
            elif fate == "error":
                raise TransientError(
                    f"injected worker fault in shard {shard_value!r} (attempt {attempt})"
                )
        payload = _run_shard_in_process(
            experiment_id, scale_fields, shard_param, shard_value, kwargs
        )
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 — must cross the process boundary
        try:
            conn.send(("error", type(exc).__name__, str(exc), traceback.format_exc()))
        except Exception:
            pass  # parent is gone or pipe broken: nothing left to report to
    finally:
        conn.close()


# --- the supervisor side ---


@dataclass
class _Attempt:
    """One in-flight worker process."""

    index: int
    attempt_no: int
    proc: object
    conn: object
    started_at: float
    deadline: "float | None"


def _reap(att: _Attempt) -> None:
    """Make sure an attempt's process and pipe are fully gone."""
    if att.proc.is_alive():
        att.proc.kill()
    att.proc.join(timeout=5.0)
    att.conn.close()


def supervise_shards(
    experiment_id: str,
    scale: ExperimentScale,
    shards: Sequence,
    shard_param: str,
    kwargs: "dict | None" = None,
    *,
    max_workers: int,
    policy: "ShardPolicy | None" = None,
    out: "Path | str | None" = None,
    resume: bool = False,
    journal_path: "Path | str | None" = None,
    fault_plan: "WorkerFaultPlan | None" = None,
) -> tuple[list, list[ShardReport]]:
    """Run every shard under supervision; never abandons completed work.

    Returns ``(partials, reports)`` in shard order, where ``partials[i]``
    is the shard's ``ExperimentResult`` as a dict (``None`` if the shard
    failed terminally) and ``reports[i]`` its :class:`ShardReport`.
    A failing shard does not abort the others: the sweep always runs to
    completion and the caller decides what a failure means.

    With *out* set, completed shards checkpoint atomically under
    ``<out>/.checkpoints/shards/`` and ``resume=True`` skips shards whose
    checkpoint matches ``(experiment, scale, seed, shard, kwargs)``; the
    journal defaults to ``<out>/.checkpoints/journal.jsonl``.
    """
    kwargs = dict(kwargs or {})
    policy = policy if policy is not None else ShardPolicy()
    if resume and out is None:
        raise ConfigError("shard-level resume needs an output directory for checkpoints")
    if journal_path is None and out is not None:
        journal_path = shard_journal_path(out)
    journal = EventLog(journal_path, SystemClock())
    scale_fields = asdict(scale)
    ctx = multiprocessing.get_context()

    reports = [ShardReport(shard=value) for value in shards]
    partials: list = [None] * len(shards)
    pending: deque[int] = deque()
    fallback_queue: list[int] = []

    for i, value in enumerate(shards):
        ckpt = (
            load_checkpoint(shard_checkpoint_path(out, experiment_id, scale, value))
            if resume and out is not None
            else None
        )
        if _checkpoint_matches(ckpt, experiment_id, scale, shard_param, value, kwargs):
            partials[i] = ckpt["result"]
            reports[i].status = "resumed"
            reports[i].resumed = True
            journal.event("resume", shard=value)
        else:
            pending.append(i)

    def _launch(index: int) -> _Attempt:
        report = reports[index]
        report.attempts += 1
        report.status = "running"
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_supervised_worker,
            args=(
                child_conn,
                experiment_id,
                scale_fields,
                shard_param,
                shards[index],
                kwargs,
                fault_plan,
                report.attempts,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        now = time.monotonic()
        deadline = now + policy.timeout_s if policy.timeout_s is not None else None
        journal.event(
            "start",
            shard=shards[index],
            attempt=report.attempts,
            pid=proc.pid,
            timeout_s=policy.timeout_s,
        )
        return _Attempt(index, report.attempts, proc, parent_conn, now, deadline)

    def _checkpoint(index: int) -> None:
        if out is None:
            return
        write_checkpoint(
            shard_checkpoint_path(out, experiment_id, scale, shards[index]),
            {
                "experiment_id": experiment_id,
                "scale": scale.name,
                "seed": scale.seed,
                "shard_param": shard_param,
                "shard_value": shards[index],
                "config_key": _config_key(kwargs),
                "completed_at": time.time(),
                "result": partials[index],
            },
        )

    def _succeed(att: _Attempt, payload: dict) -> None:
        report = reports[att.index]
        report.durations_s.append(round(time.monotonic() - att.started_at, 4))
        report.status = "ok" if report.attempts == 1 else "retried"
        report.error = report.traceback = None
        partials[att.index] = payload
        try:
            _checkpoint(att.index)
        except OSError as exc:
            # Disk pressure is contained to this shard: its result (in
            # memory) still merges into the sweep, only resumability is
            # lost.  atomic_writer guarantees no torn checkpoint exists.
            report.error = f"checkpoint write refused: {exc}"
            journal.event(
                "checkpoint_failed", shard=shards[att.index], error=str(exc)
            )
        journal.event(
            "ok",
            shard=shards[att.index],
            attempt=att.attempt_no,
            elapsed_s=report.durations_s[-1],
        )

    def _fail(att: _Attempt, kind: str, error: str, tb: "str | None" = None) -> None:
        """One attempt failed: retry on a fresh worker, fall back, or give up."""
        report = reports[att.index]
        report.durations_s.append(round(time.monotonic() - att.started_at, 4))
        report.error = error
        report.traceback = tb
        journal.event(
            kind,
            shard=shards[att.index],
            attempt=att.attempt_no,
            elapsed_s=report.durations_s[-1],
            error=error,
        )
        if att.attempt_no < policy.max_attempts:
            journal.event("retry", shard=shards[att.index], next_attempt=att.attempt_no + 1)
            pending.append(att.index)
            return
        report.status = kind
        if kind == "crashed" and policy.serial_fallback:
            fallback_queue.append(att.index)

    running: dict = {}  # conn -> _Attempt
    last_heartbeat = time.monotonic()
    try:
        while pending or running:
            while pending and len(running) < max_workers:
                att = _launch(pending.popleft())
                running[att.conn] = att

            ready = mp_connection.wait(list(running), timeout=policy.poll_interval_s)
            for conn in ready:
                att = running.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None
                _reap(att)
                if message is None:
                    _fail(
                        att,
                        "crashed",
                        f"worker pid {att.proc.pid} died without a result "
                        f"(exitcode {att.proc.exitcode})",
                    )
                elif message[0] == "ok":
                    _succeed(att, message[1])
                else:
                    _, exc_type, exc_msg, tb = message
                    _fail(att, "failed", f"{exc_type}: {exc_msg}", tb)

            now = time.monotonic()
            for conn, att in list(running.items()):
                if conn.poll():
                    continue  # a result arrived since wait(); next iteration reads it
                if att.deadline is not None and now >= att.deadline:
                    del running[conn]
                    _reap(att)
                    _fail(
                        att,
                        "timed_out",
                        f"shard attempt exceeded timeout_s={policy.timeout_s} "
                        f"(attempt {att.attempt_no}); worker killed",
                    )
                elif not att.proc.is_alive():
                    del running[conn]
                    _reap(att)
                    _fail(
                        att,
                        "crashed",
                        f"worker pid {att.proc.pid} died without a result "
                        f"(exitcode {att.proc.exitcode})",
                    )

            if now - last_heartbeat >= policy.heartbeat_interval_s and running:
                last_heartbeat = now
                journal.event(
                    "heartbeat",
                    running=[
                        {
                            "shard": shards[att.index],
                            "attempt": att.attempt_no,
                            "pid": att.proc.pid,
                            "elapsed_s": round(now - att.started_at, 1),
                        }
                        for att in running.values()
                    ],
                )

        for index in fallback_queue:
            report = reports[index]
            journal.event("fallback", shard=shards[index])
            start = time.monotonic()
            report.attempts += 1
            try:
                payload = _run_shard_in_process(
                    experiment_id, scale_fields, shard_param, shards[index], kwargs
                )
            except Exception as exc:  # noqa: BLE001 — fold into the shard's report
                report.durations_s.append(round(time.monotonic() - start, 4))
                report.error = f"serial fallback failed too: {type(exc).__name__}: {exc}"
                report.traceback = traceback.format_exc()
                journal.event("fallback_failed", shard=shards[index], error=report.error)
                continue
            report.durations_s.append(round(time.monotonic() - start, 4))
            report.status = "retried"
            report.serial_fallback = True
            report.error = report.traceback = None
            partials[index] = payload
            try:
                _checkpoint(index)
            except OSError as exc:
                report.error = f"checkpoint write refused: {exc}"
                journal.event(
                    "checkpoint_failed", shard=shards[index], error=str(exc)
                )
            journal.event("fallback_ok", shard=shards[index])
    finally:
        for att in running.values():
            _reap(att)
        journal.event(
            "done",
            ok=sum(1 for r in reports if r.ok),
            failed=sum(1 for r in reports if not r.ok),
        )
        journal.close()
    return partials, reports
