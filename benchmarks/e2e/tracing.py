"""Outside-in span tracing: wrap public entry points, keep spans in memory.

The benchmark times each layer from its own files: :class:`Tracer`
replaces the public methods listed in :data:`TARGETS` with wrappers that
record a span (name, thread, monotonic start and end, parent span, a few
attributes) and restores the originals on :meth:`Tracer.uninstall`.  A
per-thread stack gives every span its parent, so a span's self time is
its duration minus the time its children cover.  Durable I/O is counted
by :class:`CountingVFS`, a ``DurableVFS`` subclass installed through
``repro.core.vfs.install_vfs``.

Spans stay in memory until :func:`write_jsonl`.  Timestamps come
from ``time.monotonic`` so they compare with the service's own
``Job.submitted_at`` / ``finished_at`` (``SystemClock`` is monotonic too).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.vfs import DurableVFS, VFSFile, install_vfs

__all__ = ["TARGETS", "CountingVFS", "Span", "Tracer", "read_jsonl", "write_jsonl"]


def _n_rows(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    # freq_batch(xy, radius) / fit(X, y) / spend_batch(spends): the first
    # positional argument after self is the batch.
    batch = args[1] if len(args) > 1 else next(iter(kwargs.values()), ())
    return {"n": len(batch)}


def _submit_attrs(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    job = getattr(result, "job", None)
    return {"status": getattr(result, "status", None), "job": job.job_id if job else None}


def _finalize_attrs(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    job = args[1]
    fate = args[2] if len(args) > 2 else kwargs.get("fate")
    return {"job": job.job_id, "fate": fate, "submitted_at": job.submitted_at}


def _spend_attrs(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    outcomes = result or []
    return {"n": len(outcomes), "refused": sum(1 for o in outcomes if o is not None)}


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module.owner.attr`` (owner None: module)."""

    module: str
    owner: "str | None"
    attr: str
    span: str
    attrs: "Callable[[tuple, dict, Any], dict[str, Any]] | None" = None


#: Every entry point the traced run wraps.  ``sample_targets`` is wrapped
#: where the experiments look it up as well as where it is defined.
#: ``BinarySVC.decision_function`` carries the ``predict`` span because
#: ``OneVsRestSVC.predict`` reaches the binary machines through it.
TARGETS: tuple[Target, ...] = (
    Target("repro.serve.service", "ReleaseService", "submit", "serve.service.submit",
           _submit_attrs),
    Target("repro.serve.ledger", "BudgetLedger", "spend_batch", "serve.ledger.spend_batch",
           _spend_attrs),
    Target("repro.serve.ledger", "BudgetLedger", "would_refuse", "serve.ledger.would_refuse"),
    Target("repro.serve.jobs", "JobStore", "finalize", "serve.jobs.finalize", _finalize_attrs),
    Target("repro.poi.database", "POIDatabase", "freq_batch", "poi.freq_batch", _n_rows),
    Target("repro.poi.database", "POIDatabase", "anchor_freqs", "poi.anchor_freqs"),
    Target("repro.defense.sanitization", "Sanitizer", "sanitize_vector", "defense.sanitize"),
    Target("repro.defense.laplace_release", "LaplaceHistogramDefense", "apply",
           "defense.laplace"),
    Target("repro.attacks.fine_grained", "FineGrainedAttack", "run_batch",
           "attacks.fine_grained.run_batch"),
    Target("repro.attacks.fine_grained", "FineGrainedOutcome", "search_area_m2",
           "attacks.fine_grained.search_area"),
    Target("repro.attacks.region", "RegionAttack", "run_batch", "attacks.region.run_batch"),
    Target("repro.attacks.recovery", "SanitizationRecoveryAttack", "fit",
           "attacks.recovery.fit"),
    Target("repro.ml.svc", "BinarySVC", "fit", "ml.svc.fit", _n_rows),
    Target("repro.ml.svc", "BinarySVC", "decision_function", "ml.svc.predict"),
    Target("repro.datasets.targets", None, "sample_targets", "datasets.sample_targets"),
    Target("repro.experiments.common", None, "sample_targets", "datasets.sample_targets"),
    Target("repro.experiments.results", "ExperimentResult", "save", "experiments.save"),
)


@dataclass(frozen=True)
class Span:
    """One recorded call."""

    span_id: int
    parent: "int | None"
    name: str
    thread: str
    start: float
    end: float
    self_s: float
    attrs: "dict[str, Any] | None"

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id, "parent": self.parent, "name": self.name,
            "thread": self.thread, "start": self.start, "end": self.end,
            "self_s": self.self_s, "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        return cls(d["id"], d["parent"], d["name"], d["thread"], d["start"], d["end"],
                   d["self_s"], d["attrs"])


class CountingVFS(DurableVFS):
    """The production VFS plus counters for fsyncs, writes and renames."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.fsyncs = 0
        self.fsync_s = 0.0
        self.bytes_written = 0
        self.replaces = 0

    def fsync(self, fh: VFSFile) -> None:
        start = time.monotonic()
        super().fsync(fh)
        with self._lock:
            self.fsyncs += 1
            self.fsync_s += time.monotonic() - start

    def _before_op(self, op: str, path: Path, data: "str | bytes | None" = None) -> None:
        if op == "write" and data is not None:
            size = len(data.encode("utf-8")) if isinstance(data, str) else len(data)
            with self._lock:
                self.bytes_written += size
        elif op == "replace":
            with self._lock:
                self.replaces += 1

    def counters(self) -> dict[str, float]:
        with self._lock:
            return {
                "fsyncs": self.fsyncs,
                "fsync_s": self.fsync_s,
                "bytes_written": self.bytes_written,
                "replaces": self.replaces,
            }


class Tracer:
    """Installs span wrappers on :data:`TARGETS` and collects their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._saved: list[tuple[Any, str, bool, Any]] = []
        self._vfs_stack: "contextlib.ExitStack | None" = None
        self.spans: list[Span] = []
        self.vfs = CountingVFS()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target and route durable I/O through the counting VFS."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner = module if target.owner is None else getattr(module, target.owner)
            own = target.attr in vars(owner)
            original = getattr(owner, target.attr)
            self._saved.append((owner, target.attr, own, vars(owner).get(target.attr)))
            setattr(owner, target.attr, self._wrap(original, target))
        self._vfs_stack = contextlib.ExitStack()
        self._vfs_stack.enter_context(install_vfs(self.vfs))

    def uninstall(self) -> None:
        """Put every original attribute back exactly as it was."""
        for owner, attr, own, original in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []
        if self._vfs_stack is not None:
            self._vfs_stack.close()
            self._vfs_stack = None

    # -- recording ------------------------------------------------------

    def _wrap(self, original: Callable[..., Any], target: Target) -> Callable[..., Any]:
        tracer = self
        name = target.span
        attrs_fn = target.attrs

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.monotonic()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else None
                tracer.spans.append(Span(
                    span_id, parent, name, threading.current_thread().name,
                    start, end, duration - frame[1], attrs,
                ))

        return wrapper

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def write_jsonl(path: Path, spans: Iterable[Span]) -> None:
    """Write spans, one JSON object per line."""
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.as_dict()) + "\n")


def read_jsonl(path: Path) -> list[Span]:
    """Load spans written by :func:`write_jsonl`."""
    with path.open(encoding="utf-8") as fh:
        return [Span.from_dict(json.loads(line)) for line in fh if line.strip()]
