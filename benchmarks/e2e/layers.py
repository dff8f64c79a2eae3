"""Per-layer metrics derived from recorded spans.

Layer names follow the modules (``serve.ledger``, ``poi``, ``ml`` ...);
the full list with units lives in ``BENCHMARK.json`` under
``per_layer``, and the README maps each one to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from benchmarks.e2e.tracing import Span

__all__ = ["dispatcher_batches", "ledger_metrics", "percentile_ms", "span_metrics", "tail_ms"]

#: The end-to-end tail percentile.  On a shared 2-core host p99 of the
#: HTTP releases moved by up to 28% between runs of one commit, which no
#: regression bound can absorb; p90 keeps hundreds of samples beyond it.
TAIL_CAP = 90.0

#: Dispatcher worker threads are named by the service (poiagg-serve-worker-N).
_WORKER_THREAD = "poiagg-serve-worker"

#: span name -> metric prefix for the "<prefix>_calls" / "<prefix>_self_s" pairs.
_CALLS_AND_SELF = {
    "serve.service.submit": "serve.service.submit",
    "serve.ledger.spend_batch": "serve.ledger.spend_batch",
    "serve.ledger.would_refuse": "serve.ledger.would_refuse",
    "poi.freq_batch": "poi.freq_batch",
    "poi.anchor_freqs": "poi.anchor_freqs",
    "defense.sanitize": "defense.sanitize",
    "defense.laplace": "defense.laplace",
    "attacks.fine_grained.search_area": "attacks.fine_grained.search_area",
    "ml.svc.fit": "ml.svc.fit",
    "datasets.sample_targets": "datasets.sample_targets",
}

#: span name -> self-time-only metric.
_SELF_ONLY = {
    "attacks.fine_grained.run_batch": "attacks.fine_grained.run_batch_self_s",
    "attacks.region.run_batch": "attacks.region.run_batch_self_s",
    "attacks.recovery.fit": "attacks.recovery.fit_self_s",
    "ml.svc.predict": "ml.svc.predict_self_s",
    "experiments.save": "experiments.save_self_s",
}


def percentile_ms(values_s: "Sequence[float] | np.ndarray", q: float) -> float:
    """The *q*-th percentile of seconds, in milliseconds (0.0 when empty)."""
    if len(values_s) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values_s, dtype=float), q) * 1e3)


def tail_ms(values_s: "Sequence[float] | np.ndarray") -> float:
    """The highest percentile up to :data:`TAIL_CAP` with ten samples beyond it.

    With fewer than 20 samples no tail percentile has that support and the
    median is reported: a figure run has one sample per pass.
    """
    q = 100.0 * (1.0 - 10.0 / len(values_s)) if len(values_s) else 50.0
    return percentile_ms(values_s, min(TAIL_CAP, max(50.0, q)))


def span_metrics(spans: Sequence[Span], vfs: dict[str, float]) -> dict[str, float]:
    """Counts and self times per layer, the dispatcher batch view, and *vfs*.

    *vfs* is ``CountingVFS.counters()`` of the same run.
    """
    out: dict[str, float] = defaultdict(float)
    out.update({f"core.vfs.{key}": float(value) for key, value in vfs.items()})
    durations: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        prefix = _CALLS_AND_SELF.get(span.name)
        if prefix is not None:
            out[f"{prefix}_calls"] += 1
            out[f"{prefix}_self_s"] += span.self_s
        self_only = _SELF_ONLY.get(span.name)
        if self_only is not None:
            out[self_only] += span.self_s
        durations[span.name].append(span.duration)
        attrs = span.attrs or {}
        if span.name == "serve.service.submit" and attrs.get("status"):
            out[f"serve.service.outcomes.{attrs['status']}"] += 1
        elif span.name == "poi.freq_batch":
            out["poi.freq_batch_queries"] += attrs.get("n", 0)
        elif span.name == "ml.svc.fit":
            out["ml.svc.fit_rows"] += attrs.get("n", 0)
    out["serve.ledger.spend_batch_p99_ms"] = percentile_ms(
        durations["serve.ledger.spend_batch"], 99
    )
    waits, sizes = dispatcher_batches(spans)
    out["serve.dispatcher.queue_wait_p50_ms"] = percentile_ms(waits, 50)
    out["serve.dispatcher.queue_wait_p99_ms"] = percentile_ms(waits, 99)
    out["serve.dispatcher.batches"] = float(len(sizes))
    out["serve.dispatcher.batch_size_mean"] = float(np.mean(sizes)) if sizes else 0.0
    out["trace.spans"] = float(len(spans))
    return dict(out)


def ledger_metrics(stats: dict[str, float]) -> dict[str, float]:
    """The ledger's own counters, from ``BudgetLedger.stats()``."""
    return {
        "serve.ledger.granted": stats["n_granted"],
        "serve.ledger.refused": stats["n_refused"],
        "serve.ledger.wal_bytes_end": stats["wal_bytes"],
    }


def dispatcher_batches(spans: Iterable[Span]) -> tuple[list[float], list[int]]:
    """Queue waits (s) and batch sizes, reconstructed outside-in.

    On a dispatcher worker thread a batch starts at the first traced call
    after that thread's previous run of ``JobStore.finalize`` calls, and
    the finalize calls in the run name the batch's jobs.  A job's queue
    wait is the batch start minus its ``submitted_at``.
    """
    by_thread: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is None and span.thread.startswith(_WORKER_THREAD):
            by_thread[span.thread].append(span)
    waits: list[float] = []
    sizes: list[int] = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: s.start)
        batch_start: "float | None" = None
        in_finalize = False
        for span in thread_spans:
            is_finalize = span.name == "serve.jobs.finalize"
            if batch_start is None or (in_finalize and not is_finalize):
                batch_start = span.start
                sizes.append(0)
            in_finalize = is_finalize
            if is_finalize:
                attrs: dict[str, Any] = span.attrs or {}
                waits.append(batch_start - float(attrs["submitted_at"]))
                sizes[-1] += 1
    return waits, sizes
