"""One workload run in a fresh process: set up, measure, check.

Usage (the harness in ``benchmarks.e2e.__main__`` spawns this)::

    python -m benchmarks.e2e.worker --workload release_batch --seed 0 \\
        --seconds 10 --trace 0 --work <dir> --result <file> --spawned-at <t>

``--spawned-at`` is the harness's ``time.monotonic()`` just before the
spawn, so set-up time counts interpreter start and imports.  With
``--setup-only`` the worker stops once it is ready.  The result file is
one JSON object: ``setup_s``, ``metrics`` (end-to-end names, or per-layer
names with ``--trace 1``), ``attempted``, ``failed``, ``failures`` (the
correctness checks that did not hold) and ``detail``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.rng import derive_rng

from benchmarks.e2e.layers import ledger_metrics, percentile_ms, span_metrics, tail_ms
from benchmarks.e2e.loadgen import Rung, http_json, run_open_loop, schedule
from benchmarks.e2e.tracing import Span, Tracer, read_jsonl, write_jsonl

ROOT = Path(__file__).resolve().parents[2]
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: The paper's four query ranges (m).
RADII_M = (500.0, 1_000.0, 2_000.0, 4_000.0)
DEFENSE_MIX = (("laplace", 0.6), ("sanitize", 0.3), ("raw", 0.1))
#: What one laplace release charges (ReleaseService's default epsilon).
LAPLACE_EPSILON = 1.0
#: Sanitizer threshold of the service's stock defense menu.
SANITIZE_THRESHOLD = 10
#: Completed raw/sanitize results recomputed bit for bit per segment.
SAMPLE_SIZE = 200
#: The served cities and the services' noise seed: the deployment is fixed
#: and ``--seed`` generates the traffic.
DEPLOYMENT_SEED = 0

# A run is a sequence of rounds, each a fresh service with a fresh ledger
# serving a finite stream, so the job store (and peak RSS) holds one round
# whatever the speed.  Twenty requests per user against a budget of five
# laplace releases refuses about a third of them at admission.
BATCH_ROUND_REQUESTS = 40_000
BATCH_SMOKE_REQUESTS = 5_000
BATCH_REQUESTS_PER_USER = 20
BATCH_OUTSTANDING = 128
BATCH_BUDGET_EPSILON = 5.0

HTTP_USERS = 10_000
HTTP_RADIUS_M = 150.0
HTTP_BUDGET_EPSILON = 50.0
#: The ``small`` preset spans 10 km from the origin.
SMALL_CITY_CENTER = (5_000.0, 5_000.0)
#: Arrival rungs (req/s) and each one's share of the measured window.
HTTP_RUNGS = ((300.0, 0.25), (600.0, 0.5), (1500.0, 0.25))
HTTP_SMOKE_RUNG_S = 2.0
#: The rung whose latency is the end-to-end figure.
HTTP_REPORTED_RATE = 600.0
#: A rung counts towards ``loadgen.max_rps`` when its release p99, its
#: failed share and the generator's lateness p99 in its last second stay
#: within these limits.
LATENCY_LIMIT_S = 0.050
LATE_LIMIT_S = 0.050
FAILED_LIMIT = 0.001

#: Traced runs alternate untraced and traced rounds (or passes), starting
#: untraced; the first one also pays one-off first-call costs and is left
#: out of the overhead comparison, so five leave two on each side.
TRACED_MIN_REPEATS = 5

_ADDRESS = re.compile(r"on http://([0-9.]+):([0-9]+)")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    setup_only: bool
    spawned_at: float
    work: Path
    record_reference: "Path | None" = None

    def ready(self) -> float:
        return time.monotonic() - self.spawned_at


@dataclass
class Outcome:
    setup_s: float
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    detail: dict[str, Any] = field(default_factory=dict)


def environment() -> dict[str, Any]:
    """What the numbers depend on besides the code."""
    from repro.poi.kernels import active_kernel

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "POIAGG_KERNEL": active_kernel(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mix(rng: np.random.Generator, n: int) -> list[str]:
    kinds = [kind for kind, _ in DEFENSE_MIX]
    weights = np.array([w for _, w in DEFENSE_MIX])
    return [kinds[int(k)] for k in rng.choice(len(kinds), size=n, p=weights / weights.sum())]


# ----------------------------------------------------------------------
# Correctness checks shared by the serve workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JobRow:
    """The parts of a served job the checks need."""

    job_id: str
    user: str
    defense: str
    fate: "str | None"
    submitted_at: float
    finished_at: "float | None"
    degraded: bool


def check_fates(fates: dict[str, int]) -> list[str]:
    """Every accepted job has exactly one fate, and none is pending."""
    terminal = sum(fates[k] for k in ("completed", "refused", "shed", "failed"))
    failures = []
    if terminal != fates["accepted"]:
        failures.append(f"fates {fates}: terminal {terminal} != accepted {fates['accepted']}")
    if fates["pending"] != 0:
        failures.append(f"{fates['pending']} jobs still pending after drain")
    return failures


def check_ledger(budget_epsilon: float, ledger_dir: Path, jobs: Iterable[JobRow]) -> list[str]:
    """The reopened ledger replays one spend per completed laplace job."""
    from repro.dp.mechanisms import PrivacyParams
    from repro.serve.ledger import BudgetLedger

    expected = Counter(
        job.user for job in jobs
        if job.defense == "laplace" and job.fate == "completed" and not job.degraded
    )
    failures: list[str] = []
    ledger = BudgetLedger(PrivacyParams(budget_epsilon), directory=ledger_dir)
    try:
        users = set(expected) | set(ledger.to_state()["users"])
        for user in sorted(users):
            state = ledger.user_state(user)
            n = int(state["n_releases"])
            spent = state["spent_epsilon"]
            if n != expected[user] or abs(spent - expected[user] * LAPLACE_EPSILON) > 1e-9:
                failures.append(
                    f"ledger replays {n} spends ({spent} eps) for {user}, "
                    f"expected {expected[user]}"
                )
            if spent > budget_epsilon + 1e-9:
                failures.append(f"{user} over budget: {spent} > {budget_epsilon}")
    finally:
        ledger.close()
    return failures[:20]


def check_results(
    database: Any, samples: Sequence[tuple[str, float, float, float, Any]]
) -> list[str]:
    """Served raw/sanitize vectors equal a recomputation, bit for bit."""
    from repro.defense.sanitization import Sanitizer

    sanitizer = Sanitizer(database, threshold=SANITIZE_THRESHOLD)
    by_radius: dict[float, list[tuple[str, float, float, float, Any]]] = {}
    for sample in samples:
        by_radius.setdefault(sample[3], []).append(sample)
    failures = []
    for radius, group in by_radius.items():
        rows = database.freq_batch(np.array([[s[1], s[2]] for s in group]), radius)
        for (defense, x, y, _, served), row in zip(group, rows):
            want = sanitizer.sanitize_vector(row) if defense == "sanitize" else row
            if not np.array_equal(np.asarray(served, dtype=float), want.astype(float)):
                failures.append(f"{defense} result at ({x:.1f}, {y:.1f}, r={radius}) differs")
    return failures[:20]


# ----------------------------------------------------------------------
# release_batch: in-process ReleaseService, closed loop
# ----------------------------------------------------------------------


def release_batch(ctx: Context) -> Outcome:
    from repro.dp.mechanisms import PrivacyParams
    from repro.poi.cities import beijing
    from repro.serve.config import ServeConfig
    from repro.serve.jobs import ReleaseRequest
    from repro.serve.service import ReleaseService

    city = beijing(DEPLOYMENT_SEED)
    bounds = city.interior(max(RADII_M))

    def new_service(index: int) -> tuple[ReleaseService, Path]:
        ledger_dir = ctx.work / f"ledger-{index}"
        service = ReleaseService(
            city.database, PrivacyParams(BATCH_BUDGET_EPSILON), config=ServeConfig(),
            ledger_dir=str(ledger_dir), seed=DEPLOYMENT_SEED,
        )
        service.start()
        return service, ledger_dir

    service, ledger_dir = new_service(0)
    center = bounds.center
    for radius in RADII_M:
        service.submit(ReleaseRequest("warmup", center.x, center.y, radius, "raw"))
    if not service.drain(30.0):
        raise RuntimeError("warm-up releases did not finish")
    outcome = Outcome(setup_s=ctx.ready())
    if ctx.setup_only:
        service.stop()
        return outcome

    n = BATCH_SMOKE_REQUESTS if ctx.smoke else BATCH_ROUND_REQUESTS

    def round_requests(index: int) -> list[ReleaseRequest]:
        rng = derive_rng(ctx.seed, "e2e", "release_batch", index)
        users = rng.integers(0, n // BATCH_REQUESTS_PER_USER, size=n)
        radii = rng.choice(np.array(RADII_M), size=n)
        xs = rng.uniform(bounds.min_x, bounds.max_x, size=n)
        ys = rng.uniform(bounds.min_y, bounds.max_y, size=n)
        return [
            ReleaseRequest(f"u{int(u):05d}", float(x), float(y), float(r), kind)
            for u, x, y, r, kind in zip(users, xs, ys, radii, _mix(rng, n))
        ]

    rounds: list[dict[str, Any]] = []
    min_rounds = TRACED_MIN_REPEATS if ctx.trace else 1
    deadline = time.monotonic() + ctx.seconds
    while len(rounds) < min_rounds or (not ctx.smoke and time.monotonic() < deadline):
        index = len(rounds)
        tracer = Tracer() if ctx.trace and index % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            if index > 0:
                service, ledger_dir = new_service(index)
            result = _batch_round(ctx, index, service, ledger_dir, round_requests(index),
                                  city.database)
        finally:
            if tracer is not None:
                tracer.uninstall()
        del service
        _merge_checks(outcome, result)
        result["tracer"] = tracer
        rounds.append(result)

    def rate(selected: list[dict[str, Any]]) -> float:
        return sum(r["answered"] for r in selected) / sum(r["wall_s"] for r in selected)

    outcome.detail = {"rounds": [r["detail"] for r in rounds]}
    if not ctx.trace:
        latencies = [lat for r in rounds for lat in r["latencies"]]
        outcome.metrics = {
            "latency_p50_ms": percentile_ms(latencies, 50),
            "latency_tail_ms": tail_ms(latencies),
            "throughput_per_s": rate(rounds),
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome
    traced = [r for r in rounds if r["tracer"] is not None]
    outcome.metrics = _mean_per_key([
        span_metrics(r["tracer"].spans, r["tracer"].vfs.counters()) | ledger_metrics(r["ledger"])
        for r in traced
    ])
    untraced = [r for r in rounds[1:] if r["tracer"] is None]
    outcome.metrics["trace.overhead_frac"] = rate(untraced) / rate(traced) - 1.0
    write_jsonl(ctx.work / f"trace-{ctx.workload}.jsonl",
                [span for r in traced for span in r["tracer"].spans])
    return outcome


def _mean_per_key(dicts: list[dict[str, float]]) -> dict[str, float]:
    """Per-round (or per-pass) averages of per-layer numbers."""
    keys = {key for d in dicts for key in d}
    return {key: statistics.fmean(d.get(key, 0.0) for d in dicts) for key in keys}


def _merge_checks(outcome: Outcome, segment: dict[str, Any]) -> None:
    outcome.attempted += segment["attempted"]
    outcome.failed += segment["failed"]
    outcome.failures.extend(segment["failures"])


def _batch_round(
    ctx: Context, index: int, service: Any, ledger_dir: Path, requests: list[Any],
    database: Any,
) -> dict[str, Any]:
    """Drive *service* closed loop through *requests*, stop it, check it."""
    jobs, statuses, t0 = _closed_loop(service, requests)
    ledger_stats = service.ledger.stats()
    service.stop()
    ends = [job.finished_at for job in jobs if job.finished_at is not None]
    wall_s = max(ends) - t0 if ends else float("nan")
    fates = Counter(job.fate for job in jobs)
    answered = fates["completed"] + fates["refused"]
    failed = len(jobs) - answered + statuses["rejected"] + statuses["unavailable"]

    failures = check_fates(service.store.counters.as_dict())
    rows = [
        JobRow(job.job_id, job.request.user_id, job.request.defense, job.fate,
               job.submitted_at, job.finished_at, job.degraded)
        for job in service.store.jobs_snapshot()
    ]
    failures += check_ledger(BATCH_BUDGET_EPSILON, ledger_dir, rows)
    rng = derive_rng(ctx.seed, "e2e", "release_batch", index, "sample")
    candidates = [
        job for job in jobs
        if job.fate == "completed" and job.request.defense in ("raw", "sanitize")
        and not job.degraded
    ]
    picks = rng.permutation(len(candidates))[:SAMPLE_SIZE]
    samples = [
        (c.request.defense, c.request.x, c.request.y, c.request.radius, c.result)
        for c in (candidates[int(i)] for i in picks)
    ]
    failures += check_results(database, samples)
    latencies = [
        job.finished_at - job.submitted_at
        for job in jobs if job.fate == "completed" and job.finished_at is not None
    ]
    return {
        "latencies": latencies,
        "answered": answered,
        "wall_s": wall_s,
        "attempted": len(jobs) + statuses["rejected"] + statuses["unavailable"],
        "failed": failed,
        "failures": failures,
        "ledger": ledger_stats,
        "detail": {
            "submitted": len(jobs),
            "admission": dict(statuses),
            "fates": dict(fates),
            "degraded": sum(1 for job in jobs if job.degraded),
            "wall_s": wall_s,
            "checked_results": len(samples),
        },
    }


def _closed_loop(service: Any, requests: list[Any]) -> tuple[list[Any], Counter, float]:
    """Keep BATCH_OUTSTANDING requests in flight until the stream ends.

    The driver learns that a job finished through the job store's
    ``finalize`` (a refusal or shed at admission finalizes inside
    ``submit``); a submit that created no job frees its slot at once.
    """
    slots = threading.Semaphore(BATCH_OUTSTANDING)
    store = service.store
    finalize = store.finalize

    def finalize_and_free(*args: Any, **kwargs: Any) -> None:
        try:
            finalize(*args, **kwargs)
        finally:
            slots.release()

    store.finalize = finalize_and_free
    jobs: list[Any] = []
    statuses: Counter = Counter()
    t0 = time.monotonic()
    try:
        for request in requests:
            if not slots.acquire(timeout=60.0):
                raise RuntimeError("no release finished within 60 s")
            result = service.submit(request)
            statuses[result.status] += 1
            if result.job is None:
                slots.release()
            else:
                jobs.append(result.job)
        if not service.drain(60.0):
            raise RuntimeError("service did not drain within 60 s")
    finally:
        del store.finalize
    return jobs, statuses, t0


# ----------------------------------------------------------------------
# release_http: the real CLI server under an open-loop arrival schedule
# ----------------------------------------------------------------------


class Server:
    """``poiagg serve`` launched through the shim, in its own process."""

    def __init__(self, ctx: Context, tag: str, traced: bool) -> None:
        self.ledger_dir = ctx.work / f"ledger-{tag}"
        self.dump_path = ctx.work / f"server-{tag}.json"
        self.log_path = ctx.work / f"server-{tag}.log"
        self.trace_path = ctx.work / f"trace-{ctx.workload}.jsonl" if traced else None
        self.proc: "subprocess.Popen[bytes] | None" = None

    def start(self) -> int:
        cmd = [sys.executable, "-m", "benchmarks.e2e.server_shim", "--dump", str(self.dump_path)]
        if self.trace_path is not None:
            cmd += ["--trace", str(self.trace_path)]
        cmd += [
            "--", "serve", "--city", "small", "--port", "0", "--seed", str(DEPLOYMENT_SEED),
            "--ledger-dir", str(self.ledger_dir),
            "--budget-epsilon", str(HTTP_BUDGET_EPSILON),
        ]
        with self.log_path.open("wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_path.read_text()[-2000:]}")
            match = _ADDRESS.search(self.log_path.read_text(errors="replace"))
            if match:
                port = int(match.group(2))
                break
            time.sleep(0.01)
        else:
            raise RuntimeError("server did not print its address within 60 s")
        while time.monotonic() < deadline:
            try:
                if http_json(port, "GET", "/v1/status")[0] == 200:
                    return port
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server did not answer /v1/status within 60 s")

    def stop(self) -> dict[str, Any]:
        """SIGTERM (the CLI drains and stops), then read the shim's dump."""
        if self.proc is None:
            return {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
                raise RuntimeError("server did not stop within 60 s of SIGTERM") from None
        self.proc = None
        return json.loads(self.dump_path.read_text())


def _post(kind: str, user: str, x: float, y: float, radius: float) -> bytes:
    return json.dumps(
        {"user_id": user, "x": x, "y": y, "radius": radius, "defense": kind}
    ).encode("utf-8")


def _wait_result(port: int, job_id: str, timeout_s: float) -> tuple[int, dict[str, Any]]:
    deadline = time.monotonic() + timeout_s
    while True:
        status, doc = http_json(port, "GET", f"/v1/result/{job_id}")
        if status != 202 or time.monotonic() > deadline:
            return status, doc
        time.sleep(0.005)


def release_http(ctx: Context) -> Outcome:
    from repro.poi.cities import small_city

    servers: list[Server] = []

    def start_server(tag: str, traced: bool) -> int:
        server = Server(ctx, tag, traced)
        servers.append(server)
        port = server.start()
        body = _post("raw", "warmup", *SMALL_CITY_CENTER, HTTP_RADIUS_M)
        status, doc = http_json(port, "POST", "/v1/submit", body)
        if status != 202 or _wait_result(port, doc["job_id"], 30.0)[0] != 200:
            raise RuntimeError(f"warm-up release failed: {status} {doc}")
        return port

    try:
        port = start_server("untraced", traced=False)
        outcome = Outcome(setup_s=ctx.ready())
        if ctx.setup_only:
            return outcome
        database = small_city(DEPLOYMENT_SEED).database
        if ctx.smoke:
            rungs = [Rung(rate, HTTP_SMOKE_RUNG_S) for rate, _ in HTTP_RUNGS]
        else:
            rungs = [Rung(rate, ctx.seconds * share) for rate, share in HTTP_RUNGS]
        if ctx.trace:
            # The untraced baseline for the overhead: the reported rung alone.
            baseline = [r for r in rungs if r.rate == HTTP_REPORTED_RATE]
            base = _http_segment(ctx, servers[-1], port, baseline, database, traced=False)
            _merge_checks(outcome, base)
            port = start_server("traced", traced=True)
        segment = _http_segment(ctx, servers[-1], port, rungs, database, traced=ctx.trace)
        _merge_checks(outcome, segment)
    finally:
        for server in servers:
            if server.proc is not None:
                server.proc.kill()
                server.proc.wait(timeout=10.0)

    reported = segment["rungs"][f"r{int(HTTP_REPORTED_RATE)}"]
    top = segment["rungs"][rungs[-1].label]
    if not ctx.trace:
        outcome.metrics = {
            "latency_p50_ms": reported["release_p50_ms"],
            "latency_tail_ms": reported["release_tail_ms"],
            "throughput_per_s": top["answered_per_s"],
            "peak_rss_mb": segment["dump"]["peak_rss_mb"],
        }
        outcome.detail = {"rungs": segment["rungs"], "max_rps": segment["max_rps"]}
        return outcome
    layers = segment["layers"]
    base_p50 = base["rungs"][f"r{int(HTTP_REPORTED_RATE)}"]["release_p50_ms"]
    layers["trace.overhead_frac"] = reported["release_p50_ms"] / base_p50 - 1.0
    outcome.metrics = layers
    outcome.detail = {"rungs": segment["rungs"], "baseline_rungs": base["rungs"]}
    return outcome


def _http_segment(
    ctx: Context, server: Server, port: int, rungs: list[Rung], database: Any, *, traced: bool
) -> dict[str, Any]:
    offsets, rung_of = schedule(rungs, ctx.seed)
    n = len(offsets)
    rng = derive_rng(ctx.seed, "e2e", "release_http")
    b = database.bounds
    users = rng.integers(0, HTTP_USERS, size=n)
    xs = rng.uniform(b.min_x, b.max_x, size=n)
    ys = rng.uniform(b.min_y, b.max_y, size=n)
    kinds = _mix(rng, n)
    bodies = [
        _post(kind, f"u{int(u):05d}", float(x), float(y), HTTP_RADIUS_M)
        for u, x, y, kind in zip(users, xs, ys, kinds)
    ]
    t0 = time.monotonic() + 0.1
    sent = run_open_loop(port, t0, offsets, bodies)

    failures = list(sent.errors[:5])
    deadline = time.monotonic() + 60.0
    while True:
        status, doc = http_json(port, "GET", "/v1/status")
        if doc["fates"]["pending"] == 0:
            break
        if time.monotonic() > deadline:
            failures.append("server did not drain within 60 s")
            break
        time.sleep(0.02)
    failures += check_fates(doc["fates"])

    sample_rng = derive_rng(ctx.seed, "e2e", "release_http", "sample")
    samples = []
    for i in sample_rng.permutation(n):
        if len(samples) == SAMPLE_SIZE:
            break
        job_id = sent.job_ids[int(i)]
        if kinds[int(i)] == "laplace" or job_id is None:
            continue
        status, doc = http_json(port, "GET", f"/v1/result/{job_id}")
        if status == 200:
            samples.append((kinds[int(i)], float(xs[i]), float(ys[i]), HTTP_RADIUS_M,
                            doc["result"]))
    failures += check_results(database, samples)

    dump = server.stop()
    if dump.get("exit_code") != 0:
        failures.append(f"server exited with {dump.get('exit_code')}")
    jobs = {row[0]: JobRow(*row) for row in dump.get("jobs", [])}
    failures += check_ledger(HTTP_BUDGET_EPSILON, server.ledger_dir, jobs.values())

    # Per-arrival fate: answered (completed or budget-refused) or failed.
    latency = np.full(n, np.nan)
    answer_at = np.full(n, np.nan)
    negative = 0
    for i in range(n):
        if sent.status[i] == 429:
            answer_at[i] = sent.done[i]
            continue
        job = jobs.get(sent.job_ids[i] or "")
        if sent.status[i] != 202 or job is None or job.finished_at is None:
            continue
        if job.fate == "completed":
            latency[i] = job.finished_at - sent.due[i]
            negative += latency[i] < 0
            answer_at[i] = job.finished_at
        elif job.fate == "refused":
            answer_at[i] = job.finished_at
    if negative:
        failures.append(f"{negative} releases finished before they were due (clock mismatch)")
    answered = ~np.isnan(answer_at)

    rung_stats: dict[str, dict[str, float]] = {}
    max_rps = 0.0
    start = 0.0
    for index, rung in enumerate(rungs):
        mine = rung_of == index
        lat = latency[mine & ~np.isnan(latency)]
        late = (sent.send - sent.due)[mine]
        last_second = (sent.send - sent.due)[mine & (offsets >= start + rung.seconds - 1.0)]
        failed_frac = float((mine & ~answered).sum()) / max(int(mine.sum()), 1)
        rung_answers = answer_at[mine & answered]
        span = float(rung_answers.max()) - (t0 + start) if len(rung_answers) else float("nan")
        stats = {
            "sent": float(mine.sum()),
            "release_p50_ms": percentile_ms(lat, 50),
            "release_p99_ms": percentile_ms(lat, 99),
            "release_tail_ms": tail_ms(lat),
            "late_p99_ms": percentile_ms(late, 99),
            "last_second_late_p99_ms": percentile_ms(last_second, 99),
            "failed_frac": failed_frac,
            "answered_per_s": len(rung_answers) / span if span > 0 else 0.0,
        }
        rung_stats[rung.label] = stats
        if (
            stats["release_p99_ms"] <= LATENCY_LIMIT_S * 1e3
            and failed_frac <= FAILED_LIMIT
            and stats["last_second_late_p99_ms"] <= LATE_LIMIT_S * 1e3
        ):
            max_rps = max(max_rps, rung.rate)
        start += rung.seconds

    result: dict[str, Any] = {
        "attempted": n,
        "failed": int((~answered).sum()),
        "failures": failures,
        "rungs": rung_stats,
        "max_rps": max_rps,
        "dump": dump,
    }
    if traced and server.trace_path is not None:
        spans = read_jsonl(server.trace_path)
        layers = span_metrics(spans, dump["vfs"]) | ledger_metrics(dump["ledger"])
        layers.update(_edge_metrics(spans, sent))
        for label, stats in rung_stats.items():
            for key in ("release_p50_ms", "release_p99_ms", "late_p99_ms", "sent"):
                layers[f"loadgen.{label}.{key}"] = stats[key]
        layers["loadgen.max_rps"] = max_rps
        result["layers"] = layers
    return result


def _edge_metrics(spans: list[Span], sent: Any) -> dict[str, float]:
    """Client round trips, and what is left of them outside ``submit``."""
    submit_s = {
        span.attrs["job"]: span.duration
        for span in spans
        if span.name == "serve.service.submit" and span.attrs and span.attrs.get("job")
    }
    ok = sent.status > 0
    rtt = (sent.done - sent.send)[ok]
    edge = [
        (sent.done[i] - sent.send[i]) - submit_s[job_id]
        for i, job_id in enumerate(sent.job_ids)
        if job_id in submit_s
    ]
    return {
        "serve.httpapi.rtt_p50_ms": percentile_ms(rtt, 50),
        "serve.httpapi.rtt_p99_ms": percentile_ms(rtt, 99),
        "serve.httpapi.edge_p50_ms": percentile_ms(edge, 50),
    }


# ----------------------------------------------------------------------
# figure_attack / figure_recovery: the runner path, pass after pass
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Figure:
    """A figure pipeline restricted to a pass that fits the run window."""

    experiment: str
    cities: tuple[str, ...]
    radii: tuple[float, ...]
    kwargs: tuple[tuple[str, Any], ...]
    #: Float tolerance against the reference rows: ("rel" | "abs", value).
    tolerance: tuple[str, float]


FIGURES = {
    # fig6 on the two Beijing datasets at every radius: engine, target
    # synthesis and the Monte-Carlo search area, at ~200 MB.
    "figure_attack": Figure(
        "fig6", ("beijing",), RADII_M, (("datasets", ("bj_tdrive", "bj_random")),),
        ("rel", 1e-9),
    ),
    # fig2 on both cities at 1 km: the SMO solver dominates.
    "figure_recovery": Figure(
        "fig2", ("beijing", "nyc"), (1_000.0,), (("city_names", ("beijing", "nyc")),),
        ("abs", 0.01),
    ),
}


def figure(ctx: Context) -> Outcome:
    from repro.experiments.registry import run_experiment
    from repro.experiments.runner import run_many
    from repro.experiments.scale import SCALES
    from repro.poi.cities import CITY_BUILDERS

    spec = FIGURES[ctx.workload]
    radii = (1_000.0,) if ctx.smoke else spec.radii
    # The figure is the paper's, at the scale's own seed: its work depends
    # strongly on the seed (the SMO solver's iterations, the anchor sets),
    # so a benchmark seed would move the workload, not just its inputs.
    scale = SCALES["ci"]
    databases = [CITY_BUILDERS[name](scale.seed).database for name in spec.cities]
    for db in databases:
        center = db.bounds.center
        for radius in radii:
            db.freq_batch(np.array([[center.x, center.y]]), radius)
    outcome = Outcome(setup_s=ctx.ready())
    if ctx.setup_only:
        return outcome

    kwargs = dict(spec.kwargs)

    def run_fn(experiment_id: str, sc: Any) -> Any:
        return run_experiment(experiment_id, sc, radii=radii, **kwargs)

    def one_pass(index: int, tracer: "Tracer | None") -> dict[str, Any]:
        for db in databases:
            db.clear_cache()  # every pass pays the per-radius matrices, like a fresh run
        out = ctx.work / f"pass-{index}"
        if tracer is not None:
            tracer.install()
        start = time.monotonic()
        try:
            summary = run_many([spec.experiment], scale, out=out, run_fn=run_fn)
        finally:
            wall = time.monotonic() - start
            if tracer is not None:
                tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        run = summary.runs[0]
        if run.status != "ok" or run.result is None:
            return {"wall": wall, "error": run.error}
        return {"wall": wall, "rows": run.result.rows,
                "engine": run.result.provenance.get("freq_engine", {})}

    min_passes = TRACED_MIN_REPEATS if ctx.trace else 2
    passes: list[dict[str, Any]] = []
    deadline = time.monotonic() + ctx.seconds
    while len(passes) < min_passes or (not ctx.smoke and time.monotonic() < deadline):
        tracer = Tracer() if ctx.trace and len(passes) % 2 == 1 else None
        passes.append(one_pass(len(passes), tracer))
        passes[-1]["tracer"] = tracer

    outcome.attempted = len(passes)
    outcome.failed = sum(1 for p in passes if "error" in p)
    outcome.failures = [f"pass failed: {p['error']}" for p in passes if "error" in p]
    good = [p for p in passes if "rows" in p]
    if good:
        outcome.failures += check_figure(ctx, spec, scale.seed, radii, [p["rows"] for p in good])
    walls = [p["wall"] for p in passes]
    if not ctx.trace:
        outcome.metrics = {
            "latency_p50_ms": percentile_ms(walls, 50),
            "latency_tail_ms": tail_ms(walls),
            "throughput_per_s": len(walls) / sum(walls),
            "peak_rss_mb": peak_rss_mb(),
        }
        outcome.detail = {"pass_s": walls}
        return outcome

    traced = [p for p in passes if p["tracer"] is not None]
    untraced_walls = [p["wall"] for p in passes[1:] if p["tracer"] is None]
    outcome.metrics = _mean_per_key([_figure_layers(p, outcome.failures) for p in traced])
    outcome.metrics["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced) / statistics.median(untraced_walls) - 1.0
    )
    outcome.detail = {"pass_s": walls, "traced": [p["tracer"] is not None for p in passes]}
    write_jsonl(ctx.work / f"trace-{ctx.workload}.jsonl",
                [span for p in traced for span in p["tracer"].spans])
    return outcome


def _figure_layers(run: dict[str, Any], failures: list[str]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, reconciled with its wall time."""
    tracer: Tracer = run["tracer"]
    wall = run["wall"]
    layers = span_metrics(tracer.spans, tracer.vfs.counters())
    roots = sum(span.duration for span in tracer.spans if span.parent is None)
    unattributed = wall - roots
    layers["experiments.unattributed_s"] = unattributed
    self_total = sum(span.self_s for span in tracer.spans)
    if abs(self_total + unattributed - wall) > 0.10 * wall:
        failures.append(
            f"layer self times {self_total:.3f}s + unattributed {unattributed:.3f}s "
            f"do not reconcile with the pass wall {wall:.3f}s"
        )
    calls = run.get("engine", {}).get("calls", [])
    layers["poi.engine.band_candidates"] = float(sum(c["n_band_candidates"] for c in calls))
    layers["poi.engine.interior_cells"] = float(sum(c["n_interior_cells"] for c in calls))
    return layers


def check_figure(
    ctx: Context, spec: Figure, seed: int, radii: tuple[float, ...],
    passes: list[list[dict[str, Any]]],
) -> list[str]:
    """Passes agree, rows have the paper's shape and match the reference."""
    failures = []
    first = passes[0]
    if any(rows != first for rows in passes[1:]):
        failures.append("figure rows differ between passes")
    if spec.experiment == "fig6":
        fracs = [r["frac_under_quarter"] for r in first if r.get("n_success", 0) >= 10]
        if not fracs or float(np.mean(fracs)) <= 0.6:
            failures.append(f"fig6 shape: mean frac_under_quarter {fracs} <= 0.6")
        for row in first:
            if row.get("n_success", 0) > 0 and row["mean_km2"] > row["baseline_area_km2"] + 1e-9:
                failures.append(f"fig6 shape: search area above baseline in {row}")
    else:
        for row in first:
            if row["mean_accuracy"] <= 0.9:
                failures.append(f"fig2 shape: accuracy {row['mean_accuracy']} <= 0.9 in {row}")
    reference = {"seed": seed, "experiment": spec.experiment, "radii": list(radii),
                 "rows": first}
    if ctx.record_reference is not None:
        ctx.record_reference.write_text(json.dumps(reference, indent=1) + "\n")
        return failures
    if ctx.smoke:
        return failures
    path = REFERENCE_DIR / f"{ctx.workload}.json"
    if not path.exists():
        return [*failures, f"no reference rows at {path.name}"]
    want = json.loads(path.read_text())
    if (want["seed"], want["experiment"], want["radii"]) != (seed, spec.experiment, list(radii)):
        return [*failures, f"{path.name} is for another configuration"]
    return failures + compare_rows(want["rows"], first, spec.tolerance)


def compare_rows(
    want: list[dict[str, Any]], got: list[dict[str, Any]], tolerance: tuple[str, float]
) -> list[str]:
    """Integers and strings exactly, floats within the figure's tolerance."""
    if len(want) != len(got):
        return [f"reference has {len(want)} rows, run has {len(got)}"]
    kind, tol = tolerance
    failures = []
    for w, g in zip(want, got):
        if set(w) != set(g):
            failures.append(f"reference columns {sorted(w)} != {sorted(g)}")
            continue
        for key, wv in w.items():
            gv = g[key]
            if isinstance(wv, float) or isinstance(gv, float):
                limit = tol * abs(wv) if kind == "rel" else tol
                if abs(float(gv) - float(wv)) > limit:
                    failures.append(f"{key}: {gv} vs reference {wv}")
            elif gv != wv:
                failures.append(f"{key}: {gv!r} vs reference {wv!r}")
    return failures[:20]


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "release_http": release_http,
    "release_batch": release_batch,
    "figure_attack": figure,
    "figure_recovery": figure,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", type=Path, default=None)
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        smoke=args.smoke, setup_only=args.setup_only, spawned_at=args.spawned_at,
        work=args.work, record_reference=args.record_reference,
    )
    outcome = WORKLOADS[args.workload](ctx)
    payload = {
        "setup_s": outcome.setup_s,
        "metrics": outcome.metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "detail": outcome.detail,
        "env": environment(),
    }
    args.result.write_text(json.dumps(payload, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
