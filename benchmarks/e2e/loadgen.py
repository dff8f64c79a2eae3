"""Open-loop HTTP arrival generator for the ``release_http`` workload.

Arrivals are a seeded Poisson schedule over fixed-rate rungs; each
request is timed from when it was *due*, so a stall in the server or in
the generator counts against every request it delays.  One process runs
:data:`SENDERS` sender threads that each take the next due arrival, sleep
until its due time and send it on a fresh connection (the stdlib server
speaks HTTP/1.0), so at most that many connections are ever open.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.rng import derive_rng

__all__ = ["SENDERS", "Rung", "Sent", "http_json", "run_open_loop", "schedule"]

SENDERS = 2


@dataclass(frozen=True)
class Rung:
    """A fixed arrival rate held for a number of seconds."""

    rate: float
    seconds: float

    @property
    def label(self) -> str:
        return f"r{int(self.rate)}"


def schedule(rungs: "list[Rung]", seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Due offsets (s from the window start) and the rung index of each."""
    rng = derive_rng(seed, "e2e", "arrivals")
    offsets: list[np.ndarray] = []
    rung_of: list[np.ndarray] = []
    start = 0.0
    for index, rung in enumerate(rungs):
        # Draw generously, then keep the arrivals inside the rung.
        gaps = rng.exponential(1.0 / rung.rate, size=int(rung.rate * rung.seconds * 1.5) + 16)
        times = start + np.cumsum(gaps)
        times = times[times < start + rung.seconds]
        offsets.append(times)
        rung_of.append(np.full(len(times), index))
        start += rung.seconds
    return np.concatenate(offsets), np.concatenate(rung_of)


@dataclass
class Sent:
    """What the generator saw for every arrival (arrays indexed by arrival)."""

    due: np.ndarray
    send: np.ndarray
    done: np.ndarray
    status: np.ndarray
    job_ids: list["str | None"]
    errors: list[str]


def http_json(
    port: int, method: str, path: str, body: "bytes | None" = None, timeout_s: float = 10.0
) -> tuple[int, dict[str, Any]]:
    """One request on a fresh connection; returns (status, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout_s)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def run_open_loop(port: int, t0: float, offsets: np.ndarray, bodies: list[bytes]) -> Sent:
    """Send ``bodies[i]`` at ``t0 + offsets[i]`` from :data:`SENDERS` threads."""
    n = len(bodies)
    sent = Sent(
        due=t0 + offsets,
        send=np.zeros(n),
        done=np.zeros(n),
        status=np.zeros(n, dtype=int),
        job_ids=[None] * n,
        errors=[],
    )
    next_index = iter(range(n))
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                i = next(next_index, None)
            if i is None:
                return
            delay = sent.due[i] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent.send[i] = time.monotonic()
            try:
                status, payload = http_json(port, "POST", "/v1/submit", bodies[i])
            except (OSError, http.client.HTTPException, ValueError) as exc:
                sent.errors.append(f"{type(exc).__name__}: {exc}")
                status, payload = -1, {}
            sent.done[i] = time.monotonic()
            sent.status[i] = status
            sent.job_ids[i] = payload.get("job_id")

    threads = [
        threading.Thread(target=sender, name=f"e2e-sender-{k}", daemon=True)
        for k in range(SENDERS)
    ]
    for thread in threads:
        thread.start()
    budget = float(offsets[-1]) + 60.0 if n else 1.0
    for thread in threads:
        thread.join(timeout=max(t0 + budget - time.monotonic(), 1.0))
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("open-loop senders did not finish")
    return sent
