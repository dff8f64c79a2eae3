"""PL008 fixture: serve-path blocking done right (and non-blocking
look-alikes that must not be flagged).

Linted as ``src/repro/serve/fixture.py``; zero findings expected.
"""

import queue
import threading
from http.server import BaseHTTPRequestHandler

POLL_INTERVAL_S = 0.05


def worker_loop(jobs: "queue.Queue[object]", stop: threading.Event) -> None:
    while not stop.is_set():
        try:
            job = jobs.get(timeout=POLL_INTERVAL_S)  # bounded: ok
        except queue.Empty:
            continue
        del job


def wait_for_stop(stop: threading.Event) -> bool:
    return stop.wait(timeout=1.0)  # bounded: ok


def reap(thread: threading.Thread) -> None:
    thread.join(timeout=5.0)  # bounded: ok


def bounded_positional(jobs: "queue.Queue[object]") -> object:
    return jobs.get(True, POLL_INTERVAL_S)  # positional deadline: ok


def look_alikes(config: dict, parts: list) -> str:
    level = config.get("level", "full")  # dict lookup, not a dequeue
    return str(level) + ", ".join(str(p) for p in parts)  # str.join


class BoundedHandler(BaseHTTPRequestHandler):
    timeout = 5.0  # every socket read and write times out: ok

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
