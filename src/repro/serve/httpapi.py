"""Stdlib HTTP edge for :class:`~repro.serve.service.ReleaseService`.

A thin :class:`~http.server.ThreadingHTTPServer` wrapper — no web
framework, no new dependencies — that maps the service's admission
outcomes onto HTTP status codes:

=====================  ======  =========================================
outcome                status  body
=====================  ======  =========================================
queued                 202     ``{"job_id": ..., "state": "pending"}``
refused (budget)       429     the typed ``BudgetExhausted`` payload
shed (ladder)          503     ``{"error": "LoadShed"}`` + Retry-After
rejected (queue full)  503     ``{"error": "Backpressure"}`` + Retry-After
unavailable (disk)     503     ``{"error": "DiskPressure"}`` + Retry-After
=====================  ======  =========================================

Endpoints:

* ``POST /v1/submit`` — JSON body ``{user_id, x, y, radius, defense?}``
* ``GET /v1/status`` — fates, shed-ladder + breaker snapshot, ledger stats
* ``GET /v1/jobs/<id>`` — one job's state/fate (no result vector)
* ``GET /v1/result/<id>`` — 200 with the vector once completed, 202 while
  pending, 410 for non-completed terminal fates

Each connection gets its own daemon handler thread, which
``server_close()`` does not wait for, and every handler socket carries a
timeout: a client that stalls mid-request (a promised body that never
arrives, an idle connection) is dropped instead of keeping its thread
for good.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.core.errors import ConfigError
from repro.serve.jobs import ReleaseRequest
from repro.serve.service import ReleaseService

__all__ = ["ServeHTTPServer", "make_server"]

_MAX_BODY_BYTES = 1 << 20

#: Socket timeout of every handler read and write, in seconds: a silent
#: client is dropped after this long instead of keeping its thread for
#: good, and a few seconds is far above any real client's gap.
_HANDLER_TIMEOUT_S = 5.0


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ReleaseService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server: ServeHTTPServer
    timeout = _HANDLER_TIMEOUT_S

    # Silence per-request stderr logging; the JSONL journal is the log.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    def _send(self, status: int, body: dict[str, Any], headers: "dict[str, str] | None" = None) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    # ------------------------------------------------------------------

    def do_POST(self) -> None:
        if self.path != "/v1/submit":
            self._send(404, {"error": "NotFound", "path": self.path})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send(400, {"error": "BadRequest", "detail": "bad Content-Length"})
            return
        if length <= 0 or length > _MAX_BODY_BYTES:
            self._send(400, {"error": "BadRequest", "detail": "body required"})
            return
        try:
            body = json.loads(self.rfile.read(length).decode("utf-8"))
            request = ReleaseRequest(
                user_id=str(body["user_id"]),
                x=float(body["x"]),
                y=float(body["y"]),
                radius=float(body["radius"]),
                defense=str(body.get("defense", "laplace")),
            )
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError, ConfigError) as exc:
            self._send(400, {"error": "BadRequest", "detail": str(exc)})
            return
        try:
            outcome = self.server.service.submit(request)
        except ConfigError as exc:
            self._send(400, {"error": "BadRequest", "detail": str(exc)})
            return
        if outcome.status == "queued":
            assert outcome.job is not None
            self._send(202, {"job_id": outcome.job.job_id, "state": "pending"})
        elif outcome.status == "refused":
            assert outcome.payload is not None
            body_out = dict(outcome.payload)
            if outcome.job is not None:
                body_out["job_id"] = outcome.job.job_id
            self._send(429, body_out)
        elif outcome.status == "shed":
            headers = _retry_after(outcome.retry_after_s)
            body_out = {"error": "LoadShed", "state": "shed"}
            if outcome.job is not None:
                body_out["job_id"] = outcome.job.job_id
            self._send(503, body_out, headers)
        elif outcome.status == "unavailable":
            # The ledger's disk refused a WAL append: charged releases
            # cannot be durably accounted, so nothing was committed.
            self._send(
                503,
                {"error": "DiskPressure", "state": "unavailable"},
                _retry_after(outcome.retry_after_s),
            )
        else:  # rejected: backpressure, never became a job
            self._send(
                503,
                {"error": "Backpressure", "state": "rejected"},
                _retry_after(outcome.retry_after_s),
            )

    def do_GET(self) -> None:
        if self.path == "/v1/status":
            self._send(200, self.server.service.status())
            return
        if self.path.startswith("/v1/jobs/"):
            self._job_view(self.path[len("/v1/jobs/"):], with_result=False)
            return
        if self.path.startswith("/v1/result/"):
            self._job_view(self.path[len("/v1/result/"):], with_result=True)
            return
        self._send(404, {"error": "NotFound", "path": self.path})

    def _job_view(self, job_id: str, *, with_result: bool) -> None:
        job = self.server.service.job(job_id)
        if job is None:
            self._send(404, {"error": "NotFound", "job_id": job_id})
            return
        if not with_result:
            self._send(200, job.as_dict())
            return
        if not job.terminal:
            self._send(202, job.as_dict())
        elif job.fate == "completed":
            self._send(200, job.as_dict(include_result=True))
        else:
            self._send(410, job.as_dict())


def _retry_after(retry_after_s: "float | None") -> dict[str, str]:
    if retry_after_s is None:
        return {}
    return {"Retry-After": f"{retry_after_s:.3f}"}


def make_server(service: ReleaseService, host: str = "127.0.0.1", port: int = 0) -> ServeHTTPServer:
    """Bind (port 0 picks a free port) without starting the accept loop."""
    return ServeHTTPServer((host, port), service)
