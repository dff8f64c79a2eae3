"""HTTP edge tests: status codes, payloads, the Retry-After hint, and
the handler socket timeout under silent clients."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.dp.mechanisms import PrivacyParams
from repro.serve import ReleaseService, ServeConfig, httpapi


@pytest.fixture()
def server(db, tmp_path):
    service = ReleaseService(
        db,
        PrivacyParams(2.0, 0.0),
        config=ServeConfig(
            queue_capacity=32,
            batch_wait_s=0.002,
            poll_interval_s=0.01,
            retry_after_s=0.5,
        ),
        ledger_dir=str(tmp_path),
        seed=5,
    )
    server = httpapi.make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    service.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
        thread.join(timeout=5)


@pytest.fixture()
def served(server):
    return base_url(server), server.service


def base_url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}"


def call(base, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"} if body else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), dict(exc.headers)


SUBMIT = {"user_id": "alice", "x": 500.0, "y": 500.0, "radius": 150.0}


def test_submit_accepts_with_202_and_result_lifecycle(served):
    base, service = served
    status, body, _ = call(base, "/v1/submit", SUBMIT)
    assert status == 202
    job_id = body["job_id"]
    assert body["state"] == "pending"
    assert service.drain(10.0)
    status, job_doc, _ = call(base, f"/v1/jobs/{job_id}")
    assert status == 200
    assert job_doc["fate"] == "completed"
    assert "result" not in job_doc  # jobs view never carries the vector
    status, result_doc, _ = call(base, f"/v1/result/{job_id}")
    assert status == 200
    assert isinstance(result_doc["result"], list)
    assert len(result_doc["result"]) == service.dispatcher._db.n_types


def test_budget_exhaustion_is_http_429(served):
    base, service = served
    for _ in range(2):  # budget is 2.0, laplace costs 1.0 per release
        assert call(base, "/v1/submit", SUBMIT)[0] == 202
        assert service.drain(10.0)
    status, body, _ = call(base, "/v1/submit", SUBMIT)
    assert status == 429
    assert body["error"] == "BudgetExhausted"
    assert body["user_id"] == "alice"
    assert body["budget_epsilon"] == 2.0
    # The refused job is terminal and its result is gone (410).
    status, _, _ = call(base, f"/v1/result/{body['job_id']}")
    assert status == 410


def test_open_breaker_sheds_with_503_and_retry_after(served):
    base, service = served
    for _ in range(service.config.breaker_failure_threshold):
        service.shedder.record_failure()
    status, body, headers = call(base, "/v1/submit", SUBMIT)
    assert status == 503
    assert body["error"] == "LoadShed"
    assert float(headers["Retry-After"]) == pytest.approx(0.5)


def test_status_endpoint_surfaces_ladder_and_breaker(served):
    base, service = served
    status, doc, _ = call(base, "/v1/status")
    assert status == 200
    assert doc["ladder"]["level_name"] == "full"
    assert doc["ladder"]["breaker"]["state"] == "closed"
    assert doc["fates"]["pending"] == 0
    assert doc["defenses"] == ["laplace", "raw", "sanitize"]


def test_bad_requests_are_400(served):
    base, _ = served
    status, body, _ = call(base, "/v1/submit", {"user_id": "x"})  # missing fields
    assert status == 400 and body["error"] == "BadRequest"
    status, body, _ = call(base, "/v1/submit", {**SUBMIT, "radius": -5.0})
    assert status == 400
    status, body, _ = call(base, "/v1/submit", {**SUBMIT, "defense": "nonesuch"})
    assert status == 400


def test_unknown_paths_and_jobs_are_404(served):
    base, _ = served
    assert call(base, "/v1/nonesuch")[0] == 404
    assert call(base, "/v1/jobs/j99999999")[0] == 404
    status, body, _ = call(base, "/nope", {"x": 1})
    assert status == 404


# ---------------------------------------------------------------------------
# Silent clients: the handler socket timeout
# ---------------------------------------------------------------------------

#: Handler timeout for these tests, short enough to wait out several times.
TIMEOUT_S = 0.3
#: Scheduling slack on top of a timeout before a test calls it missed.
MARGIN_S = 2.0
#: Silent connections the crowd tests hold open at once.
N_SILENT = 12


def patch_timeout(monkeypatch, seconds: float) -> None:
    # The patched value stands in for the shipped bound, which must exist.
    assert httpapi._Handler.timeout == httpapi._HANDLER_TIMEOUT_S > 0
    monkeypatch.setattr(httpapi._Handler, "timeout", seconds)


@pytest.fixture()
def short_timeout(monkeypatch):
    patch_timeout(monkeypatch, TIMEOUT_S)


def silent_client(server) -> socket.socket:
    """A connection that sends nothing, returned once the server has
    taken it off the listen queue: connections are accepted in order,
    so a later request's answer proves it."""
    sock = socket.create_connection(server.server_address, timeout=10)
    assert call(base_url(server), "/v1/status")[0] == 200
    return sock


def closed_by_server(sock: socket.socket, within_s: float) -> bool:
    """True when the server closes *sock* within *within_s* seconds."""
    sock.settimeout(within_s)
    try:
        return sock.recv(1) == b""
    except socket.timeout:
        return False


def test_short_body_client_is_dropped_after_the_timeout(server, short_timeout):
    sock = socket.create_connection(server.server_address, timeout=10)
    try:
        sock.sendall(
            b"POST /v1/submit HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
            + b'{"user_id"'  # 10 of the promised 100 bytes
        )
        start = time.monotonic()
        assert closed_by_server(sock, TIMEOUT_S + MARGIN_S)
        assert time.monotonic() - start >= TIMEOUT_S * 0.5
    finally:
        sock.close()


def test_idle_connection_does_not_delay_another_client(server, monkeypatch):
    # Long enough that the submit must not be waiting it out.
    patch_timeout(monkeypatch, 5.0)
    idle = silent_client(server)
    try:
        start = time.monotonic()
        status, _, _ = call(base_url(server), "/v1/submit", SUBMIT)
        assert status == 202
        assert time.monotonic() - start < 2.5
    finally:
        idle.close()


def test_concurrent_clients_are_answered_while_silent_ones_hold_threads(server, monkeypatch):
    # Each connection has its own thread, so a crowd of silent clients
    # holds no thread another client needs: every status call that
    # confirms a silent client, and every submit, is answered long
    # before the timeout would free anything.
    patch_timeout(monkeypatch, 5.0)
    start = time.monotonic()
    silent = [silent_client(server) for _ in range(N_SILENT)]
    statuses: list[int] = []

    def submit(i: int) -> None:
        statuses.append(call(base_url(server), "/v1/submit", {**SUBMIT, "user_id": f"user{i}"})[0])

    try:
        threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert statuses == [202] * 4
        assert time.monotonic() - start < 2.5
    finally:
        for sock in silent:
            sock.close()


def test_server_close_returns_with_silent_clients_open(server, short_timeout):
    silent = [silent_client(server) for _ in range(N_SILENT)]
    try:
        start = time.monotonic()
        server.shutdown()
        server.server_close()
        # Handler threads are daemons, so closing waits for none of them.
        assert time.monotonic() - start < TIMEOUT_S + MARGIN_S
        # Each left-over handler still times out and drops its client.
        for sock in silent:
            assert closed_by_server(sock, TIMEOUT_S + MARGIN_S)
    finally:
        for sock in silent:
            sock.close()
