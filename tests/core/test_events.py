"""The shared JSONL event log: stamping, rotation, and degradation."""

import errno
import json

from repro.core.clock import SimulatedClock
from repro.core.events import KEEP_ROTATED, EventLog
from repro.core.vfs import DiskFaultPlan, FaultyVFS, install_vfs


def lines(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_records_are_stamped_by_the_injected_clock(tmp_path):
    clock = SimulatedClock(start=100.0)
    log = EventLog(tmp_path / "events.jsonl", clock)
    log.event("started", n=1)
    clock.advance(2.5)
    log.event("stopped", reason="done")
    log.close()
    assert lines(tmp_path / "events.jsonl") == [
        {"t": 100.0, "event": "started", "n": 1},
        {"t": 102.5, "event": "stopped", "reason": "done"},
    ]


def test_none_path_is_a_noop_that_creates_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    log = EventLog(None, SimulatedClock())
    log.event("anything", x=1)
    log.close()
    assert not log.enabled
    assert log.disabled_reason is None
    assert list(tmp_path.iterdir()) == []


def test_reopening_appends(tmp_path):
    path = tmp_path / "nested" / "events.jsonl"
    for i in range(2):
        log = EventLog(path, SimulatedClock())
        log.event("run", i=i)
        log.close()
    assert [r["i"] for r in lines(path)] == [0, 1]


def test_rotation_counts_utf8_bytes_not_characters(tmp_path):
    path = tmp_path / "events.jsonl"
    clock = SimulatedClock()
    probe = json.dumps(
        {"t": 0.0, "event": "e", "city": "北京"}, ensure_ascii=False, separators=(",", ":")
    ) + "\n"
    n_bytes, n_chars = len(probe.encode("utf-8")), len(probe)
    assert n_bytes > n_chars
    # Two lines fit the budget in characters but not in bytes, so the
    # second line must trigger a rotation.
    log = EventLog(path, clock, max_bytes=n_bytes + n_chars + 1)
    log.event("e", city="北京")
    assert not path.with_name("events.jsonl.1").exists()
    log.event("e", city="北京")
    log.close()
    assert path.with_name("events.jsonl.1").exists()
    assert len(lines(path.with_name("events.jsonl.1"))) == 2
    assert path.read_text(encoding="utf-8") == ""


def test_generations_shift_and_the_fourth_is_unlinked(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path, SimulatedClock(), max_bytes=1)  # rotate after every line
    for i in range(KEEP_ROTATED + 2):
        log.event("tick", i=i)
    log.close()
    rotated = sorted(p.name for p in tmp_path.iterdir() if p.name != "events.jsonl")
    assert rotated == [f"events.jsonl.{k}" for k in range(1, KEEP_ROTATED + 1)]
    # Newest first: .1 holds the last line; the two oldest were dropped.
    kept = [lines(tmp_path / f"events.jsonl.{k}")[0]["i"] for k in (1, 2, 3)]
    assert kept == [4, 3, 2]


def test_refused_rotation_disables_with_a_reason_and_never_raises(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path, SimulatedClock(), max_bytes=1)
    with install_vfs(FaultyVFS(DiskFaultPlan(replace_failure_rate=1.0))):
        log.event("first")  # hits max_bytes: the rename is refused
        log.event("second")  # the disabled log drops it quietly
    assert not log.enabled
    assert log.disabled_reason.startswith("journal rotation refused")
    assert [r["event"] for r in lines(path)] == ["first"]
    log.close()


def test_refused_write_disables_with_a_reason_and_never_raises(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path, SimulatedClock())
    log.event("kept")
    with install_vfs(FaultyVFS(DiskFaultPlan(enospc_rate=1.0))):
        log.event("refused")
    log.event("after")
    assert not log.enabled
    assert log.disabled_reason.startswith("journal write refused")
    assert f"[Errno {errno.ENOSPC}]" in log.disabled_reason
    assert [r["event"] for r in lines(path)] == ["kept"]
    log.close()


def test_refused_open_disables_instead_of_raising(tmp_path):
    (tmp_path / "not-a-dir").write_text("a file where the parent should be")
    log = EventLog(tmp_path / "not-a-dir" / "events.jsonl", SimulatedClock())
    log.event("dropped")
    assert not log.enabled
    assert log.disabled_reason.startswith("journal open refused")
