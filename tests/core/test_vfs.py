"""The injectable durable-I/O layer: fault semantics and the durability
shadow that :meth:`FaultyVFS.simulate_crash` applies."""

import errno

import pytest

from repro.core.errors import ConfigError
from repro.core.vfs import (
    DISK_FAULT_KINDS,
    DiskFaultPlan,
    DurableVFS,
    FaultyVFS,
    SimulatedCrash,
    get_vfs,
    install_vfs,
)


def write(vfs, path, data, *, sync=False):
    with vfs.open(path, "w") as fh:
        fh.write(data)
        if sync:
            vfs.fsync(fh)


# ----------------------------------------------------------------------
# production pass-through
# ----------------------------------------------------------------------


def test_production_vfs_is_a_passthrough(tmp_path):
    vfs = DurableVFS()
    target = tmp_path / "out.txt"
    write(vfs, target, "hello", sync=True)
    assert target.read_text() == "hello"
    vfs.replace(target, tmp_path / "final.txt")
    assert (tmp_path / "final.txt").read_text() == "hello"
    assert not target.exists()


def test_vfs_refuses_read_modes(tmp_path):
    with pytest.raises(ConfigError):
        DurableVFS().open(tmp_path / "x", "r")


def test_install_is_exclusive_and_restored(tmp_path):
    faulty = FaultyVFS()
    with install_vfs(faulty):
        assert get_vfs() is faulty
        with pytest.raises(ConfigError):
            with install_vfs(FaultyVFS()):
                pass
    assert isinstance(get_vfs(), DurableVFS)
    assert get_vfs() is not faulty


def test_install_restores_after_simulated_crash(tmp_path):
    faulty = FaultyVFS(DiskFaultPlan(crash_at_op=1))
    with pytest.raises(SimulatedCrash):
        with install_vfs(faulty):
            write(faulty, tmp_path / "x", "boom")
    assert not isinstance(get_vfs(), FaultyVFS)


# ----------------------------------------------------------------------
# the durability shadow
# ----------------------------------------------------------------------


def test_unsynced_write_is_lost_on_crash(tmp_path):
    vfs = FaultyVFS()
    target = tmp_path / "ck.json"
    target.write_text("old")
    write(vfs, target, "new")  # no fsync
    assert target.read_text() == "new"
    vfs.simulate_crash()
    assert target.read_text() == "old"


def test_honest_fsync_makes_bytes_durable(tmp_path):
    vfs = FaultyVFS()
    target = tmp_path / "ck.json"
    write(vfs, target, "new", sync=True)
    vfs.simulate_crash()
    assert target.read_text() == "new"
    assert vfs.durable_bytes(target) == b"new"


def test_never_fsynced_new_file_vanishes_on_crash(tmp_path):
    vfs = FaultyVFS()
    target = tmp_path / "fresh.json"
    write(vfs, target, "ephemeral")
    vfs.simulate_crash()
    assert not target.exists()


def test_replace_publishes_only_durable_source_bytes(tmp_path):
    vfs = FaultyVFS()
    tmp, dst = tmp_path / "ck.tmp", tmp_path / "ck.json"
    write(vfs, tmp, "payload", sync=True)
    vfs.replace(tmp, dst)
    vfs.simulate_crash()
    assert dst.read_text() == "payload"


def test_replace_of_unsynced_source_is_the_pl014_torn_commit(tmp_path):
    """Rename metadata survives but the data does not: the empty-file
    publish that the commit-ordering rule exists to prevent."""
    vfs = FaultyVFS()
    tmp, dst = tmp_path / "ck.tmp", tmp_path / "ck.json"
    write(vfs, tmp, "payload")  # no fsync before the rename
    vfs.replace(tmp, dst)
    vfs.simulate_crash()
    assert dst.exists() and dst.read_bytes() == b""


def test_unlink_and_truncate_update_the_shadow(tmp_path):
    vfs = FaultyVFS()
    target = tmp_path / "wal"
    write(vfs, target, "0123456789", sync=True)
    vfs.truncate(target, 4)
    vfs.simulate_crash()
    assert target.read_text() == "0123"
    vfs.unlink(target)
    vfs.simulate_crash()
    assert not target.exists()


# ----------------------------------------------------------------------
# deterministic triggers (the sweep's levers)
# ----------------------------------------------------------------------


def test_crash_at_op_raises_before_the_op(tmp_path):
    vfs = FaultyVFS(DiskFaultPlan(crash_at_op=2, crash_mode="before"))
    target = tmp_path / "x"
    with pytest.raises(SimulatedCrash) as exc:
        write(vfs, target, "data")  # open is op 1, write is op 2
    assert exc.value.op_index == 2
    assert exc.value.op == "write"
    assert not target.read_bytes()


def test_simulated_crash_evades_except_exception(tmp_path):
    vfs = FaultyVFS(DiskFaultPlan(crash_at_op=1))
    with pytest.raises(SimulatedCrash):
        try:
            write(vfs, tmp_path / "x", "data")
        except Exception:  # a retry loop must NOT swallow a SIGKILL
            pytest.fail("SimulatedCrash was caught by `except Exception`")


def test_torn_crash_persists_a_strict_prefix(tmp_path):
    target = tmp_path / "x"
    vfs = FaultyVFS(DiskFaultPlan(seed=3, crash_at_op=2, crash_mode="torn"))
    with pytest.raises(SimulatedCrash):
        write(vfs, target, "0123456789")
    torn = target.read_bytes()
    assert torn == b"0123456789"[: len(torn)]
    assert len(torn) < 10


def test_lie_at_fsync_reports_success_without_durability(tmp_path):
    vfs = FaultyVFS(DiskFaultPlan(lie_at_fsync=1))
    target = tmp_path / "ck.json"
    write(vfs, target, "new", sync=True)  # the fsync "succeeds"
    assert target.read_text() == "new"
    vfs.simulate_crash()
    assert not target.exists()  # ...but nothing was durable
    assert vfs.counts["fsync_lie"] == 1


def test_op_log_enumerates_the_commit_protocol(tmp_path):
    vfs = FaultyVFS()
    tmp, dst = tmp_path / "ck.tmp", tmp_path / "ck.json"
    write(vfs, tmp, "payload", sync=True)
    vfs.replace(tmp, dst)
    assert [op for op, _ in vfs.op_log] == ["open", "write", "fsync", "replace"]
    assert vfs.n_ops == 4


# ----------------------------------------------------------------------
# probabilistic faults
# ----------------------------------------------------------------------


def test_enospc_is_a_typed_oserror(tmp_path):
    vfs = FaultyVFS(DiskFaultPlan(enospc_rate=1.0))
    with pytest.raises(OSError) as exc:
        write(vfs, tmp_path / "x", "data")
    assert exc.value.errno == errno.ENOSPC


def test_replace_failure_leaves_the_commit_unmade(tmp_path):
    vfs = FaultyVFS(DiskFaultPlan(replace_failure_rate=1.0))
    tmp, dst = tmp_path / "ck.tmp", tmp_path / "ck.json"
    write(vfs, tmp, "payload", sync=True)
    with pytest.raises(OSError) as exc:
        vfs.replace(tmp, dst)
    assert exc.value.errno == errno.EIO
    assert tmp.exists() and not dst.exists()


def test_same_seed_replays_the_same_faults(tmp_path):
    def run(seed):
        vfs = FaultyVFS(DiskFaultPlan(seed=seed, eio_rate=0.4))
        outcomes = []
        for i in range(20):
            try:
                write(vfs, tmp_path / f"f{i}", "x")
            except OSError:
                outcomes.append(i)
        return outcomes

    assert run(7) == run(7)
    assert run(7) != run(8)  # astronomically unlikely to collide


def test_max_faults_caps_random_injection(tmp_path):
    vfs = FaultyVFS(DiskFaultPlan(enospc_rate=1.0, max_faults=2))
    failures = 0
    for i in range(10):
        try:
            write(vfs, tmp_path / f"f{i}", "x")
        except OSError:
            failures += 1
    assert failures == 2
    assert vfs.counts.total == 2


def test_path_substring_scopes_the_faults(tmp_path):
    vfs = FaultyVFS(DiskFaultPlan(enospc_rate=1.0, path_substring="ledger"))
    write(vfs, tmp_path / "journal.jsonl", "fine")  # not eligible
    with pytest.raises(OSError):
        write(vfs, tmp_path / "ledger.wal", "x")


def test_plan_validation_rejects_nonsense():
    with pytest.raises(ConfigError):
        DiskFaultPlan(enospc_rate=1.5)
    with pytest.raises(ConfigError):
        DiskFaultPlan(crash_at_op=0)
    with pytest.raises(ConfigError):
        DiskFaultPlan(lie_at_fsync=0)
    with pytest.raises(ConfigError):
        DiskFaultPlan(crash_mode="after")
    with pytest.raises(ConfigError):
        DiskFaultPlan(slow_io_s=-1.0)


def test_fault_taxonomy_is_closed():
    plan = DiskFaultPlan()
    for kind in DISK_FAULT_KINDS:
        assert hasattr(plan, f"{kind}_rate")
