"""PL009 fixture: shared-memory segments created and deleted in first-party code."""

import os
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path


def create_segment_directly(nbytes):
    shm = SharedMemory(name="poiagg-rogue", create=True, size=nbytes)  # PL009
    return shm


def unlink_someone_elses_segment():
    shm = SharedMemory(name="poiagg-rogue", create=False)  # PL009
    shm.unlink()  # PL009


def delete_segment_file(name):
    os.unlink(f"/dev/shm/{name}")  # PL009


def delete_segment_via_path(name):
    Path("/dev/shm/" + name).unlink()  # PL009
