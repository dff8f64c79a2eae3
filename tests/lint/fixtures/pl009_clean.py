"""PL009 fixture: unlinks unrelated to shared memory."""

import os
from pathlib import Path


def everyday_file_cleanup(tmp_dir):
    # Path.unlink / os.remove on ordinary paths is out of scope.
    (Path(tmp_dir) / "scratch.json").unlink()
    os.remove(os.path.join(tmp_dir, "scratch.csv"))


def dynamic_path_is_not_provable(path):
    os.unlink(path)
