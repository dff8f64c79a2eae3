"""Guard against library code that nothing runs.

A name in a ``src/repro`` module's ``__all__`` is *reached* when code under
``src/``, ``benchmarks/`` or ``examples/`` uses it: a loaded name, an
attribute or an ``import from``, read from the syntax tree, so a docstring
or comment that names it does not count.  Uses inside the name's own module
count; the re-export in its package ``__init__`` does not.  Tests are not
users: a name that only the tests reach is deleted, unless it is one of the
kinds :data:`ALLOWED` lists, each with its reason.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).parent.parent
USER_DIRS = ("src", "benchmarks", "examples")

#: Public names kept without a user outside the tests, and why.
ALLOWED = {
    "repro.attacks.base.Attack": "the protocol every attack conforms to",
    "repro.core.crashsweep.SWEEP_MODES": "test support: the crash schedules a sweep runs",
    "repro.core.faults.seeds_from_env": "test support: the chaos suites' seed sweep",
    "repro.ingest.faults.FileCorruptor": "test support: the ingest chaos suite",
    "repro.ml.kernels.linear_kernel": "test support: the SVC tests' linear Grams",
    "repro.serve.loadgen.run_loadgen": "test support: the in-process load generator",
    "repro.datasets.trajectory_io.save_trajectory_log": (
        "writes the trajectory log format that `poiagg ingest` reads"
    ),
    "repro.dp.mechanisms.gaussian_mechanism": (
        "PL002 guards it by name, and the planned DP audit runs it"
    ),
    "repro.geo.disk.covers": "the covering fact behind the region attack's pruning",
    "repro.geo.disk.lens_area": "the reference the disk-intersection tests compare to",
    "repro.geo.distance.haversine": "the reference the projection tests compare to",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@cache
def _trees() -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in USER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def _uses(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _defined_exports(tree: ast.Module) -> list[str]:
    """``__all__`` names the module defines itself (not its re-exports)."""
    exported: list[str] = []
    defined: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__" and node.value is not None:
                        exported = list(ast.literal_eval(node.value))
    return [name for name in exported if name in defined]


@cache
def _unreached() -> frozenset[str]:
    trees = _trees()
    uses = {path: _uses(tree) for path, tree in trees.items()}
    unreached = set()
    for path, tree in trees.items():
        if not path.is_relative_to(ROOT / "src" / "repro"):
            continue
        package = path.parent.parent if path.name == "__init__.py" else path.parent
        reexport = package / "__init__.py"
        for name in _defined_exports(tree):
            if not any(name in used for p, used in uses.items() if p != reexport):
                unreached.add(f"{_module_name(path)}.{name}")
    return frozenset(unreached)


def test_every_public_name_has_a_user():
    stray = sorted(_unreached() - ALLOWED.keys())
    assert not stray, (
        "no code under src/, benchmarks/ or examples/ uses these public "
        f"names; delete them, or give them a user: {stray}"
    )


def test_every_allowed_name_is_still_unreached():
    stale = sorted(ALLOWED.keys() - _unreached())
    assert not stale, f"these names were deleted or gained a user; drop them from ALLOWED: {stale}"
