"""Fixture-driven rule tests: every rule's positive, negative, and
suppressed case, linted under the role the fixture mimics."""

from pathlib import Path

import pytest

from repro.lint import check_source

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, as_path: str, select: "list[str] | None" = None):
    """Lint a fixture file as though it lived at *as_path*."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return check_source(source, as_path, select=select)


# (fixture, role-path it lints as, expected rule, expected violation count)
CASES = [
    ("pl001_violations.py", "examples/fixture.py", "PL001", 7),
    ("pl001_module_demo.py", "src/repro/fixture.py", "PL001", 1),
    ("pl001_clean.py", "examples/fixture.py", "PL001", 0),
    ("pl001_suppressed.py", "examples/fixture.py", "PL001", 0),
    ("pl002_violations.py", "src/repro/experiments/fixture.py", "PL002", 3),
    ("pl002_defense_free_function.py", "src/repro/defense/fixture.py", "PL002", 1),
    ("pl002_clean.py", "src/repro/defense/fixture.py", "PL002", 0),
    ("pl003_violations.py", "src/repro/attacks/fixture.py", "PL003", 4),
    ("pl003_clean.py", "src/repro/attacks/fixture.py", "PL003", 0),
    ("pl004_violations.py", "src/repro/experiments/fixture.py", "PL004", 3),
    ("pl004_clean.py", "src/repro/experiments/fixture.py", "PL004", 0),
    ("pl005_violations.py", "src/repro/experiments/fixture.py", "PL005", 4),
    ("pl005_clean.py", "src/repro/experiments/fixture.py", "PL005", 0),
    ("pl006_violations.py", "examples/fixture.py", "PL006", 4),
    ("pl006_clean.py", "examples/fixture.py", "PL006", 0),
    ("pl007_violations.py", "src/repro/experiments/fixture.py", "PL007", 4),
    ("pl007_clean.py", "src/repro/experiments/fixture.py", "PL007", 0),
    ("pl008_violations.py", "src/repro/serve/fixture.py", "PL008", 4),
    ("pl008_clean.py", "src/repro/serve/fixture.py", "PL008", 0),
    ("pl009_violations.py", "src/repro/experiments/fixture.py", "PL009", 5),
    ("pl009_clean.py", "src/repro/experiments/fixture.py", "PL009", 0),
    # No module is exempt: the one that used to own segments is gone.
    ("pl009_violations.py", "src/repro/poi/shared.py", "PL009", 5),
    ("pl010_violations.py", "src/repro/federated/fixture.py", "PL010", 5),
    ("pl010_clean.py", "src/repro/federated/fixture.py", "PL010", 0),
    ("pl015_violations.py", "src/repro/ingest/fixture.py", "PL015", 6),
    ("pl015_clean.py", "src/repro/ingest/fixture.py", "PL015", 0),
]


@pytest.mark.parametrize("fixture,as_path,rule,expected", CASES)
def test_fixture_counts(fixture, as_path, rule, expected):
    violations = lint_fixture(fixture, as_path, select=[rule])
    assert len(violations) == expected, "\n".join(v.render() for v in violations)
    assert all(v.rule_id == rule for v in violations)


@pytest.mark.parametrize(
    "fixture,as_path",
    [(f, p) for f, p, _, n in CASES if n > 0],
)
def test_violations_carry_location_and_rule_id(fixture, as_path):
    """Every finding names its rule and a real file:line (the CI contract)."""
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    n_lines = len(source.splitlines())
    for v in lint_fixture(fixture, as_path):
        assert v.path == as_path
        assert 1 <= v.line <= n_lines
        assert v.col >= 1
        assert v.rule_id.startswith("PL")
        assert v.rule_id in v.render()
        assert f"{as_path}:{v.line}" in v.render()


def test_violations_point_at_marked_lines():
    """Findings land on the lines the fixtures annotate with `# PL00x`."""
    for fixture, as_path, rule, expected in CASES:
        if expected == 0:
            continue
        source = (FIXTURES / fixture).read_text(encoding="utf-8")
        marked = {
            i
            for i, line in enumerate(source.splitlines(), start=1)
            if f"# {rule}" in line
        }
        if not marked:
            continue
        flagged = {v.line for v in lint_fixture(fixture, as_path, select=[rule])}
        assert marked <= flagged, (
            f"{fixture}: marked lines {sorted(marked - flagged)} not flagged"
        )


def test_tests_are_exempt_from_code_rules():
    """Everything except PL005-in-library is waived under tests/ paths."""
    source = (FIXTURES / "pl001_violations.py").read_text(encoding="utf-8")
    assert check_source(source, "tests/attacks/test_fixture.py") == []


def test_line_level_suppression_is_line_scoped():
    source = (
        "import numpy as np\n"
        "np.random.seed(0)  # poiagg: disable=PL001\n"
        "np.random.seed(1)\n"
    )
    violations = check_source(source, "examples/fixture.py")
    assert [v.line for v in violations] == [3]


def test_unknown_rule_in_pragma_suppresses_nothing():
    source = (
        "# poiagg: disable=PL999\n"
        "import numpy as np\n"
        "np.random.seed(0)\n"
    )
    assert len(check_source(source, "examples/fixture.py")) == 1


def test_import_alias_spellings_all_resolve():
    """np.random is recognised however the import is spelled."""
    spellings = [
        "import numpy as np\nnp.random.seed(0)\n",
        "import numpy\nnumpy.random.seed(0)\n",
        "from numpy import random\nrandom.seed(0)\n",
        "from numpy import random as npr\nnpr.seed(0)\n",
        "from numpy.random import seed\nseed(0)\n",
    ]
    for source in spellings:
        violations = check_source(source, "examples/fixture.py", select=["PL001"])
        assert len(violations) == 1, source
