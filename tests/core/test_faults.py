"""The shared fault-schedule primitives: rate checks, picks, tallies, seeds."""

from dataclasses import dataclass

import pytest

from repro.core.errors import ConfigError
from repro.core.faults import SEEDS_ENV, FaultCounts, check_rates, pick, seeds_from_env

GROUP = {"crash": "crash_rate", "hang": "hang_rate"}


@dataclass(frozen=True)
class Plan:
    crash_rate: float = 0.0
    hang_rate: float = 0.0


class TestCheckRates:
    def test_each_rate_must_be_a_probability(self):
        with pytest.raises(ConfigError, match=r"hang_rate must be in \[0, 1\], got 1.5"):
            check_rates(Plan(hang_rate=1.5), GROUP.values())
        with pytest.raises(ConfigError, match="crash_rate"):
            check_rates(Plan(crash_rate=-0.1), GROUP.values())

    def test_exclusive_group_must_fit_in_one_draw(self):
        with pytest.raises(ConfigError, match="^too much$"):
            check_rates(Plan(0.6, 0.5), GROUP.values(), exceeds="too much")
        # Independent rates may sum past 1.
        check_rates(Plan(0.6, 0.5), GROUP.values())
        # A sum of exactly 1, up to float rounding, fits.
        check_rates(Plan(0.1 + 0.2, 0.7), GROUP.values(), exceeds="too much")


class TestPick:
    def test_kinds_take_consecutive_slices_in_group_order(self):
        plan = Plan(crash_rate=0.25, hang_rate=0.5)
        assert pick(0.0, plan, GROUP) == "crash"
        assert pick(0.2499, plan, GROUP) == "crash"
        assert pick(0.25, plan, GROUP) == "hang"
        assert pick(0.7499, plan, GROUP) == "hang"
        assert pick(0.75, plan, GROUP) is None

    def test_zero_rates_never_fire(self):
        assert pick(0.0, Plan(), GROUP) is None
        assert pick(0.0, Plan(hang_rate=0.1), GROUP) == "hang"


def test_fault_counts_tally_by_kind():
    counts = FaultCounts()
    assert counts["crash"] == 0 and counts.total == 0
    counts.count("crash")
    counts.count("crash")
    counts.count("enospc")
    assert counts["crash"] == 2
    assert counts.total == 3
    assert dict(counts) == {"crash": 2, "enospc": 1}
    assert FaultCounts({"drop": 0}).total == 0


class TestSeedsFromEnv:
    def test_unset_or_blank_keeps_the_suite_default(self, monkeypatch):
        monkeypatch.delenv(SEEDS_ENV, raising=False)
        assert seeds_from_env(default=(0, 1)) == (0, 1)
        monkeypatch.setenv(SEEDS_ENV, "   ")
        assert seeds_from_env() == (0,)

    def test_parses_whitespace_separated_ints(self, monkeypatch):
        monkeypatch.setenv(SEEDS_ENV, "0 1\t2\n5")
        assert seeds_from_env(default=(9,)) == (0, 1, 2, 5)

    def test_garbage_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv(SEEDS_ENV, "0 one")
        with pytest.raises(ConfigError, match=SEEDS_ENV):
            seeds_from_env()
