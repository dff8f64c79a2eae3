"""Tests for the privacy accountant."""

import functools
import math
import operator

import numpy as np
import pytest

from repro.core.errors import PrivacyError
from repro.dp import accountant
from repro.dp.accountant import PrivacyAccountant
from repro.dp.mechanisms import PrivacyParams


class TestPrivacyAccountant:
    def test_sequential_composition_sums(self):
        acc = PrivacyAccountant()
        acc.spend(0.5, 0.01)
        acc.spend(0.3, 0.02)
        assert acc.total_epsilon == pytest.approx(0.8)
        assert acc.total_delta == pytest.approx(0.03)
        assert acc.n_invocations == 2

    def test_budget_enforced(self):
        acc = PrivacyAccountant(budget=PrivacyParams(1.0, 0.1))
        acc.spend(0.7)
        with pytest.raises(PrivacyError, match="budget exceeded"):
            acc.spend(0.5)

    def test_delta_budget_enforced(self):
        acc = PrivacyAccountant(budget=PrivacyParams(10.0, 0.05))
        with pytest.raises(PrivacyError):
            acc.spend(0.1, 0.06)

    def test_remaining_epsilon(self):
        acc = PrivacyAccountant(budget=PrivacyParams(2.0, 0.5))
        acc.spend(0.5)
        assert acc.remaining_epsilon() == pytest.approx(1.5)

    def test_remaining_infinite_without_budget(self):
        assert PrivacyAccountant().remaining_epsilon() == float("inf")

    def test_post_processing_is_free(self):
        acc = PrivacyAccountant(budget=PrivacyParams(1.0, 0.0))
        acc.spend(1.0)
        acc.post_process()  # must not raise or consume anything
        assert acc.total_epsilon == pytest.approx(1.0)

    def test_invalid_spend_rejected(self):
        acc = PrivacyAccountant()
        with pytest.raises(PrivacyError):
            acc.spend(-0.1)

    def test_remaining_delta(self):
        acc = PrivacyAccountant(budget=PrivacyParams(2.0, 0.5))
        acc.spend(0.5, 0.2)
        assert acc.remaining_delta() == pytest.approx(0.3)
        assert PrivacyAccountant().remaining_delta() == float("inf")

    def test_would_exceed_mirrors_spend_exactly(self):
        acc = PrivacyAccountant(budget=PrivacyParams(1.0, 0.0))
        # Ten 0.1-spends land exactly on the boundary under the same
        # left-to-right float association spend() uses.
        for _ in range(10):
            assert not acc.would_exceed(0.1)
            acc.spend(0.1)
        assert acc.would_exceed(0.1)
        with pytest.raises(PrivacyError):
            acc.spend(0.1)
        assert not PrivacyAccountant().would_exceed(1e9)  # no budget, no limit

    def test_state_round_trip(self):
        import json

        acc = PrivacyAccountant(budget=PrivacyParams(2.0, 0.5))
        acc.spend(0.5, 0.1, label="first")
        acc.spend(0.25, 0.05)
        restored = PrivacyAccountant.from_state(json.loads(json.dumps(acc.to_state())))
        assert restored.total_epsilon == acc.total_epsilon
        assert restored.total_delta == acc.total_delta
        assert restored.n_invocations == 2
        assert restored.remaining_epsilon() == pytest.approx(1.25)
        # The restored accountant enforces the boundary identically.
        restored.spend(1.25)
        with pytest.raises(PrivacyError):
            restored.spend(0.1)

    def test_state_round_trip_without_budget(self):
        acc = PrivacyAccountant()
        acc.spend(3.0)
        restored = PrivacyAccountant.from_state(acc.to_state())
        assert restored.budget is None
        assert restored.total_epsilon == pytest.approx(3.0)
        assert restored.remaining_epsilon() == float("inf")


class TestRunningTotals:
    """Totals are the left-to-right fold of the spends, on every Python.

    Python 3.12 made ``sum()`` of floats compensated, so a total taken
    with ``sum()`` can differ in the last bit from the running sum the
    serve ledger's ``spend_batch`` pre-check folds.
    """

    def test_ten_tenths_total_the_left_fold(self):
        acc = PrivacyAccountant()
        for _ in range(10):
            acc.spend(0.1, 0.01)
        assert acc.total_epsilon == 0.9999999999999999
        assert acc.total_delta == functools.reduce(operator.add, [0.01] * 10, 0.0)
        restored = PrivacyAccountant.from_state(acc.to_state())
        assert restored.total_epsilon == 0.9999999999999999

    def test_totals_ignore_a_compensated_sum(self, monkeypatch):
        """Python 3.12's compensated ``sum()`` would total ten 0.1s as 1.0."""
        monkeypatch.setattr(
            accountant, "sum", lambda values, start=0: start + math.fsum(values), raising=False
        )
        acc = PrivacyAccountant()
        for _ in range(10):
            acc.spend(0.1)
        assert acc.total_epsilon == 0.9999999999999999
        restored = PrivacyAccountant.from_state(acc.to_state())
        assert restored.total_epsilon == 0.9999999999999999

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_spends_total_their_left_fold(self, seed):
        rng = np.random.default_rng(seed)
        epsilons = rng.uniform(1e-4, 0.3, size=400).tolist()
        deltas = rng.uniform(0.0, 1e-4, size=400).tolist()
        acc = PrivacyAccountant()
        for epsilon, delta in zip(epsilons, deltas, strict=True):
            acc.spend(epsilon, delta)
        expected = (
            functools.reduce(operator.add, epsilons, 0.0),
            functools.reduce(operator.add, deltas, 0.0),
        )
        assert (acc.total_epsilon, acc.total_delta) == expected
        restored = PrivacyAccountant.from_state(acc.to_state())
        assert (restored.total_epsilon, restored.total_delta) == expected

    def test_refused_spend_leaves_the_totals(self):
        acc = PrivacyAccountant(budget=PrivacyParams(1.0, 0.0))
        acc.spend(0.75)
        with pytest.raises(PrivacyError):
            acc.spend(0.5)
        assert not acc.try_spend(0.5)
        assert acc.total_epsilon == 0.75
        assert acc.n_invocations == 1

    def test_no_spends_total_zero(self):
        acc = PrivacyAccountant.from_state({"budget": None, "spent": []})
        assert (acc.total_epsilon, acc.total_delta) == (0, 0)
