"""A minimal privacy accountant.

Tracks the cumulative ``(epsilon, delta)`` budget consumed by a sequence of
mechanism invocations under basic (sequential) composition, and exposes the
post-processing rule (Lemma 3 of the paper): applying any data-independent
transformation to a mechanism's output consumes no additional budget —
which is exactly why the optimization step of the paper's defense is free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import PrivacyError
from repro.dp.mechanisms import PrivacyParams

__all__ = ["PrivacyAccountant"]


@dataclass
class PrivacyAccountant:
    """Sequential-composition ledger of privacy expenditures."""

    budget: "PrivacyParams | None" = None
    _spent: list[PrivacyParams] = field(default_factory=list)
    # Running totals of _spent, folded left to right from 0 as each spend
    # lands: the sum BudgetLedger.spend_batch's pre-check computes, on every
    # Python (3.12's sum() of floats is compensated and can differ).
    _epsilon: float = field(default=0, init=False, repr=False, compare=False)
    _delta: float = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for params in self._spent:
            self._epsilon += params.epsilon
            self._delta += params.delta

    def spend(self, epsilon: float, delta: float = 0.0, label: str = "") -> PrivacyParams:
        """Record one mechanism invocation; raises if it exceeds the budget."""
        params = PrivacyParams(epsilon, delta)
        eps_after = self._epsilon + epsilon
        delta_after = self._delta + delta
        if self.budget is not None and (
            eps_after > self.budget.epsilon + 1e-12 or delta_after > self.budget.delta + 1e-12
        ):
            raise PrivacyError(
                f"budget exceeded by {label or 'mechanism'}: "
                f"({eps_after:.4g}, {delta_after:.4g}) > "
                f"({self.budget.epsilon:.4g}, {self.budget.delta:.4g})"
            )
        self._spent.append(params)
        self._epsilon, self._delta = eps_after, delta_after
        return params

    def try_spend(self, epsilon: float, delta: float = 0.0, label: str = "") -> bool:
        """Spend iff the budget affords it; never raises on refusal.

        The federated round supervisor's commit-or-abort primitive: a
        refused spend leaves the ledger untouched (the round aborts with its
        budget unspent), an affordable spend is recorded exactly as
        :meth:`spend` would record it.  Returns ``True`` when the spend was
        recorded.
        """
        if self.would_exceed(epsilon, delta):
            return False
        self.spend(epsilon, delta, label=label)
        return True

    def post_process(self) -> None:
        """Record a post-processing step (free by Lemma 3); a no-op ledger entry."""

    @property
    def total_epsilon(self) -> float:
        """Total epsilon under basic sequential composition."""
        return self._epsilon

    @property
    def total_delta(self) -> float:
        """Total delta under basic sequential composition."""
        return self._delta

    @property
    def n_invocations(self) -> int:
        return len(self._spent)

    def remaining_epsilon(self) -> float:
        """Budget left, or ``inf`` when no budget was set."""
        if self.budget is None:
            return float("inf")
        return max(0.0, self.budget.epsilon - self.total_epsilon)

    def remaining_delta(self) -> float:
        """Delta budget left, or ``inf`` when no budget was set."""
        if self.budget is None:
            return float("inf")
        return max(0.0, self.budget.delta - self.total_delta)

    def would_exceed(self, epsilon: float, delta: float = 0.0) -> bool:
        """Whether spending ``(epsilon, delta)`` now would bust the budget.

        The check mirrors :meth:`spend` exactly (including its floating
        tolerance), so refusal is deterministic at the boundary: a spend
        is refused iff this predicate is true at the moment of the spend.
        """
        if self.budget is None:
            return False
        return (
            self._epsilon + epsilon > self.budget.epsilon + 1e-12
            or self._delta + delta > self.budget.delta + 1e-12
        )

    # ------------------------------------------------------------------
    # Snapshot / restore — one accounting implementation for the offline
    # runners and the serve layer's persisted per-user ledgers.
    # ------------------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        """A JSON-serializable snapshot of budget and every spend."""
        return {
            "budget": None
            if self.budget is None
            else [self.budget.epsilon, self.budget.delta],
            "spent": [[p.epsilon, p.delta] for p in self._spent],
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "PrivacyAccountant":
        """Rebuild an accountant from a :meth:`to_state` snapshot."""
        raw_budget = state.get("budget")
        budget = (
            None
            if raw_budget is None
            else PrivacyParams(float(raw_budget[0]), float(raw_budget[1]))
        )
        spent = [PrivacyParams(float(e[0]), float(e[1])) for e in state.get("spent", [])]
        return cls(budget=budget, _spent=spent)
