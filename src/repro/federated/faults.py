"""Seeded client-level fault injection for the federated chaos suite.

A :class:`ClientFaultPlan` declares rates, every decision is one seeded
uniform derived per ``(seed, round, client, attempt)`` — never a
sequentially-consumed stream — picked into a fault by
:func:`repro.core.faults.pick`, and the whole fault timeline is a pure
function of the plan.  Fault classes and the fate each one drives a
client toward:

* ``crash`` — the client dies before responding; the supervisor retries
  it on a later attempt, and a client that crashes through its whole
  attempt budget is ``dropped_out``.
* ``hang`` — the client never responds within any deadline (a stalled
  device); same retry/dropout path as a crash, but the supervisor only
  learns at the deadline.
* ``malformed`` — the contribution arrives structurally damaged (wrong
  width, NaN payload, broken cell index); admission rejects it
  (``rejected_malformed``).
* ``poisoned`` — the payload is inflated by ``poison_factor``; admission
  L1-clips it, so the fate is ``clipped`` and the aggregate moves by at
  most the clip bound.
* ``duplicate`` — the client submits twice; the second submission is
  refused without touching the client's (single) fate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.core.faults import check_rates, pick
from repro.core.rng import derive_rng

__all__ = ["CLIENT_FAULTS", "ClientFaultPlan"]

#: Injectable fault kinds (and ``ok`` for overrides).
CLIENT_FAULTS = ("crash", "hang", "malformed", "poisoned", "duplicate", "ok")

#: One uniform per ``(round, client, attempt)`` picks at most one of
#: these; fault kind -> rate field of :class:`ClientFaultPlan`.
_CLIENT_RATES = {fate: f"{fate}_rate" for fate in CLIENT_FAULTS if fate != "ok"}


@dataclass(frozen=True)
class ClientFaultPlan:
    """Declarative, deterministic client faults for one campaign.

    The five rates are mutually exclusive per draw (one uniform decides),
    so their sum must be at most 1.  ``overrides`` pins ``(round, client)``
    pairs to a fate; unlisted pairs roll the rates.  Attempts beyond
    ``max_faults_per_client`` are always healthy, which is how tests
    prove a crashed client deterministically succeeds on retry.
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    malformed_rate: float = 0.0
    poisoned_rate: float = 0.0
    duplicate_rate: float = 0.0
    seed: int = 0
    max_faults_per_client: int = 1
    poison_factor: float = 1e6
    overrides: tuple = ()

    def __post_init__(self) -> None:
        check_rates(self, _CLIENT_RATES.values(), exceeds="client fault rates exceed 1")
        if self.max_faults_per_client < 0:
            raise ConfigError("max_faults_per_client must be non-negative")
        if self.poison_factor <= 1.0:
            raise ConfigError(
                f"poison_factor must exceed 1 (an inflation), got {self.poison_factor}"
            )
        for entry in self.overrides:
            if len(entry) != 3 or entry[2] not in CLIENT_FAULTS:
                raise ConfigError(
                    "overrides entries must be (round, client, fate) with "
                    f"fate in {CLIENT_FAULTS}"
                )

    @property
    def any_faults(self) -> bool:
        return any(getattr(self, name) > 0 for name in _CLIENT_RATES.values()) or bool(
            self.overrides
        )

    def decide(self, round_id: int, client_id: int, attempt: int) -> "str | None":
        """Fate of this ``(round, client, attempt)``: None (healthy) or a fault."""
        if attempt > self.max_faults_per_client:
            return None
        for rnd, client, fate in self.overrides:
            if rnd == round_id and client == client_id:
                return None if fate == "ok" else fate
        u = float(
            derive_rng(self.seed, "client-fault", round_id, client_id, attempt).random()
        )
        return pick(u, self, _CLIENT_RATES)
