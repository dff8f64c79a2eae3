"""Round supervision: deadlines, dropout tolerance, and atomic commits.

The orchestration layer of the federated backend, modeled on the shard
supervisor of :mod:`repro.experiments.supervisor`.  One round proceeds
chunk by chunk through the client population:

1. every chunk's clients submit (attempt 1); crashed/hung clients are
   *silent* and get up to ``retries`` further attempts,
2. admission fates each submission (accept / clip / reject-malformed /
   refuse-late) and the merger folds the admitted payloads,
3. clients silent through their whole attempt budget are ``dropped_out``,
4. the chunk's contributors' protocol noise-share sum is folded once.

A round then either **commits** — the contributor count met the quorum
*and* the campaign accountant afforded the round's ``(epsilon, delta)``
(:meth:`~repro.dp.accountant.PrivacyAccountant.try_spend`, recorded at
commit time only) — or **aborts** with the budget untouched.  Committed
rounds checkpoint atomically (PL007 temp + ``os.replace`` discipline) so
a SIGKILLed campaign resumes bit-identically: a torn round leaves no
checkpoint, is re-run as a pure function of ``(config, seed, faults)``,
and its budget is spent exactly once.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.core.clock import SystemClock
from repro.core.errors import ConfigError
from repro.core.events import EventLog
from repro.core.retention import prune_keep_last
from repro.dp.accountant import PrivacyAccountant
from repro.dp.mechanisms import PrivacyParams
from repro.federated.admission import AdmissionPipeline, RoundLedger
from repro.federated.clients import ClientPopulation
from repro.federated.config import FederatedConfig
from repro.federated.faults import ClientFaultPlan
from repro.federated.merger import AdaptiveGrid, StreamingMerger
from repro.ingest.atomic import atomic_write_text
from repro.poi.database import POIDatabase

__all__ = [
    "CampaignResult",
    "RoundOutcome",
    "RoundSupervisor",
    "round_checkpoint_path",
    "run_campaign",
]

_CHECKPOINT_DIR = Path(".checkpoints") / "federated"
_JOURNAL_NAME = "journal.jsonl"


def round_checkpoint_path(out: "Path | str", round_id: int) -> Path:
    """Where one committed/aborted round's checkpoint lives."""
    return Path(out) / _CHECKPOINT_DIR / f"round-{round_id:04d}.json"


def journal_path(out: "Path | str") -> Path:
    """The campaign journal (append-only, advisory)."""
    return Path(out) / _CHECKPOINT_DIR / _JOURNAL_NAME


def _fault_fingerprint(plan: "ClientFaultPlan | None") -> str:
    if plan is None:
        return "none"
    state = asdict(plan)
    state["overrides"] = [list(o) for o in plan.overrides]
    return json.dumps(state, sort_keys=True)


@dataclass
class RoundOutcome:
    """What one round did: its ledger, its release, and its cost."""

    round_id: int
    committed: bool
    abort_reason: str
    ledger: RoundLedger
    released: "np.ndarray | None"  # (n_cells, n_types), clamped at 0
    merge_stats: dict
    epsilon_spent: float
    delta_spent: float

    def as_dict(self) -> dict:
        return {
            "round_id": self.round_id,
            "committed": self.committed,
            "abort_reason": self.abort_reason,
            "ledger": self.ledger.as_dict(),
            "released": None if self.released is None else self.released.tolist(),
            "merge_stats": dict(self.merge_stats),
            "epsilon_spent": self.epsilon_spent,
            "delta_spent": self.delta_spent,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "RoundOutcome":
        released = state.get("released")
        return cls(
            round_id=int(state["round_id"]),
            committed=bool(state["committed"]),
            abort_reason=str(state["abort_reason"]),
            ledger=RoundLedger.from_dict(state["ledger"]),
            released=None if released is None else np.asarray(released, dtype=np.float64),
            merge_stats=dict(state["merge_stats"]),
            epsilon_spent=float(state["epsilon_spent"]),
            delta_spent=float(state["delta_spent"]),
        )


class RoundSupervisor:
    """Drive one population through dropout-tolerant aggregation rounds."""

    def __init__(
        self, population: ClientPopulation, accountant: PrivacyAccountant
    ) -> None:
        self._pop = population
        self._accountant = accountant

    @property
    def accountant(self) -> PrivacyAccountant:
        return self._accountant

    def run_round(
        self,
        round_id: int,
        grid: AdaptiveGrid,
        *,
        fault_plan: "ClientFaultPlan | None" = None,
        zero_payload_clients: "frozenset[int] | None" = None,
    ) -> RoundOutcome:
        """Run one round to its single outcome: commit or abort.

        The round spends budget only on the commit path, after the
        quorum check — an aborted round (quorum miss *or* budget
        refusal) leaves the accountant exactly as it found it.
        """
        pop = self._pop
        config = pop.config
        ledger = RoundLedger(round_id=round_id, enrolled=pop.n_clients)
        admission = AdmissionPipeline(config, pop.n_types, grid.n_cells)
        merger = StreamingMerger(grid.n_cells, pop.n_types, config)

        for chunk in range(pop.n_chunks):
            pending: "np.ndarray | None" = None
            contributors: list[np.ndarray] = []
            for attempt in range(1, config.retries + 2):
                if pending is not None and len(pending) == 0:
                    break
                batch, silent = pop.contribution_batch(
                    round_id,
                    chunk,
                    grid,
                    attempt=attempt,
                    only_clients=pending,
                    fault_plan=fault_plan,
                    zero_payload_clients=zero_payload_clients,
                )
                cells, values, admitted_ids = admission.admit_batch(batch, ledger)
                merger.fold(cells, values)
                contributors.append(admitted_ids)
                pending = silent
            if pending is not None:
                for client_id in pending:
                    ledger.record("dropped_out", int(client_id))
            contributor_ids = (
                np.concatenate(contributors) if contributors else np.empty(0, np.int64)
            )
            if len(contributor_ids):
                merger.add_dense(
                    pop.noise_share_sum(round_id, chunk, contributor_ids, grid.n_cells)
                )

        ledger.require_accounted()
        if ledger.contributed < config.quorum_count:
            return RoundOutcome(
                round_id=round_id,
                committed=False,
                abort_reason=(
                    f"quorum not met: {ledger.contributed} contributed < "
                    f"{config.quorum_count} required"
                ),
                ledger=ledger,
                released=None,
                merge_stats=merger.stats.as_dict(),
                epsilon_spent=0.0,
                delta_spent=0.0,
            )
        if not self._accountant.try_spend(
            config.epsilon, config.delta, label=f"federated-round-{round_id}"
        ):
            return RoundOutcome(
                round_id=round_id,
                committed=False,
                abort_reason=(
                    f"budget refused: ({config.epsilon}, {config.delta}) not "
                    f"affordable with epsilon remaining "
                    f"{self._accountant.remaining_epsilon():.4g}"
                ),
                ledger=ledger,
                released=None,
                merge_stats=merger.stats.as_dict(),
                epsilon_spent=0.0,
                delta_spent=0.0,
            )
        # Clamping at zero is data-independent post-processing (Lemma 3):
        # free, and it keeps released rows valid frequency vectors.
        released = np.maximum(merger.totals(), 0.0)
        return RoundOutcome(
            round_id=round_id,
            committed=True,
            abort_reason="",
            ledger=ledger,
            released=released,
            merge_stats=merger.stats.as_dict(),
            epsilon_spent=config.epsilon,
            delta_spent=config.delta,
        )


@dataclass
class CampaignResult:
    """A whole campaign: per-round outcomes plus the final release."""

    seed: int
    rounds: list = field(default_factory=list)
    grid: "AdaptiveGrid | None" = None
    accountant: "PrivacyAccountant | None" = None
    resumed_rounds: int = 0

    @property
    def n_committed(self) -> int:
        return sum(1 for r in self.rounds if r.committed)

    @property
    def n_aborted(self) -> int:
        return len(self.rounds) - self.n_committed

    @property
    def released(self) -> "np.ndarray | None":
        """The latest committed round's released heatmap."""
        for outcome in reversed(self.rounds):
            if outcome.committed:
                return outcome.released
        return None


def _checkpoint_matches(
    state: "dict | None", fingerprint: str, seed: int, faults: str, round_id: int
) -> bool:
    if not isinstance(state, dict) or "outcome" not in state:
        return False
    return (
        state.get("fingerprint") == fingerprint
        and state.get("seed") == seed
        and state.get("faults") == faults
        and state.get("round_id") == round_id
    )


def run_campaign(
    database: POIDatabase,
    config: FederatedConfig,
    seed: int,
    *,
    budget: "PrivacyParams | None" = None,
    fault_plan: "ClientFaultPlan | None" = None,
    zero_payload_clients: "frozenset[int] | None" = None,
    out: "Path | str | None" = None,
    resume: bool = False,
    checkpoint_keep_last: "int | None" = None,
) -> CampaignResult:
    """Run ``config.n_rounds`` federated rounds as one campaign.

    The campaign is a pure function of ``(database, config, seed,
    fault_plan)``.  With *out* set, every finished round checkpoints
    atomically under ``<out>/.checkpoints/federated/`` — the outcome,
    the post-round accountant state, and the post-refinement grid — and
    ``resume=True`` restores finished rounds from matching checkpoints
    instead of re-running them.  A round interrupted mid-flight left no
    checkpoint, so a resumed campaign re-runs it identically and its
    budget is spent exactly once: the restored accountant comes from the
    last *finished* round.

    *budget* defaults to exactly ``n_rounds`` rounds' worth, so a
    healthy campaign commits every round; pass a smaller budget to
    exercise the refusal path.

    *checkpoint_keep_last* bounds the round-checkpoint history: after
    each round commits its checkpoint, older ``round-*.json`` files
    beyond the N newest are pruned
    (:func:`repro.core.retention.prune_keep_last`).  Each checkpoint
    carries the *cumulative* accountant and grid state, so resume only
    ever needs the newest one; pruned rounds re-run bit-identically if
    the newest is gone too.  ``None`` keeps everything.
    """
    if checkpoint_keep_last is not None and checkpoint_keep_last < 1:
        raise ConfigError(
            f"checkpoint_keep_last must be >= 1 or None, got {checkpoint_keep_last}"
        )
    if resume and out is None:
        raise ConfigError("resume needs an output directory for checkpoints")
    if budget is None:
        # delta composes additively but is meaningless at or above 1, so a
        # long default campaign caps there; rounds past the cap are refused
        # rather than pretending the guarantee still holds.
        budget = PrivacyParams(
            config.epsilon * config.n_rounds,
            min(config.delta * config.n_rounds, 1.0 - 1e-9),
        )
    accountant = PrivacyAccountant(budget=budget)
    population = ClientPopulation(database, config, seed)
    grid = AdaptiveGrid(database.bounds, config.grid_nx, config.grid_ny)
    fingerprint = config.fingerprint()
    faults = _fault_fingerprint(fault_plan)
    journal = EventLog(journal_path(out) if out is not None else None, SystemClock())
    result = CampaignResult(seed=seed)

    try:
        for round_id in range(config.n_rounds):
            restored = False
            if resume and out is not None:
                path = round_checkpoint_path(out, round_id)
                state = None
                if path.exists():
                    state = json.loads(path.read_text())
                if _checkpoint_matches(state, fingerprint, seed, faults, round_id):
                    assert state is not None
                    outcome = RoundOutcome.from_dict(state["outcome"])
                    accountant = PrivacyAccountant.from_state(state["accountant"])
                    grid = AdaptiveGrid.from_state(state["grid_after"])
                    result.rounds.append(outcome)
                    result.resumed_rounds += 1
                    restored = True
                    journal.event(
                        "round_resumed", round_id=round_id, committed=outcome.committed
                    )
            if restored:
                continue

            supervisor = RoundSupervisor(population, accountant)
            outcome = supervisor.run_round(
                round_id,
                grid,
                fault_plan=fault_plan,
                zero_payload_clients=zero_payload_clients,
            )
            if outcome.committed and outcome.released is not None:
                grid.refine(
                    outcome.released.sum(axis=1), config, population.n_types
                )
            result.rounds.append(outcome)
            journal.event(
                "round_committed" if outcome.committed else "round_aborted",
                round_id=round_id,
                contributed=outcome.ledger.contributed,
                abort_reason=outcome.abort_reason,
            )
            if out is not None:
                atomic_write_text(
                    round_checkpoint_path(out, round_id),
                    json.dumps(
                        {
                            "fingerprint": fingerprint,
                            "seed": seed,
                            "faults": faults,
                            "round_id": round_id,
                            "outcome": outcome.as_dict(),
                            "accountant": accountant.to_state(),
                            "grid_after": grid.to_state(),
                        },
                        sort_keys=True,
                    ),
                )
                if checkpoint_keep_last is not None:
                    pruned = prune_keep_last(
                        Path(out) / _CHECKPOINT_DIR,
                        "round-*.json",
                        checkpoint_keep_last,
                    )
                    if pruned:
                        journal.event(
                            "checkpoints_pruned",
                            round_id=round_id,
                            n_pruned=len(pruned),
                            keep_last=checkpoint_keep_last,
                        )
    finally:
        journal.close()

    result.grid = grid
    result.accountant = accountant
    return result
