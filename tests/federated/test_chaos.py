"""Seeded chaos sweeps over the federated round machinery.

Whatever mix of crashes, hangs, malformed payloads, poisoning, and
duplicate submissions a :class:`ClientFaultPlan` injects, the invariants
hold:

* every enrolled client gets exactly one ledger fate per round;
* the accountant holds exactly one spend per *committed* round — aborts
  (quorum miss or budget refusal) are free, and a kill-and-resume never
  double-charges a torn round;
* released heatmaps are finite and non-negative despite NaN payloads in
  flight;
* one poisoned client displaces the release by at most the clip bound.

Seeds come from ``POIAGG_CHAOS_SEEDS`` (space-separated; default
``"0 1 2"``), shared by every chaos suite — CI's chaos job widens the
sweep without changing the test body.
"""

import numpy as np
import pytest

from repro.core.faults import seeds_from_env
from repro.federated import (
    ClientFaultPlan,
    FederatedConfig,
    round_checkpoint_path,
    run_campaign,
)

SEEDS = seeds_from_env(default=(0, 1, 2))

CONFIG = FederatedConfig(
    n_clients=120,
    n_rounds=2,
    chunk_clients=64,
    memory_budget_mb=64.0,
    clip_bound=32.0,
    quorum=0.5,
    retries=1,
)

PLANS = {
    "mixed": ClientFaultPlan(
        crash_rate=0.1,
        hang_rate=0.05,
        malformed_rate=0.05,
        poisoned_rate=0.05,
        duplicate_rate=0.05,
    ),
    "flaky-retry": ClientFaultPlan(crash_rate=0.4, max_faults_per_client=1),
    "hostile": ClientFaultPlan(
        malformed_rate=0.2, poisoned_rate=0.2, duplicate_rate=0.1
    ),
    "mass-dropout": ClientFaultPlan(
        crash_rate=0.35, hang_rate=0.15, max_faults_per_client=99
    ),
}


def plans_by_seed():
    return [
        pytest.param(seed, name, plan, id=f"{name}-seed{seed}")
        for seed in SEEDS
        for name, plan in PLANS.items()
    ]


@pytest.mark.parametrize("seed,name,plan", plans_by_seed())
class TestChaosInvariants:
    def test_ledgers_and_budget_and_release(self, db, seed, name, plan):
        plan = ClientFaultPlan(**{**_as_kwargs(plan), "seed": seed})
        result = run_campaign(db, CONFIG, seed, fault_plan=plan)
        assert len(result.rounds) == CONFIG.n_rounds
        for outcome in result.rounds:
            # exactly one fate each, whatever happened
            outcome.ledger.require_accounted()
            if outcome.committed:
                assert outcome.released is not None
                assert np.isfinite(outcome.released).all()
                assert (outcome.released >= 0.0).all()
                assert outcome.ledger.contributed >= CONFIG.quorum_count
            else:
                assert outcome.released is None
        # one spend per committed round, aborts free
        assert result.accountant.total_epsilon == pytest.approx(
            result.n_committed * CONFIG.epsilon
        )
        assert result.accountant.n_invocations == result.n_committed

    def test_kill_resume_never_double_spends(self, db, seed, name, plan, tmp_path):
        plan = ClientFaultPlan(**{**_as_kwargs(plan), "seed": seed})
        full = run_campaign(db, CONFIG, seed, fault_plan=plan, out=tmp_path)
        # simulate a SIGKILL that tore the final round's checkpoint away
        round_checkpoint_path(tmp_path, CONFIG.n_rounds - 1).unlink()
        resumed = run_campaign(
            db, CONFIG, seed, fault_plan=plan, out=tmp_path, resume=True
        )
        assert resumed.resumed_rounds == CONFIG.n_rounds - 1
        for a, b in zip(full.rounds, resumed.rounds):
            assert a.committed == b.committed
            if a.committed:
                assert np.array_equal(a.released, b.released)
        assert resumed.accountant.total_epsilon == pytest.approx(
            full.accountant.total_epsilon
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_poisoned_client_displaces_release_by_at_most_clip_bound(db, seed):
    """The paper's robustness claim, end to end: admission clipping caps
    one hostile client's influence on the published heatmap."""
    victim = 17
    plan = ClientFaultPlan(
        seed=seed, poison_factor=1e9, overrides=((0, victim, "poisoned"),)
    )
    config = FederatedConfig(
        n_clients=120, n_rounds=1, chunk_clients=64,
        memory_budget_mb=64.0, clip_bound=32.0, quorum=0.5,
    )
    poisoned = run_campaign(db, config, seed, fault_plan=plan)
    baseline = run_campaign(
        db, config, seed, fault_plan=plan,
        zero_payload_clients=frozenset({victim}),
    )
    assert poisoned.rounds[0].committed and baseline.rounds[0].committed
    displacement = np.abs(poisoned.released - baseline.released).sum()
    # clamping at zero is 1-Lipschitz per entry, so the bound survives it
    assert displacement <= config.clip_bound + 1e-6


def _as_kwargs(plan):
    from dataclasses import asdict

    return asdict(plan)
