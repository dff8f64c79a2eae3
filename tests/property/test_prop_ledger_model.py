"""Reference model of the budget ledger, as a hypothesis state machine.

The ledger's promise fits in a few lines: per user, the acknowledged
spends folded left to right, and the refusal boundary they draw.  A
spend the disk refused (or that a crash cut short) was never
acknowledged, but it may still have reached the disk, so the model also
keeps those spends *in doubt*.  Every restart may replay any part of the
doubt, never less than the acknowledged total: over-counting loses
budget, under-counting voids the (epsilon, delta) claim.

The machine drives one real :class:`~repro.serve.ledger.BudgetLedger`
through spends, compactions, injected disk faults, power cuts, crashes
inside a spend or a compaction, and clean restarts, all on one
:class:`~repro.core.vfs.FaultyVFS` so a power cut loses exactly the
bytes no fsync made durable.  After every step it also restores a copy
of those durable bytes, so each step is checked as if the power went
out right after it.
"""

from __future__ import annotations

import tempfile
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.errors import BudgetExhaustedError, DiskPressureError
from repro.core.vfs import DiskFaultPlan, FaultyVFS, SimulatedCrash, install_vfs
from repro.dp.mechanisms import PrivacyParams
from repro.serve.ledger import BudgetLedger

BUDGET = 3.0
USERS = ("alice", "bob")

users = st.sampled_from(USERS)
epsilons = st.floats(min_value=0.05, max_value=1.5, allow_nan=False)


class Model:
    """Acknowledged spends per user, folded left to right, plus doubt."""

    def __init__(self) -> None:
        self.acked = dict.fromkeys(USERS, 0.0)
        self.doubt = dict.fromkeys(USERS, 0.0)

    def refuses(self, user: str, epsilon: float) -> bool:
        return self.acked[user] + epsilon > BUDGET + 1e-12

    def grant(self, user: str, epsilon: float) -> None:
        self.acked[user] += epsilon

    def in_doubt(self, user: str, epsilon: float) -> None:
        self.doubt[user] += epsilon

    def check_replay(self, replayed: dict[str, float]) -> None:
        for user in USERS:
            assert self.acked[user] <= replayed[user], (user, self.acked, replayed)
            ceiling = self.acked[user] + self.doubt[user]
            assert replayed[user] <= ceiling + 1e-9, (user, ceiling, replayed)

    def adopt(self, replayed: dict[str, float]) -> None:
        self.check_replay(replayed)
        self.acked = dict(replayed)
        self.doubt = dict.fromkeys(USERS, 0.0)


def spent(ledger: BudgetLedger) -> dict[str, float]:
    return {user: ledger.user_state(user)["spent_epsilon"] for user in USERS}


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.stack = ExitStack()
        self.model = Model()

    @initialize(compact_every=st.integers(min_value=1, max_value=5))
    def open_ledger(self, compact_every: int) -> None:
        root = Path(self.stack.enter_context(tempfile.TemporaryDirectory()))
        self.dir = root / "ledger"
        self.probe = root / "probe"
        self.probe.mkdir()
        # Scoped to the ledger's directory, so the probe's reads and
        # writes stay out of the fault layer and its durability shadow.
        self.base_plan = DiskFaultPlan(path_substring=str(self.dir))
        self.vfs = self.stack.enter_context(install_vfs(FaultyVFS(self.base_plan)))
        self.compact_every = compact_every
        self.ledger = self._open()

    def teardown(self) -> None:
        ledger = getattr(self, "ledger", None)
        if ledger is not None and ledger._wal is not None:
            ledger._wal.close()
        self.stack.close()

    def _open(self, directory: Path | None = None) -> BudgetLedger:
        return BudgetLedger(
            PrivacyParams(BUDGET, 0.0),
            directory or self.dir,
            compact_every=self.compact_every,
        )

    def _reopen(self) -> None:
        """Restart on the same directory; the model adopts the replay."""
        if self.ledger._wal is not None:
            self.ledger._wal.close()
        self.ledger = self._open()
        self.model.adopt(spent(self.ledger))

    def _arm(self, **fields: object) -> None:
        self.vfs.plan = replace(self.base_plan, **fields)

    # -- rules ----------------------------------------------------------

    @rule(user=users, epsilon=epsilons)
    def spend(self, user: str, epsilon: float) -> None:
        refuses = self.model.refuses(user, epsilon)
        assert (self.ledger.would_refuse(user, epsilon) is not None) == refuses
        try:
            self.ledger.spend(user, epsilon)
        except BudgetExhaustedError:
            assert refuses
            return
        assert not refuses
        self.model.grant(user, epsilon)

    @rule()
    def compact(self) -> None:
        self.ledger.compact()

    @rule(
        user=users,
        epsilon=epsilons,
        kind=st.sampled_from(("enospc", "eio", "torn_write")),
        during_compaction=st.booleans(),
    )
    def disk_fault(
        self, user: str, epsilon: float, kind: str, during_compaction: bool
    ) -> None:
        """The disk refuses the next write: a spend's append or a snapshot."""
        self._arm(**{f"{kind}_rate": 1.0, "max_faults": self.vfs.counts.total + 1})
        try:
            if during_compaction:
                try:
                    self.ledger.compact()
                except OSError:
                    pass
            else:
                self.spend_in_doubt(user, epsilon)
        finally:
            self._arm()

    def spend_in_doubt(self, user: str, epsilon: float) -> None:
        refuses = self.model.refuses(user, epsilon)
        try:
            self.ledger.spend(user, epsilon)
        except BudgetExhaustedError:
            assert refuses
        except DiskPressureError:
            assert not refuses
            self.model.in_doubt(user, epsilon)
        else:
            assert not refuses
            self.model.grant(user, epsilon)

    @rule()
    def power_cut(self) -> None:
        self.vfs.simulate_crash()
        self._reopen()

    @rule(
        user=users,
        epsilon=epsilons,
        k=st.integers(min_value=1, max_value=16),
        mode=st.sampled_from(("before", "torn")),
        during_compaction=st.booleans(),
    )
    def crash_inside(
        self, user: str, epsilon: float, k: int, mode: str, during_compaction: bool
    ) -> None:
        """SIGKILL at the k-th durable op of a compaction or a spend."""
        self._arm(crash_at_op=self.vfs.n_ops + k, crash_mode=mode)
        try:
            if during_compaction:
                self.ledger.compact()
            else:
                self.spend(user, epsilon)
            return  # finished in fewer than k durable ops
        except SimulatedCrash:
            if not during_compaction:
                self.model.in_doubt(user, epsilon)
        finally:
            self._arm()
        self.vfs.simulate_crash()
        self._reopen()

    @rule()
    def restart(self) -> None:
        self.ledger.close()
        self._reopen()

    # -- invariants -----------------------------------------------------

    @invariant()
    def live_totals_match_the_model(self) -> None:
        live = spent(self.ledger)
        assert live == self.model.acked
        for user in USERS:
            assert live[user] <= BUDGET + 1e-12

    @invariant()
    def a_power_cut_now_replays_within_the_model(self) -> None:
        for path in self.probe.iterdir():
            path.unlink()
        for path in self.dir.iterdir():
            durable = self.vfs.durable_bytes(path)
            if durable is not None:
                (self.probe / path.name).write_bytes(durable)
        probe = self._open(self.probe)
        try:
            self.model.check_replay(spent(probe))
        finally:
            if probe._wal is not None:
                probe._wal.close()


LedgerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
test_ledger_matches_its_reference_model = LedgerMachine.TestCase
