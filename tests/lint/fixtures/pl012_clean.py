"""Compliant PL012 patterns: a failed spend stops the release.

Lints as repro.defense.fixture.  Re-raising, returning the refusal,
and the no-try ``try_spend`` guard (the federated round's idiom) are all
sound: the exception edge cannot reach the mechanism call.
"""


class GuardedRelease:
    def __init__(self, accountant, defense, fallback):
        self._accountant = accountant
        self._defense = defense
        self._fallback = fallback

    def release(self, row, rng):
        try:
            self._accountant.spend(1.0, 1e-6)
        except Exception:
            raise  # the refusal propagates: no unmetered release
        return self._defense.apply(row, rng)

    def release_with_refusal(self, row, rng):
        try:
            self._accountant.spend(1.0, 1e-6)
        except Exception:
            return None  # the except path exits before the release
        return self._defense.apply(row, rng)

    def release_checked(self, row, rng):
        if not self._accountant.try_spend(1.0, 1e-6):
            return self._fallback.release(row, rng)
        return self._defense.apply(row, rng)
