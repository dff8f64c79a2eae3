"""Tests for retry/backoff, the circuit breaker, and the degradation ladder."""

import numpy as np
import pytest

from repro.core.breaker import CircuitBreaker
from repro.core.clock import SimulatedClock
from repro.core.errors import CircuitOpenError, ConfigError, TransientError
from repro.core.rng import derive_rng
from repro.geo.point import Point
from repro.lbs.entities import GeoServiceProvider, MobileUser
from repro.lbs.faults import FaultInjector, FaultPlan
from repro.lbs.resilience import (
    ResilienceConfig,
    RetryPolicy,
    UserSessionStats,
)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay_s=2.0, max_delay_s=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigError):
            RetryPolicy(deadline_s=0.0)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=4.0, jitter=0.0)
        rng = derive_rng(1, "bo")
        delays = [policy.backoff_delay(i, rng) for i in range(5)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=1.0, jitter=0.5)
        a = [policy.backoff_delay(0, derive_rng(2, "j")) for _ in range(3)]
        b = [policy.backoff_delay(0, derive_rng(2, "j")) for _ in range(3)]
        assert a == b  # same stream, same jitter
        assert all(1.0 <= d <= 1.5 for d in a)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=3, reset_timeout_s=10.0)
        assert breaker.state == "closed"
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.n_opens == 1
        with pytest.raises(CircuitOpenError):
            breaker.guard()

    def test_half_open_probe_then_close(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=1, reset_timeout_s=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # one probe goes through
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=5, reset_timeout_s=10.0)
        for _ in range(5):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half_open"
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        assert breaker.n_opens == 2

    def test_success_resets_consecutive_failures(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=2, reset_timeout_s=10.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # the streak was broken

    def test_validation(self):
        clock = SimulatedClock()
        with pytest.raises(ConfigError):
            CircuitBreaker(clock, failure_threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(clock, reset_timeout_s=0.0)
        with pytest.raises(ConfigError):
            CircuitBreaker(clock, half_open_max_probes=0)

    def test_snapshot_exposes_state(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=2, reset_timeout_s=10.0)
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["consecutive_failures"] == 0
        assert snap["failure_threshold"] == 2
        breaker.record_failure()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["n_opens"] == 1
        assert snap["opened_at"] == clock.now()
        clock.advance(10.0)
        breaker.allow()
        snap = breaker.snapshot()
        assert snap["state"] == "half_open"
        assert snap["half_open_probes_used"] == 1

    def test_half_open_probe_budget_is_configurable(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=1, reset_timeout_s=10.0, half_open_max_probes=2
        )
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # probe 1
        assert breaker.allow()  # probe 2
        assert not breaker.allow()  # probe budget spent, undecided -> hold
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_exhausted_probes_reopen_on_failure(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=1, reset_timeout_s=10.0, half_open_max_probes=1
        )
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        assert not breaker.allow()  # single probe consumed
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        snap = breaker.snapshot()
        assert snap["half_open_probes_used"] == 0  # reset for the next window


def _flaky_user(tiny_db, plan, seed, policy=None, breaker=None, clock=None):
    clock = clock if clock is not None else SimulatedClock()
    injector = FaultInjector(plan, derive_rng(seed, "inj"), clock=clock)
    gsp = injector.wrap_gsp(GeoServiceProvider(tiny_db))
    user = MobileUser(
        1,
        gsp,
        rng=derive_rng(seed, "user"),
        retry_policy=policy if policy is not None else RetryPolicy(),
        breaker=breaker,
        clock=clock,
    )
    return user, injector


class TestDegradationLadder:
    def test_retry_recovers_from_transient_faults(self, tiny_db):
        # ~40% failure, 3 attempts: nearly every release still goes out live
        # (p(all 3 attempts fail) = 0.064), none are lost outright.
        user, _ = _flaky_user(tiny_db, FaultPlan(transient_error_rate=0.4), seed=3)
        for i in range(20):
            release = user.release_at(Point(500, 500), 100.0, float(i))
            assert release is not None
        assert user.stats.n_released == 20
        assert user.stats.n_retries > 0
        assert user.stats.n_skipped == 0
        assert user.stats.n_degraded <= 2

    def test_degrades_to_last_known_good(self, tiny_db):
        user, _ = _flaky_user(
            tiny_db,
            FaultPlan(transient_error_rate=0.0),
            seed=4,
            policy=RetryPolicy(max_attempts=2),
        )
        good = user.release_at(Point(500, 500), 100.0, 0.0)
        assert good is not None
        # Now the GSP goes fully down: the cached vector keeps serving.
        user._gsp._injector.plan = FaultPlan(transient_error_rate=1.0)
        degraded = user.release_at(Point(900, 900), 100.0, 1.0)
        assert degraded is not None
        np.testing.assert_array_equal(
            degraded.frequency_vector, good.frequency_vector
        )
        assert degraded.timestamp == 1.0
        assert user.stats.n_degraded == 1

    def test_skips_with_no_cache(self, tiny_db):
        user, _ = _flaky_user(
            tiny_db,
            FaultPlan(transient_error_rate=1.0),
            seed=5,
            policy=RetryPolicy(max_attempts=2),
        )
        assert user.release_at(Point(500, 500), 100.0, 0.0) is None
        assert user.stats.n_skipped == 1
        assert user.stats.n_released == 0

    def test_deadline_budget_stops_retrying(self, tiny_db):
        policy = RetryPolicy(
            max_attempts=10, base_delay_s=5.0, max_delay_s=5.0, jitter=0.0, deadline_s=6.0
        )
        user, injector = _flaky_user(
            tiny_db, FaultPlan(transient_error_rate=1.0), seed=6, policy=policy
        )
        assert user.release_at(Point(500, 500), 100.0, 0.0) is None
        # One 5 s sleep fits the 6 s budget; a second would bust it.
        assert user.stats.n_retries == 1
        assert injector.counts["transient"] == 2

    def test_breaker_short_circuits_after_streak(self, tiny_db):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=3, reset_timeout_s=1e9)
        user, injector = _flaky_user(
            tiny_db,
            FaultPlan(transient_error_rate=1.0),
            seed=7,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.0, max_delay_s=0.0),
            breaker=breaker,
            clock=clock,
        )
        for i in range(10):
            assert user.release_at(Point(500, 500), 100.0, float(i)) is None
        assert breaker.n_opens == 1
        assert user.stats.n_short_circuits > 0
        # Once open, the GSP stops being hammered entirely.
        assert injector.counts["transient"] <= 4

    def test_no_policy_means_perfect_world_errors_propagate(self, tiny_db):
        injector = FaultInjector(FaultPlan(transient_error_rate=1.0), derive_rng(8, "p"))
        gsp = injector.wrap_gsp(GeoServiceProvider(tiny_db))
        user = MobileUser(1, gsp, rng=derive_rng(8, "u"))
        with pytest.raises(TransientError):
            user.release_at(Point(500, 500), 100.0, 0.0)


class TestConfigAndStats:
    def test_resilience_config_builds_breaker(self):
        clock = SimulatedClock()
        config = ResilienceConfig(breaker_failure_threshold=2, breaker_reset_timeout_s=5.0)
        breaker = config.build_breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"

    def test_resilience_config_carries_probe_budget(self):
        clock = SimulatedClock()
        config = ResilienceConfig(
            breaker_failure_threshold=1,
            breaker_reset_timeout_s=5.0,
            breaker_half_open_probes=3,
        )
        breaker = config.build_breaker(clock)
        assert breaker.snapshot()["half_open_max_probes"] == 3

    def test_stats_accumulate(self):
        total = UserSessionStats()
        total.add(UserSessionStats(n_attempted=3, n_released=2, n_skipped=1))
        total.add(UserSessionStats(n_attempted=2, n_released=2, n_retries=4))
        assert total.n_attempted == 5
        assert total.n_released == 4
        assert total.n_skipped == 1
        assert total.n_retries == 4
