"""Deterministic backoff-with-jitter helper (repro.sim.backoff)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.backoff import BackoffPolicy
from repro.sim.core import SimulationError


class TestBackoffPolicy:
    def test_seeded_identity(self):
        """Same (policy, key) -> the exact same schedule, every time."""
        policy = BackoffPolicy(base=0.5, max_interval=8.0, max_retries=6)
        assert policy.schedule("am0-r3") == policy.schedule("am0-r3")
        assert BackoffPolicy(base=0.5, max_interval=8.0, max_retries=6) \
            .schedule("am0-r3") == policy.schedule("am0-r3")

    def test_different_keys_differ(self):
        policy = BackoffPolicy()
        assert policy.schedule("lane-a") != policy.schedule("lane-b")

    def test_exponential_growth_before_cap(self):
        policy = BackoffPolicy(base=1.0, multiplier=2.0, max_interval=1000.0,
                               jitter=0.0)
        assert policy.schedule() == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]

    def test_jitter_stays_within_amplitude(self):
        policy = BackoffPolicy(base=1.0, multiplier=2.0, max_interval=1e9,
                               jitter=0.2)
        for attempt in range(8):
            raw = 2.0 ** attempt
            got = policy.interval(attempt, "k")
            assert raw * 0.8 <= got <= raw * 1.2

    def test_validation(self):
        with pytest.raises(SimulationError):
            BackoffPolicy(base=0.0)
        with pytest.raises(SimulationError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(SimulationError):
            BackoffPolicy(base=2.0, max_interval=1.0)
        with pytest.raises(SimulationError):
            BackoffPolicy(jitter=1.0)
        with pytest.raises(SimulationError):
            BackoffPolicy(max_retries=-1)
        with pytest.raises(SimulationError):
            BackoffPolicy().interval(-1)

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.floats(0.01, 5.0),
        multiplier=st.floats(1.0, 4.0),
        max_interval=st.floats(5.0, 100.0),
        jitter=st.floats(0.0, 0.99),
        attempt=st.integers(0, 40),
        key=st.text(max_size=12),
    )
    def test_interval_never_exceeds_cap(self, base, multiplier, max_interval,
                                        jitter, attempt, key):
        """The cap applies *after* jitter: no interval ever exceeds
        max_interval, for any parameters, any attempt, any key."""
        policy = BackoffPolicy(base=base, multiplier=multiplier,
                               max_interval=max_interval, jitter=jitter)
        got = policy.interval(attempt, key)
        assert 0.0 < got <= max_interval

