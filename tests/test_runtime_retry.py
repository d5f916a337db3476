"""Tests for :mod:`repro.runtime.retry`.

The property that matters operationally: a *seeded* rng reproduces the
whole backoff schedule draw-for-draw, so a chaos run's retry timing is
replayable, while every draw stays inside the jitter envelope.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.retry import ENGINE_DEFAULT, SERVICE_DEFAULT, RetryPolicy


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(attempts=0),
        dict(base_delay=-0.1),
        dict(max_delay=-1.0),
        dict(multiplier=0.5),
        dict(jitter=1.5),
        dict(jitter=-0.1),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_negative_retry_index_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class TestSchedule:
    def test_attempts_minus_one_delays(self):
        policy = RetryPolicy(attempts=4, base_delay=0.1, jitter=0.0)
        assert len(list(policy.delays())) == 3

    def test_exponential_growth_capped(self):
        policy = RetryPolicy(attempts=6, base_delay=0.1, multiplier=2.0,
                             max_delay=0.35, jitter=0.0)
        assert list(policy.delays()) == pytest.approx(
            [0.1, 0.2, 0.35, 0.35, 0.35])

    def test_zero_base_delay_retries_immediately(self):
        assert list(ENGINE_DEFAULT.delays()) == [0.0]

    def test_seeded_rng_reproduces_schedule(self):
        policy = RetryPolicy(attempts=5, base_delay=0.05, jitter=0.5)
        first = list(policy.delays(np.random.default_rng(11)))
        second = list(policy.delays(np.random.default_rng(11)))
        assert first == second
        # A different seed draws a different schedule (overwhelmingly).
        other = list(policy.delays(np.random.default_rng(12)))
        assert first != other

    def test_jitter_stays_inside_envelope(self):
        policy = RetryPolicy(attempts=2, base_delay=1.0, multiplier=1.0,
                             max_delay=1.0, jitter=0.3)
        rng = np.random.default_rng(0)
        draws = [policy.delay(0, rng) for _ in range(500)]
        assert min(draws) >= 0.7
        assert max(draws) <= 1.3
        assert max(draws) - min(draws) > 0.1  # actually jittered

    def test_no_rng_uses_the_midpoint(self):
        policy = RetryPolicy(attempts=2, base_delay=0.4, jitter=0.5)
        assert policy.delay(0) == pytest.approx(0.4)

    def test_zero_jitter_ignores_rng(self):
        policy = RetryPolicy(attempts=2, base_delay=0.4, jitter=0.0)
        rng = np.random.default_rng(3)
        assert policy.delay(0, rng) == pytest.approx(0.4)
        # The rng was not consumed: the next draw is the seed's first.
        assert rng.random() == np.random.default_rng(3).random()


class TestDefaults:
    def test_engine_default_is_the_historical_ladder(self):
        assert ENGINE_DEFAULT.attempts == 2
        assert ENGINE_DEFAULT.base_delay == 0.0

    def test_service_default_backs_off_fast(self):
        assert SERVICE_DEFAULT.attempts == 3
        assert 0 < SERVICE_DEFAULT.base_delay <= 0.1
        assert SERVICE_DEFAULT.max_delay <= 1.0
