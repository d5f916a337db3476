"""Configurable retry scheduling shared by the engine and the service.

The sweep engine's original fault ladder was hard-coded: one retry on a
fresh pool, then a serial fallback.  :class:`RetryPolicy` generalizes
the *scheduling* half of that ladder — how many attempts and how long
to wait between them — without touching the *mechanism* (pool restart,
serial fallback), which stays with the caller.

Backoff is jittered-exponential: retry ``i`` (0-based) waits
``min(max_delay, base_delay * multiplier**i)`` scaled by a uniform
jitter factor in ``[1 - jitter, 1 + jitter]``.  Jitter draws come from
a caller-supplied :class:`numpy.random.Generator`, so a seeded rng
makes the whole schedule deterministic — the property
``tests/test_runtime_retry.py`` pins down.  With no rng the midpoint
(no jitter) is used, which keeps the engine's default path
reproducible without threading randomness through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["RetryPolicy", "ENGINE_DEFAULT", "SERVICE_DEFAULT"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try, and how long to wait between tries.

    Attributes:
        attempts: total attempts including the first (``attempts=1``
            means "never retry"; the engine's historical behavior is
            ``attempts=2`` — one retry).
        base_delay: seconds before the first retry (0 retries
            immediately, the engine default).
        multiplier: exponential growth factor per retry.
        max_delay: ceiling on the un-jittered delay.
        jitter: fraction of the delay randomized symmetrically —
            ``0.5`` draws uniformly from ``[0.5 * d, 1.5 * d]``.
            Ignored (midpoint used) when no rng is supplied.
    """

    attempts: int = 2
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")

    # ------------------------------------------------------------------
    def delay(self, retry_index: int,
              rng: np.random.Generator | None = None) -> float:
        """The (jittered) sleep before 0-based retry ``retry_index``."""
        if retry_index < 0:
            raise ValueError("retry_index must be >= 0")
        base = min(self.max_delay,
                   self.base_delay * self.multiplier ** retry_index)
        if base <= 0:
            return 0.0
        if rng is None or self.jitter == 0:
            return base
        # Uniform in [1 - jitter, 1 + jitter]; one draw per retry, so a
        # seeded rng reproduces the whole schedule draw-for-draw.
        factor = 1.0 - self.jitter + 2.0 * self.jitter * rng.random()
        return base * factor

    def delays(self, rng: np.random.Generator | None = None,
               ) -> Iterator[float]:
        """The sleeps before each of the ``attempts - 1`` retries."""
        for index in range(self.attempts - 1):
            yield self.delay(index, rng)


#: The engine's historical ladder: one immediate retry, then the
#: caller's serial fallback.
ENGINE_DEFAULT = RetryPolicy(attempts=2, base_delay=0.0)

#: The service's default: two retries with fast jittered backoff, so a
#: transient worker fault recovers inside a typical request deadline.
SERVICE_DEFAULT = RetryPolicy(attempts=3, base_delay=0.05,
                              multiplier=2.0, max_delay=1.0, jitter=0.5)
