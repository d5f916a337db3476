"""Queue-depth-driven micro-batch sizing for the pose service.

The dispatcher's fixed ``batch_size`` cap and ``batch_window`` are a
single operating point: small batches waste pool round-trips under
load, large windows add latency when the service is idle.
:class:`AdaptiveBatchController` walks a bounded ladder of batch sizes
(doubling from ``min_batch`` to ``max_batch``) driven by the
``service/queue_depth`` gauge the supervisor already maintains, with the
same consecutive-observation hysteresis discipline as
:class:`~repro.comms.policy.AdaptiveTierPolicy`: one deep queue sample
does not grow the batch, one idle sample does not shrink it.

Determinism: the controller consumes **no randomness** and reads time
only through the injected ``clock`` (tests pass a fake; production uses
``time.monotonic``), so a fixed sequence of ``observe`` calls under a
fixed clock always walks the same ladder.  It is opt-in
(``ServiceConfig.adaptive_batch``) precisely because the chaos-soak
contract counts batches against a *fixed* batch size.

Thresholds are relative to the current batch size: a queue deeper than
``high_factor x batch_size`` means the current batch cannot drain the
backlog in one dispatch (step up); a queue below
``low_factor x batch_size`` means batches are no longer filling (step
down, trading throughput back for latency).  The linger window scales
with the batch size — a bigger batch is worth waiting longer to fill.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.obs.metrics import counter

__all__ = ["AdaptiveBatchController", "BatchControllerConfig"]


@dataclass(frozen=True)
class BatchControllerConfig:
    """Hysteresis and bounds for :class:`AdaptiveBatchController`.

    Attributes:
        min_batch / max_batch: inclusive bounds of the doubling ladder
            (``max_batch`` is clamped onto the ladder's last rung).
        base_window: linger window (seconds) at ``min_batch``; the
            window scales linearly with the batch size.
        high_factor: queue depth at or above ``high_factor x batch``
            counts toward stepping up.
        low_factor: queue depth at or below ``low_factor x batch``
            counts toward stepping down.
        step_up_after / step_down_after: consecutive qualifying
            observations required before a step (stepping down is
            slower than stepping up, mirroring the tier policy: losing
            throughput under load hurts more than holding a large
            batch briefly too long).
        cooldown: minimum seconds between steps, measured on the
            injected clock.
    """

    min_batch: int = 1
    max_batch: int = 16
    base_window: float = 0.002
    high_factor: float = 2.0
    low_factor: float = 0.5
    step_up_after: int = 2
    step_down_after: int = 4
    cooldown: float = 0.05

    def __post_init__(self) -> None:
        if self.min_batch < 1:
            raise ValueError("min_batch must be >= 1")
        if self.max_batch < self.min_batch:
            raise ValueError("max_batch must be >= min_batch")
        if self.base_window < 0:
            raise ValueError("base_window must be >= 0")
        if not self.high_factor > self.low_factor >= 0:
            raise ValueError("need high_factor > low_factor >= 0")
        if self.step_up_after < 1 or self.step_down_after < 1:
            raise ValueError("step thresholds must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")


class AdaptiveBatchController:
    """Bounded, hysteretic batch-size ladder over queue-depth samples."""

    def __init__(self, config: BatchControllerConfig | None = None, *,
                 initial: int | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or BatchControllerConfig()
        ladder = [self.config.min_batch]
        while ladder[-1] * 2 <= self.config.max_batch:
            ladder.append(ladder[-1] * 2)
        self._ladder = tuple(ladder)
        self._clock = clock
        start = self.config.min_batch if initial is None else initial
        # The closest rung at or below the requested starting size.
        self._level = max(
            (i for i, size in enumerate(self._ladder) if size <= start),
            default=0)
        self._high_streak = 0
        self._low_streak = 0
        self._last_step = -float("inf")

    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return self._ladder[self._level]

    @property
    def batch_window(self) -> float:
        """Linger window for the current rung (scales with the batch)."""
        return self.config.base_window * (self.batch_size
                                          / self._ladder[0])

    # ------------------------------------------------------------------
    def observe(self, queue_depth: int) -> bool:
        """Feed one queue-depth sample; returns whether a step happened.

        Counters ``service/batch_controller/step_up`` / ``step_down``
        record into the ambient registry (no-op when none installed).
        """
        size = self.batch_size
        if queue_depth >= self.config.high_factor * size:
            self._high_streak += 1
            self._low_streak = 0
        elif queue_depth <= self.config.low_factor * size:
            self._low_streak += 1
            self._high_streak = 0
        else:
            self._high_streak = 0
            self._low_streak = 0
            return False
        now = self._clock()
        if now - self._last_step < self.config.cooldown:
            return False
        if (self._high_streak >= self.config.step_up_after
                and self._level + 1 < len(self._ladder)):
            self._level += 1
            counter("service/batch_controller/step_up").inc()
        elif (self._low_streak >= self.config.step_down_after
                and self._level > 0):
            self._level -= 1
            counter("service/batch_controller/step_down").inc()
        else:
            return False
        self._high_streak = 0
        self._low_streak = 0
        self._last_step = now
        return True
