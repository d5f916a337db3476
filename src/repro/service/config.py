"""Service configuration and its typed error surface.

The always-on pose service promises: *an admitted request always gets a
response*.  Everything that can prevent admission is therefore a typed
exception raised at the door — the caller knows synchronously whether
the request is in — and everything after admission resolves through the
request's future, never as an unhandled exception.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import BBAlignConfig
from repro.runtime.faults import WorkerFault
from repro.runtime.retry import SERVICE_DEFAULT, RetryPolicy

__all__ = [
    "ServiceClosed",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnsupported",
]


class ServiceError(RuntimeError):
    """Base class for the service's typed rejections."""


class ServiceOverloaded(ServiceError):
    """Admission refused: the bounded queue is full.

    The backpressure signal — callers shed load or back off; the
    service never buffers unboundedly.
    """


class ServiceClosed(ServiceError):
    """Admission refused: the service is stopping or stopped."""


class ServiceUnsupported(ServiceError):
    """Admission refused: the request shape cannot be executed
    (a scan-pair request whose ego message carries no raw scan, or
    whose partner BV image or keypoints use another BV geometry)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`~repro.service.core.PoseService` needs.

    The pipeline half is the BB-Align configuration and the seed of
    every request's RANSAC stream; the robustness half sizes the
    admission queue, the in-flight bound, deadlines and the supervision
    loop.

    Attributes:
        config: BB-Align configuration (``None`` = defaults).
        seed: seeds each request's stream: request ``r`` recovers with
            ``[seed, r, 2]``, so an answer depends only on the request,
            never on which worker ran it or when.
        workers: pool size (``None``/``0`` = host CPU count).
        queue_limit: bounded admission queue; the ``queue_limit + 1``-th
            waiting request is refused with :class:`ServiceOverloaded`.
        batch_size: admitted requests in flight per worker: a request
            leaves the admission queue while fewer than ``workers ×
            batch_size`` are in flight, so a busy pool's backlog stays
            in the queue, where ``queue_limit`` sheds it (the name
            predates per-request dispatch).
        batch_timeout: per-attempt wall bound on one pool task (an
            extraction or a match); exceeding it is treated as a hung
            worker (restart + retry).
        default_deadline: seconds granted to requests that declare no
            deadline of their own; ``None`` = no implicit deadline.
        heartbeat_interval: supervisor probe period (liveness check +
            gauge refresh).
        retry: backoff schedule for pool tasks that crash or hang
            (:data:`~repro.runtime.retry.SERVICE_DEFAULT`: three
            attempts, jittered exponential backoff).
        fault: deterministic fault injection carried by every match
            task and keyed by request id (the chaos harness's lever;
            ``None`` in production).
        use_shm: place scan-pair payloads in shared-memory segments and
            hand workers descriptors instead of pickled arrays
            (:mod:`repro.runtime.shm`).  Falls back to the pickle path
            transparently when shared memory is unavailable; responses
            are byte-identical either way.
        worker_cache_mb: byte budget (MiB) of the service's one
            :class:`~repro.runtime.cache.FeatureCache` for scan-pair
            stage-1 features, keyed by
            :func:`~repro.runtime.cache.scan_key` and kept in the parent
            (the name predates the move from per-worker caches); ``0``
            disables caching, and with it the sharing of running
            extractions.  Cache on/off is also response-byte-identical.
        account_payload_bytes: measure the serialized size of every
            dispatched pool task into ``service/task_bytes`` (costs an
            extra pickle per task; the bench's bytes-per-request
            evidence, off in production).
    """

    config: BBAlignConfig | None = None
    seed: int = 7
    workers: int | None = 2
    queue_limit: int = 32
    batch_size: int = 4
    batch_timeout: float = 30.0
    default_deadline: float | None = None
    heartbeat_interval: float = 0.25
    retry: RetryPolicy = SERVICE_DEFAULT
    fault: WorkerFault | None = None
    use_shm: bool = True
    worker_cache_mb: float = 64.0
    account_payload_bytes: bool = False

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_timeout <= 0:
            raise ValueError("batch_timeout must be > 0")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError("default_deadline must be > 0 when set")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.worker_cache_mb < 0:
            raise ValueError("worker_cache_mb must be >= 0")
