"""Service configuration and its typed error surface.

The always-on pose service promises: *an admitted request always gets a
response*.  Everything that can prevent admission is therefore a typed
exception raised at the door — the caller knows synchronously whether
the request is in — and everything after admission resolves through the
request's future, never as an unhandled exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.vips import VipsConfig
from repro.core.config import BBAlignConfig
from repro.detection.simulated import COBEVT_PROFILE, DetectorProfile
from repro.runtime.faults import WorkerFault
from repro.runtime.retry import SERVICE_DEFAULT, RetryPolicy
from repro.service.batching import BatchControllerConfig
from repro.simulation.dataset import DatasetConfig

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
    (e.g. a scan-pair request whose ego message carries no raw scan)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`~repro.service.core.PoseService` needs.

    The pipeline half mirrors the sweep engine's knobs (so a service
    answer for dataset pair ``i`` is *byte-identical* to the sweep's
    outcome for pair ``i``); the robustness half sizes the admission
    queue, micro-batching, deadlines and the supervision loop.

    Attributes:
        dataset_config: the deterministic dataset indexed requests
            resolve against.
        config: BB-Align configuration (``None`` = defaults).
        detector_profile: simulated detector feeding stage 2.
        include_vips: also run the graph-matching baseline per pair
            (off by default — a service answers poses, not figures).
        vips_config: baseline parameters.
        seed: sweep base seed; requests for pair ``i`` draw the same
            spawned streams the sweep draws.
        workers: pool size (``None``/``0`` = host CPU count).
        queue_limit: bounded admission queue; the ``queue_limit + 1``-th
            waiting request is refused with :class:`ServiceOverloaded`.
        batch_size: max requests per worker dispatch (micro-batching
            amortizes the pool round-trip over warm worker state); a
            queue shorter than the idle workers can take is spread
            over them in smaller batches instead.
        batch_window: seconds the dispatcher lingers for a batch to
            fill once work is queued; 0 dispatches immediately.
        batch_timeout: per-attempt wall bound on one batch; exceeding
            it is treated as a hung worker (restart + retry).
        default_deadline: seconds granted to requests that declare no
            deadline of their own; ``None`` = no implicit deadline.
        heartbeat_interval: supervisor probe period (liveness check +
            gauge refresh).
        retry: backoff schedule for batches that crash or hang
            (:data:`~repro.runtime.retry.SERVICE_DEFAULT`: three
            attempts, jittered exponential backoff).
        fault: deterministic fault injection forwarded to workers on
            indexed requests (the chaos harness's lever; ``None`` in
            production).
        use_shm: place scan-pair payloads in shared-memory segments and
            hand workers descriptors instead of pickled arrays
            (:mod:`repro.runtime.shm`).  Falls back to the pickle path
            transparently when shared memory is unavailable; responses
            are byte-identical either way.
        worker_cache_mb: byte budget (MiB) of each worker's persistent
            content-keyed :class:`~repro.runtime.cache.FeatureCache`
            for scan-pair stage-1 features; ``0`` disables caching.
            Cache on/off is also response-byte-identical.
        adaptive_batch: drive ``batch_size``/``batch_window`` from the
            queue-depth gauge via
            :class:`~repro.service.batching.AdaptiveBatchController`
            instead of the fixed values (opt-in: the chaos-soak
            contract counts batches against a fixed size).
        batch_controller: bounds/hysteresis for the adaptive controller
            (``None`` = defaults derived from ``batch_size`` and
            ``batch_window``).
        account_payload_bytes: measure the serialized size of every
            dispatched batch task into ``service/task_bytes`` (costs an
            extra pickle per batch; the bench's bytes-per-request
            evidence, off in production).
    """

    dataset_config: DatasetConfig = field(
        default_factory=lambda: DatasetConfig(num_pairs=40, seed=2024))
    config: BBAlignConfig | None = None
    detector_profile: DetectorProfile = COBEVT_PROFILE
    include_vips: bool = False
    vips_config: VipsConfig | None = None
    seed: int = 7
    workers: int | None = 2
    queue_limit: int = 32
    batch_size: int = 4
    batch_window: float = 0.002
    batch_timeout: float = 30.0
    default_deadline: float | None = None
    heartbeat_interval: float = 0.25
    retry: RetryPolicy = SERVICE_DEFAULT
    fault: WorkerFault | None = None
    use_shm: bool = True
    worker_cache_mb: float = 64.0
    adaptive_batch: bool = False
    batch_controller: "BatchControllerConfig | None" = None
    account_payload_bytes: bool = False

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.batch_timeout <= 0:
            raise ValueError("batch_timeout must be > 0")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError("default_deadline must be > 0 when set")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.worker_cache_mb < 0:
            raise ValueError("worker_cache_mb must be >= 0")
