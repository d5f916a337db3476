"""Parallel sweep engine, stage-1 feature cache and stage timings.

The experiment layer's per-pair sweep is the hot loop of the whole
reproduction; this package makes it a schedulable, measurable unit:

* :mod:`repro.runtime.engine` — shards a sweep over a process pool with
  chunked scheduling and deterministic result ordering; failed chunks
  are retried on a fresh pool, then run serially, and a pool that never
  starts falls back to in-process execution;
* :mod:`repro.runtime.pool` — :class:`WorkerPool`, the supervisable
  process pool underneath both the engine and the always-on service:
  lazy start, liveness probes, generation-guarded restart, worker-side
  signal hygiene (inherited wakeup fds and handlers are detached so a
  pool worker's death can never echo a signal back into the parent's
  event loop);
* :mod:`repro.runtime.fanout` — :func:`fan_out`, the in-process
  counterpart: one call's independent items (a fleet frame's
  extractions and edges, a pair's two extractions) on threads, with
  results, exceptions and telemetry equal to the serial loop's;
* :mod:`repro.runtime.retry` — :class:`RetryPolicy`, the seeded
  jittered-exponential-backoff schedule shared by the engine's chunk
  ladder and the service's batch ladder;
* :mod:`repro.runtime.faults` — deterministic, picklable fault
  injection (:class:`WorkerFault`) for exercising those retry ladders;
* :mod:`repro.runtime.cache` — keyed LRU cache for stage-1
  :class:`~repro.core.bv_matching.BVFeatures`, so sweeps revisiting the
  same frame pairs skip re-extraction;
* :mod:`repro.runtime.timings` — per-stage wall-time accounting
  (:class:`SweepTimings`) surfaced by the CLI's ``--timings`` flag.
"""

from repro.runtime.cache import (
    FeatureCache,
    dataset_fingerprint,
    extraction_fingerprint,
    feature_key,
    get_default_cache,
    set_default_cache,
)
from repro.runtime.engine import (
    PoolUnavailableError,
    chunk_indices,
    resolve_workers,
    run_sweep_parallel,
    shutdown_pool,
)
from repro.runtime.fanout import fan_out
from repro.runtime.faults import InjectedFault, WorkerFault
from repro.runtime.pool import WorkerPool
from repro.runtime.retry import ENGINE_DEFAULT, SERVICE_DEFAULT, RetryPolicy
from repro.runtime.timings import (
    STAGES,
    SweepTimings,
    active_timings,
    collect_timings,
    stage,
)

__all__ = [
    "ENGINE_DEFAULT",
    "FeatureCache",
    "InjectedFault",
    "PoolUnavailableError",
    "RetryPolicy",
    "SERVICE_DEFAULT",
    "STAGES",
    "SweepTimings",
    "WorkerFault",
    "WorkerPool",
    "active_timings",
    "chunk_indices",
    "collect_timings",
    "dataset_fingerprint",
    "extraction_fingerprint",
    "fan_out",
    "feature_key",
    "get_default_cache",
    "resolve_workers",
    "run_sweep_parallel",
    "set_default_cache",
    "shutdown_pool",
    "stage",
]
