"""Parallel sweep engine, stage-1 feature cache and stage timings.

The experiment layer's per-pair sweep is the hot loop of the whole
reproduction; this package makes it a schedulable, measurable unit:

* :mod:`repro.runtime.engine` — :func:`run_tasks_parallel`, the one
  driver that shards a task map (the sweep's pairs, the multi study's
  scenes) over a process pool with chunked scheduling and deterministic
  result ordering; failed chunks are retried on a fresh pool, then run
  serially, and a pool that never starts falls back to in-process
  execution;
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
* :mod:`repro.runtime.cache` — LRU cache for stage-1
  :class:`~repro.core.bv_matching.BVFeatures` under one content key
  (:func:`scan_key`), so sweeps, fleet frames and the service skip
  re-extracting a scan they have seen;
* :mod:`repro.runtime.timings` — per-stage time accounting:
  :func:`stage` records into the ambient metrics registry, and
  :class:`SweepTimings` reports it under the CLI's ``--timings`` flag.
"""

from repro.runtime.cache import (
    FeatureCache,
    extraction_fingerprint,
    get_default_cache,
    scan_key,
    set_default_cache,
)
from repro.runtime.engine import (
    PoolUnavailableError,
    chunk_indices,
    resolve_workers,
    run_tasks_parallel,
    shutdown_pool,
)
from repro.runtime.fanout import fan_out
from repro.runtime.faults import InjectedFault, WorkerFault
from repro.runtime.pool import WorkerPool
from repro.runtime.retry import ENGINE_DEFAULT, SERVICE_DEFAULT, RetryPolicy
from repro.runtime.timings import (
    STAGES,
    SweepTimings,
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
    "chunk_indices",
    "collect_timings",
    "extraction_fingerprint",
    "fan_out",
    "get_default_cache",
    "resolve_workers",
    "run_tasks_parallel",
    "scan_key",
    "set_default_cache",
    "shutdown_pool",
    "stage",
]
