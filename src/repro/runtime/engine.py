"""Process-pool execution of the pose-recovery sweep.

The sweep is embarrassingly parallel: every pair regenerates
deterministically from ``(dataset config, index)`` and evaluates
independently of every other pair.  The engine shards the index range
into contiguous chunks, runs them on a :class:`ProcessPoolExecutor`, and
reassembles results in index order — so a parallel sweep returns
*exactly* the outcomes a serial sweep returns, regardless of which
worker finished first.

Design notes:

* **Chunking** amortizes task overhead (a chunk re-uses the worker's
  dataset/aligner/detector state) while still giving the pool ~4 chunks
  per worker to balance uneven pair costs.
* **Worker state** is keyed by the task's configuration fingerprints and
  rebuilt only when it changes, so consecutive sweeps over the same
  dataset (multi-variant studies) pay construction once per process.
* **The pool is kept alive** between sweeps: worker processes retain
  their per-process :mod:`repro.runtime.cache` feature caches, which is
  what lets an ablation study's second variant skip BV re-extraction.
* **Fault tolerance** is layered by blast radius.  A pair whose
  evaluation *raises* becomes a ``PairErrorOutcome`` record inside the
  worker — one degraded data point, the chunk continues.  A chunk whose
  worker *dies* (``BrokenProcessPool``), *hangs* (``chunk_timeout``) or
  otherwise fails wholesale is resubmitted once to a freshly restarted
  pool — outstanding futures are cancelled and the broken pool is torn
  down without waiting first — and, if it fails again, runs serially
  in-process; a chunk that even the serial path cannot finish yields
  one error record per pair.  No single pathological pair, worker or
  chunk can take down a sweep.
* **Telemetry** rides the chunk protocol.  Each worker records stage
  seconds, pipeline counters and (when the parent traced the sweep)
  span events into a chunk-local registry and returns a picklable
  snapshot with the outcomes; the parent folds snapshots in *keyed by
  chunk* (:meth:`~repro.runtime.timings.SweepTimings.merge_chunk`), so
  the retry ladder can deliver a chunk's telemetry more than once
  without any stage being double-counted.  Retries, timeouts and serial
  fallbacks are themselves counted (``engine/*`` counters).
* **Fallback**: anything that prevents pool execution entirely (no
  process support, pool creation refused) still raises
  :class:`PoolUnavailableError`; ``run_pose_recovery_sweep`` catches it
  and falls back to in-process serial execution.
* **Shared mechanics**: pool lifecycle (lazy start, restart, idempotent
  shutdown) lives in :class:`repro.runtime.pool.WorkerPool` and retry
  *scheduling* in :class:`repro.runtime.retry.RetryPolicy` — both
  shared with the always-on :mod:`repro.service`.  The engine's default
  policy (:data:`repro.runtime.retry.ENGINE_DEFAULT`) reproduces the
  historical ladder exactly: one immediate retry, then serial.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.baselines.vips import VipsConfig
from repro.core.config import BBAlignConfig
from repro.detection.simulated import COBEVT_PROFILE, DetectorProfile
from repro.obs.metrics import use_registry
from repro.obs.spans import active_collector, collect_spans, span
from repro.runtime.cache import (
    dataset_fingerprint,
    extraction_fingerprint,
    get_default_cache,
)
from repro.runtime.faults import WorkerFault
from repro.runtime.pool import (
    PoolUnavailableError,
    WorkerPool,
    resolve_workers,
)
from repro.runtime.retry import ENGINE_DEFAULT, RetryPolicy
from repro.runtime.timings import SweepTimings, stage
from repro.simulation.dataset import DatasetConfig, V2VDatasetSim

__all__ = ["PoolUnavailableError", "resolve_workers", "chunk_indices",
           "run_sweep_parallel", "run_tasks_parallel", "TaskError",
           "shutdown_pool"]


def chunk_indices(num_items: int, workers: int,
                  chunk_size: int | None = None) -> list[tuple[int, ...]]:
    """Split ``range(num_items)`` into contiguous scheduling chunks.

    The default size targets ~4 chunks per worker: large enough that
    per-task pool overhead is amortized, small enough that one slow
    chunk cannot serialize the tail of the sweep.
    """
    if num_items <= 0:
        return []
    if chunk_size is None:
        chunk_size = max(1, math.ceil(num_items / (max(workers, 1) * 4)))
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [tuple(range(start, min(start + chunk_size, num_items)))
            for start in range(0, num_items, chunk_size)]


@dataclass(frozen=True)
class _ChunkTask:
    """Everything a worker needs to evaluate one chunk of pair indices.

    Only configuration travels to the worker — frame pairs regenerate
    there from ``(dataset_config, index)``, so no point clouds cross the
    process boundary.  ``trace_parent`` carries the parent-side sweep
    span id so worker spans nest under it; ``attempt`` numbers the rung
    of the retry ladder delivering the chunk (0 = first pool attempt).
    """

    indices: tuple[int, ...]
    dataset_config: DatasetConfig
    config: BBAlignConfig | None
    detector_profile: DetectorProfile
    include_vips: bool
    vips_config: VipsConfig | None
    seed: int
    fault: WorkerFault | None = None
    trace_parent: str | None = None
    attempt: int = 0

    def state_key(self) -> tuple:
        return (dataset_fingerprint(self.dataset_config),
                repr(self.config), repr(self.detector_profile))


# ----------------------------------------------------------------------
# Worker side.  Module globals are per-process: each pool worker keeps
# its own constructed state and reuses it across the chunks (and sweeps)
# it is handed, rebuilding only when the configuration changes.
# ----------------------------------------------------------------------
_WORKER_STATE_KEY: tuple | None = None
_WORKER_STATE: tuple | None = None


def _worker_state(task: _ChunkTask) -> tuple:
    global _WORKER_STATE_KEY, _WORKER_STATE
    key = task.state_key()
    if _WORKER_STATE is None or key != _WORKER_STATE_KEY:
        from repro.core.pipeline import BBAlign
        from repro.detection.simulated import SimulatedDetector
        _WORKER_STATE = (V2VDatasetSim(task.dataset_config),
                         BBAlign(task.config),
                         SimulatedDetector(task.detector_profile))
        _WORKER_STATE_KEY = key
    return _WORKER_STATE


def _run_chunk(task: _ChunkTask) -> tuple[int, list, dict]:
    """Evaluate one chunk; returns (first index, outcomes, telemetry).

    A pair whose evaluation raises is captured as a
    :class:`~repro.experiments.common.PairErrorOutcome` — one degraded
    data point — and the chunk moves on.  Only process-level failures
    (worker death, hang) escape to the parent's chunk-retry ladder.

    ``telemetry`` is picklable: the chunk-local registry snapshot (stage
    seconds, pipeline counters, pair count) plus the chunk's span events
    when the parent traced the sweep.  Everything the chunk records goes
    through the chunk-local registry installed here, so a chunk is an
    atomic, dedupable telemetry unit.
    """
    # Imported here (not at module top) so the runtime package carries no
    # import-time dependency on the experiments package.
    from repro.experiments.common import run_sweep_pair

    dataset, aligner, detector = _worker_state(task)
    cache = get_default_cache()
    ds_fp = dataset_fingerprint(task.dataset_config)
    ext_fp = extraction_fingerprint(aligner.config)
    timings = SweepTimings()
    # Span collection is paid only when the parent traced the sweep; the
    # chunk-local registry is installed either way so pipeline counters
    # always travel home with the chunk.
    spans_cm: contextlib.AbstractContextManager
    spans_cm = (collect_spans(task.trace_parent)
                if task.trace_parent is not None
                else contextlib.nullcontext(None))
    with use_registry(timings.registry), spans_cm as collector:
        with span("engine/chunk", first_index=task.indices[0],
                  pairs=len(task.indices), attempt=task.attempt):
            outcomes = [run_sweep_pair(
                index, dataset.__getitem__, aligner, detector,
                seed=task.seed, include_vips=task.include_vips,
                vips_config=task.vips_config, cache=cache,
                dataset_fp=ds_fp, extraction_fp=ext_fp, timings=timings,
                fault=task.fault) for index in task.indices]
    timings.pairs = len(outcomes)
    telemetry = {"snapshot": timings.to_snapshot(),
                 "spans": collector.events if collector is not None else []}
    return task.indices[0], outcomes, telemetry


# ----------------------------------------------------------------------
# Parent side.  The engine keeps one module-global WorkerPool so worker
# processes retain their per-process feature caches across sweeps; the
# lifecycle mechanics live in repro.runtime.pool, shared with the
# service.
# ----------------------------------------------------------------------
_POOL: WorkerPool | None = None


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL
    if _POOL is None or _POOL.workers != workers:
        shutdown_pool()
        _POOL = WorkerPool(workers)
    return _POOL.executor()


def shutdown_pool(wait: bool = True, cancel_futures: bool = False) -> None:
    """Tear down the shared pool (tests; failure recovery; exit).

    Idempotent: a second invocation (or one with no pool running) is a
    no-op.

    Args:
        wait: block until workers exit.  The failure-recovery path and
            the interpreter-exit hook pass ``False`` so a dead or hung
            worker cannot wedge the caller.
        cancel_futures: cancel queued-but-unstarted chunks, so a serial
            fallback never races chunks still draining out of a
            half-broken pool.
    """
    global _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=wait, cancel_futures=cancel_futures)
        _POOL = None


def _shutdown_pool_at_exit() -> None:
    # Non-blocking on purpose: a hung worker must not wedge interpreter
    # exit; orphaned processes drain on their own once the call queue
    # closes.
    shutdown_pool(wait=False, cancel_futures=True)


atexit.register(_shutdown_pool_at_exit)


def _collect_chunks(pool: ProcessPoolExecutor, tasks: list,
                    per_chunk: dict[int, tuple], merged: SweepTimings,
                    chunk_timeout: float | None,
                    worker: Callable) -> list[tuple]:
    """Submit ``tasks`` and gather results; returns the failed ones.

    Successful chunks land in ``per_chunk`` keyed by first pair index
    and their telemetry folds into ``merged`` (chunk-keyed, so a chunk
    retried by the caller's ladder replaces rather than adds).  Any
    per-chunk failure — worker death, timeout, serialization error, an
    exception escaping the worker — is captured with its task for the
    caller's retry ladder, never raised.  ``worker`` is the function the
    pool runs per chunk; it must return ``(first_index, outcomes,
    telemetry)``.
    """
    failed: list[tuple] = []
    futures: list[tuple] = []
    for task in tasks:
        try:
            futures.append((pool.submit(worker, task), task))
        except Exception as error:  # pool died between submits
            failed.append((task, error))
    for future, task in futures:
        try:
            first_index, outcomes, telemetry = future.result(
                timeout=chunk_timeout)
        except TimeoutError as error:
            merged.registry.counter("engine/chunk_timeouts").inc()
            failed.append((task, error))
        except Exception as error:
            merged.registry.counter("engine/chunk_failures").inc()
            failed.append((task, error))
        else:
            per_chunk[first_index] = (outcomes, telemetry)
            merged.merge_chunk(first_index, telemetry["snapshot"])
    return failed


def _run_chunk_serially(task: _ChunkTask) -> tuple[int, list, dict]:
    """Last rung: run a chunk in-process; even that failing yields
    one error record per pair instead of an exception."""
    try:
        return _run_chunk(task)
    except Exception as error:
        from repro.experiments.common import PairErrorOutcome
        outcomes = [PairErrorOutcome.from_exception(index, error)
                    for index in task.indices]
        return task.indices[0], outcomes, {"snapshot": {}, "spans": []}


def _retry_failed_chunks(failed: list[tuple], *, workers: int,
                         per_chunk: dict[int, tuple], merged: SweepTimings,
                         chunk_timeout: float | None,
                         retry: RetryPolicy | None,
                         retry_rng: np.random.Generator,
                         worker: Callable, serial: Callable) -> None:
    """The chunk retry ladder shared by the sweep and the generic map.

    Each rung of ``retry`` (default :data:`ENGINE_DEFAULT`) resubmits
    the still-failed chunks to a fresh pool; jitter draws from
    ``retry_rng``.  Chunks that fail every rung run in-process through
    ``serial``, which never raises.  Results land in ``per_chunk`` and
    telemetry folds into ``merged``, chunk-keyed as in
    :func:`_collect_chunks`.
    """
    policy = retry if retry is not None else ENGINE_DEFAULT
    attempt = 0
    for delay in policy.delays(retry_rng):
        if not failed:
            break
        # Retry the failures on a fresh pool.  Cancel anything still
        # queued and tear the old pool down without waiting, so the
        # retry (and a possible serial fallback) never races chunks
        # still running in half-broken workers.
        attempt += 1
        shutdown_pool(wait=False, cancel_futures=True)
        merged.registry.counter("engine/chunk_retries").inc(len(failed))
        if delay > 0:
            time.sleep(delay)
        retry_tasks = [replace(task, attempt=attempt)
                       for task, _ in failed]
        try:
            pool = _get_pool(workers)
            failed = _collect_chunks(pool, retry_tasks, per_chunk,
                                     merged, chunk_timeout, worker)
        except PoolUnavailableError:
            failed = [(replace(task, attempt=attempt), error)
                      for task, error in failed]
    if failed:
        shutdown_pool(wait=False, cancel_futures=True)
    for task, _error in failed:
        merged.registry.counter("engine/serial_fallbacks").inc()
        first_index, outcomes, telemetry = serial(
            replace(task, attempt=attempt + 1))
        per_chunk[first_index] = (outcomes, telemetry)
        merged.merge_chunk(first_index, telemetry["snapshot"])


def run_sweep_parallel(
        dataset_config: DatasetConfig,
        *,
        num_pairs: int,
        config: BBAlignConfig | None = None,
        detector_profile: DetectorProfile = COBEVT_PROFILE,
        include_vips: bool = True,
        vips_config: VipsConfig | None = None,
        seed: int = 7,
        workers: int | None = None,
        chunk_size: int | None = None,
        timings: SweepTimings | None = None,
        chunk_timeout: float | None = None,
        fault: WorkerFault | None = None,
        retry: RetryPolicy | None = None):
    """Run the pose-recovery sweep on a process pool.

    Returns the same outcome list (same ordering, same values) the
    serial sweep produces: one ``PairOutcome`` per pair — or a
    ``PairErrorOutcome`` for a pair whose evaluation failed even after
    the retry ladder.  Per-chunk stage timings are merged into
    ``timings`` when given — keyed by chunk, so a chunk that visits
    several rungs of the retry ladder contributes exactly once; merged
    stage seconds are CPU-seconds summed across workers, while
    ``wall_seconds`` reflects the pool's elapsed time as seen from the
    parent.  When a trace collector is active, worker span events are
    re-emitted into it (chunk-deduplicated, in chunk order) under a
    parent-side ``engine/sweep`` span.

    Chunk failures degrade, they don't abort: a failed chunk is
    resubmitted to a restarted pool (outstanding futures cancelled
    first) per ``retry`` — the default policy
    (:data:`~repro.runtime.retry.ENGINE_DEFAULT`) retries once with no
    backoff, reproducing the historical ladder — then run serially
    in-process.  Retry jitter draws from a generator seeded by
    ``[seed, 0x52]`` so backoff schedules are reproducible.
    ``chunk_timeout`` bounds each chunk's wall time on the pool;
    ``fault`` injects a :class:`~repro.runtime.faults.WorkerFault` for
    robustness testing.

    Raises:
        PoolUnavailableError: the pool could not start at all; the
            caller should fall back to serial execution.
    """
    workers = resolve_workers(workers)
    chunks = chunk_indices(num_pairs, workers, chunk_size)
    if not chunks:
        return []
    collector = active_collector()
    with span("engine/sweep", pairs=num_pairs, workers=workers,
              chunks=len(chunks)) as sweep_span:
        trace_parent = sweep_span.span_id if sweep_span is not None else None
        tasks = [_ChunkTask(indices, dataset_config, config,
                            detector_profile, include_vips, vips_config,
                            seed, fault, trace_parent)
                 for indices in chunks]
        start = time.perf_counter()
        pool = _get_pool(workers)
        per_chunk: dict[int, tuple] = {}
        merged = SweepTimings()
        merged.registry.counter("engine/chunks").inc(len(chunks))
        failed = _collect_chunks(pool, tasks, per_chunk, merged,
                                 chunk_timeout, _run_chunk)
        _retry_failed_chunks(
            failed, workers=workers, per_chunk=per_chunk, merged=merged,
            chunk_timeout=chunk_timeout, retry=retry,
            retry_rng=np.random.default_rng([seed, 0x52]),
            worker=_run_chunk, serial=_run_chunk_serially)

        ordered = []
        for first_index in sorted(per_chunk):
            outcomes, telemetry = per_chunk[first_index]
            ordered.extend(outcomes)
            if collector is not None:
                for event in telemetry["spans"]:
                    collector.emit(event)
    if timings is not None:
        merged.workers = workers
        merged.wall_seconds = time.perf_counter() - start
        timings.merge(merged)
    return ordered


# ----------------------------------------------------------------------
# Generic fault-tolerant map.  Same pool, same chunking, same retry
# ladder as the sweep — but over arbitrary picklable payloads, so other
# subsystems (the multi-vehicle study shards *scenes* this way) inherit
# the engine's fault tolerance without re-implementing it.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskError:
    """Sentinel result for an item whose evaluation failed.

    A generic-map item that raises — even after the chunk retry ladder —
    occupies its slot in the result list with one of these instead of
    aborting the map, mirroring the sweep's ``PairErrorOutcome``.
    """

    index: int
    error: str
    error_type: str

    @classmethod
    def from_exception(cls, index: int, error: Exception) -> TaskError:
        return cls(index=index, error=str(error),
                   error_type=type(error).__name__)


@dataclass(frozen=True)
class _MapChunkTask:
    """One chunk of a generic map: the callable plus its payload slice.

    ``fn`` must be a module-level function (picklable); each payload
    item crosses the process boundary, so callers keep payloads small
    (configuration, not data) and regenerate heavy state in ``fn``.
    """

    indices: tuple[int, ...]
    fn: object
    items: tuple
    attempt: int = 0


def _apply_map_item(fn, index: int, item):
    try:
        return fn(item)
    except Exception as error:
        return TaskError.from_exception(index, error)


def _run_map_chunk(task: _MapChunkTask) -> tuple[int, list, dict]:
    """Evaluate one generic chunk; returns (first index, results,
    telemetry).  Item-level exceptions become :class:`TaskError`
    records; only process-level failures escape to the retry ladder."""
    timings = SweepTimings()
    results = []
    with use_registry(timings.registry):
        for index, item in zip(task.indices, task.items):
            result = _apply_map_item(task.fn, index, item)
            if isinstance(result, TaskError):
                timings.registry.counter("engine/task_errors").inc()
            results.append(result)
    return task.indices[0], results, {"snapshot": timings.to_snapshot(),
                                      "spans": []}


def _run_map_chunk_serially(task: _MapChunkTask) -> tuple[int, list, dict]:
    try:
        return _run_map_chunk(task)
    except Exception as error:
        results = [TaskError.from_exception(index, error)
                   for index in task.indices]
        return task.indices[0], results, {"snapshot": {}, "spans": []}


def run_tasks_parallel(fn, items, *, workers: int | None = None,
                       chunk_size: int | None = None,
                       chunk_timeout: float | None = None,
                       retry: RetryPolicy | None = None,
                       seed: int = 7,
                       timings: SweepTimings | None = None) -> list:
    """Fault-tolerant parallel map of ``fn`` over ``items``.

    Returns one result per item, in item order, exactly as a serial
    ``[fn(item) for item in items]`` would — except an item whose
    evaluation raises yields a :class:`TaskError` in its slot rather
    than an exception.  Chunks ride the sweep's retry ladder (failed
    chunk → fresh pool → in-process serial), and unlike
    :func:`run_sweep_parallel` this never raises
    :class:`PoolUnavailableError`: if the pool cannot start at all the
    whole map degrades to in-process serial execution.  ``workers=1``
    short-circuits to serial without touching the pool.

    ``fn`` must be a module-level function and every item picklable.
    """
    items = list(items)
    if not items:
        return []
    workers = resolve_workers(workers)
    if workers <= 1:
        return [_apply_map_item(fn, index, item)
                for index, item in enumerate(items)]
    chunks = chunk_indices(len(items), workers, chunk_size)
    tasks = [_MapChunkTask(indices, fn,
                           tuple(items[i] for i in indices))
             for indices in chunks]
    start = time.perf_counter()
    per_chunk: dict[int, tuple] = {}
    merged = SweepTimings()
    merged.registry.counter("engine/chunks").inc(len(chunks))
    try:
        pool = _get_pool(workers)
        failed = _collect_chunks(pool, tasks, per_chunk, merged,
                                 chunk_timeout, _run_map_chunk)
    except PoolUnavailableError:
        failed = [(task, PoolUnavailableError("pool unavailable"))
                  for task in tasks]
    _retry_failed_chunks(
        failed, workers=workers, per_chunk=per_chunk, merged=merged,
        chunk_timeout=chunk_timeout, retry=retry,
        retry_rng=np.random.default_rng([seed, 0x53]),
        worker=_run_map_chunk, serial=_run_map_chunk_serially)
    ordered: list = []
    for first_index in sorted(per_chunk):
        ordered.extend(per_chunk[first_index][0])
    if timings is not None:
        merged.workers = workers
        merged.wall_seconds = time.perf_counter() - start
        timings.merge(merged)
    return ordered
