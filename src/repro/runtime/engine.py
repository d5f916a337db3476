"""Process-pool execution of chunked task maps, the sweep among them.

The pose-recovery sweep, the multi-vehicle study and every other bulk
run are embarrassingly parallel: each item regenerates deterministically
from a small picklable payload (for the sweep, ``(sweep spec, pair
index)``) and evaluates independently of every other item.  The engine's
one driver, :func:`run_tasks_parallel`, shards the item list into
contiguous chunks, runs them on a :class:`ProcessPoolExecutor`, and
reassembles results in item order — so a parallel map returns *exactly*
what a serial map returns, regardless of which worker finished first.
The engine knows nothing about pairs: the sweep's per-pair function and
its per-process state live in the experiments layer, next to the
per-pair body.

Design notes:

* **One chunk protocol.**  A chunk is one frozen :class:`_ChunkTask`
  (indices, function, items, trace parent, attempt), run by one runner,
  :func:`_run_chunk`, on a pool worker or in-process.  ``workers=1``
  runs every chunk through the same runner in-process, so results and
  telemetry are the same at every worker count.  The service's indexed
  batches are chunk tasks over the sweep's own function too.
* **Chunking** amortizes task overhead (a chunk re-uses the worker's
  per-process state) while still giving the pool ~4 chunks per worker
  to balance uneven item costs.
* **The pool is kept alive** between maps: worker processes retain
  their per-process state and :mod:`repro.runtime.cache` feature
  caches, which is what lets an ablation study's second variant skip BV
  re-extraction.
* **Fault tolerance** is layered by blast radius.  An item whose
  function *raises* becomes a :class:`TaskError` record inside the
  chunk — one degraded data point, the chunk continues (the sweep's
  function captures its own errors as ``PairErrorOutcome`` records, so
  it never raises).  A chunk whose worker *dies*
  (``BrokenProcessPool``), *hangs* (``chunk_timeout``) or otherwise
  fails wholesale is resubmitted once to a freshly restarted pool —
  outstanding futures are cancelled and the broken pool is torn down
  without waiting first — and, if it fails again, runs serially
  in-process; a chunk that even the serial path cannot finish yields
  one error record per item.  A pool that cannot start at all
  (:class:`PoolUnavailableError`) sends every chunk straight to the
  in-process rung, with a ``RuntimeWarning``; a retry rung whose pool
  cannot start ends the climb there.  No single pathological item,
  worker or chunk can take down a map.
* **Telemetry** rides the chunk protocol.  Each chunk records into a
  chunk-local metrics registry, installed as the ambient one, so stage
  seconds (:func:`~repro.runtime.timings.stage`) and pipeline counters
  recorded deep inside the function land there, and, when the parent
  traced the map, into a chunk-local span collector; the chunk returns
  a picklable snapshot with its results.  The parent folds snapshots in
  *keyed by chunk*
  (:meth:`~repro.runtime.timings.SweepTimings.merge_chunk`), so the
  retry ladder can deliver a chunk's telemetry more than once without
  anything being double-counted, then into ``timings.registry`` or the
  ambient registry.  Worker span events are re-emitted, in chunk
  order, under the parent's ``engine/sweep`` span; in-process chunks
  record straight into the parent's collector.  Retries, timeouts and
  serial fallbacks are themselves counted (``engine/*`` counters).
* **Shared mechanics**: pool lifecycle (lazy start, restart, idempotent
  shutdown) lives in :class:`repro.runtime.pool.WorkerPool` and retry
  *scheduling* in :class:`repro.runtime.retry.RetryPolicy` — both
  shared with the always-on :mod:`repro.service`.  The engine's default
  policy (:data:`repro.runtime.retry.ENGINE_DEFAULT`) is one immediate
  retry, then serial.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    counter,
    use_registry,
)
from repro.obs.spans import active_collector, collect_spans, span
from repro.runtime.pool import (
    PoolUnavailableError,
    WorkerPool,
    resolve_workers,
)
from repro.runtime.retry import ENGINE_DEFAULT, RetryPolicy
from repro.runtime.timings import WALL_KEY, WORKERS_KEY, SweepTimings

__all__ = ["PoolUnavailableError", "resolve_workers", "chunk_indices",
           "run_tasks_parallel", "TaskError", "shutdown_pool"]


def chunk_indices(num_items: int, workers: int,
                  chunk_size: int | None = None) -> list[tuple[int, ...]]:
    """Split ``range(num_items)`` into contiguous scheduling chunks.

    The default size targets ~4 chunks per worker: large enough that
    per-task pool overhead is amortized, small enough that one slow
    chunk cannot serialize the tail of the map.
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
class TaskError:
    """Sentinel result for an item whose evaluation failed.

    An item that raises — even after the chunk retry ladder — occupies
    its slot in the result list with one of these instead of aborting
    the map.
    """

    index: int
    error: str
    error_type: str

    @classmethod
    def from_exception(cls, index: int, error: Exception) -> TaskError:
        return cls(index=index, error=str(error),
                   error_type=type(error).__name__)


@dataclass(frozen=True)
class _ChunkTask:
    """One chunk of a map: the function plus its slice of items.

    ``fn`` must be a module-level function (picklable); each item
    crosses the process boundary, so callers keep items small
    (configuration, not data) and regenerate heavy state in ``fn``.
    ``trace_parent`` carries the parent-side ``engine/sweep`` span id so
    worker spans nest under it; ``attempt`` numbers the rung of the
    retry ladder delivering the chunk (0 = first pool attempt).
    """

    indices: tuple[int, ...]
    fn: Callable
    items: tuple
    trace_parent: str | None = None
    attempt: int = 0


def _apply(fn: Callable, index: int, item):
    try:
        return fn(item)
    except Exception as error:
        counter("engine/task_errors").inc()
        return TaskError.from_exception(index, error)


def _run_chunk(task: _ChunkTask) -> tuple[int, list, dict]:
    """Evaluate one chunk; returns (first index, results, telemetry).

    An item whose function raises becomes a :class:`TaskError`; only
    process-level failures (worker death, hang) escape to the parent's
    retry ladder.  ``telemetry`` is picklable: the chunk-local registry
    snapshot plus the chunk's span events when ``trace_parent`` is set.
    Everything the chunk records goes through the chunk-local registry
    installed here, so a chunk is an atomic, dedupable telemetry unit.
    """
    # Span collection is paid only when the parent traced the map.
    spans_cm: contextlib.AbstractContextManager
    spans_cm = (collect_spans(task.trace_parent)
                if task.trace_parent is not None
                else contextlib.nullcontext(None))
    with use_registry(MetricsRegistry()) as registry, \
            spans_cm as collector:
        with span("engine/chunk", first_index=task.indices[0],
                  items=len(task.indices), attempt=task.attempt):
            results = [_apply(task.fn, index, item)
                       for index, item in zip(task.indices, task.items)]
    telemetry = {"snapshot": registry.snapshot(),
                 "spans": collector.events if collector is not None else []}
    return task.indices[0], results, telemetry


def _run_chunk_serially(task: _ChunkTask) -> tuple[int, list, dict]:
    """Run a chunk in-process (``workers=1`` and the ladder's last rung).

    In-process spans record straight into the caller's collector, under
    the open ``engine/sweep`` span, so the chunk collects none of its
    own.  Even the runner failing yields one error record per item
    instead of an exception.
    """
    try:
        return _run_chunk(replace(task, trace_parent=None))
    except Exception as error:
        results = [TaskError.from_exception(index, error)
                   for index in task.indices]
        return task.indices[0], results, {"snapshot": {}, "spans": []}


# ----------------------------------------------------------------------
# Parent side.  The engine keeps one module-global WorkerPool so worker
# processes retain their per-process state across maps; the lifecycle
# mechanics live in repro.runtime.pool, shared with the service.
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


def _deliver(per_chunk: dict[int, tuple], merged: SweepTimings,
             result: tuple[int, list, dict]) -> None:
    """Store one chunk delivery; a later delivery of the same chunk
    replaces the earlier one, results and telemetry alike."""
    first_index, results, telemetry = result
    per_chunk[first_index] = (results, telemetry)
    merged.merge_chunk(first_index, telemetry["snapshot"])


def _collect_chunks(pool: ProcessPoolExecutor, tasks: list,
                    per_chunk: dict[int, tuple], merged: SweepTimings,
                    chunk_timeout: float | None) -> list[tuple]:
    """Submit ``tasks`` and gather results; returns the failed ones.

    Successful chunks are delivered into ``per_chunk`` and ``merged``
    (see :func:`_deliver`).  Any per-chunk failure — worker death,
    timeout, serialization error, an exception escaping the runner — is
    captured with its task for the retry ladder, never raised.
    """
    failed: list[tuple] = []
    futures: list[tuple] = []
    for task in tasks:
        try:
            futures.append((pool.submit(_run_chunk, task), task))
        except Exception as error:  # pool died between submits
            failed.append((task, error))
    for future, task in futures:
        try:
            result = future.result(timeout=chunk_timeout)
        except TimeoutError as error:
            merged.registry.counter("engine/chunk_timeouts").inc()
            failed.append((task, error))
        except Exception as error:
            merged.registry.counter("engine/chunk_failures").inc()
            failed.append((task, error))
        else:
            _deliver(per_chunk, merged, result)
    return failed


def _retry_failed_chunks(failed: list[tuple], *, workers: int,
                         per_chunk: dict[int, tuple], merged: SweepTimings,
                         chunk_timeout: float | None,
                         retry: RetryPolicy | None,
                         retry_rng: np.random.Generator) -> None:
    """The chunk retry ladder.

    Each rung of ``retry`` (default :data:`ENGINE_DEFAULT`) resubmits
    the still-failed chunks to a fresh pool; jitter draws from
    ``retry_rng``.  A rung whose pool cannot start ends the climb.
    Chunks still failed then run in-process (:func:`_run_in_process`).
    """
    policy = retry if retry is not None else ENGINE_DEFAULT
    attempt = 0
    for delay in policy.delays(retry_rng):
        if not failed:
            return
        # Retry the failures on a fresh pool.  Cancel anything still
        # queued and tear the old pool down without waiting, so the
        # retry (and a possible serial fallback) never races chunks
        # still running in half-broken workers.
        attempt += 1
        shutdown_pool(wait=False, cancel_futures=True)
        merged.registry.counter("engine/chunk_retries").inc(len(failed))
        if delay > 0:
            time.sleep(delay)
        try:
            pool = _get_pool(workers)
        except PoolUnavailableError:
            break
        failed = _collect_chunks(
            pool, [replace(task, attempt=attempt) for task, _ in failed],
            per_chunk, merged, chunk_timeout)
    _run_in_process([task for task, _ in failed], attempt + 1,
                    per_chunk, merged)


def _run_in_process(tasks: list[_ChunkTask], attempt: int,
                    per_chunk: dict[int, tuple],
                    merged: SweepTimings) -> None:
    """The ladder's last rung: run ``tasks`` through
    :func:`_run_chunk_serially`, which never raises."""
    if tasks:
        shutdown_pool(wait=False, cancel_futures=True)
    for task in tasks:
        merged.registry.counter("engine/serial_fallbacks").inc()
        _deliver(per_chunk, merged,
                 _run_chunk_serially(replace(task, attempt=attempt)))


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
    than an exception.  ``workers=1`` runs the chunks in-process through
    the same runner; otherwise chunks go to the pool and ride the retry
    ladder: a failed chunk is resubmitted to a restarted pool
    (outstanding futures cancelled first) per ``retry`` — the default
    policy (:data:`~repro.runtime.retry.ENGINE_DEFAULT`) retries once
    with no backoff — then run serially in-process.  Retry jitter draws
    from a generator seeded by ``[seed, 0x52]``, so backoff schedules
    are reproducible.  ``chunk_timeout`` bounds each chunk's wall time
    on the pool.  A pool that cannot start at all warns
    (``RuntimeWarning``) and runs every chunk in-process at once, with
    no retry and no backoff; this never raises
    :class:`PoolUnavailableError`.

    Telemetry merges into ``timings.registry``, or the ambient registry
    (:func:`~repro.runtime.timings.collect_timings`,
    :func:`~repro.obs.use_registry`) when ``timings`` is ``None`` —
    keyed by chunk, so a chunk that visits several rungs of the retry
    ladder contributes exactly once; merged stage seconds are
    CPU-seconds summed across workers, while the map's elapsed time and
    worker count, as seen from the parent, go to the ``sweep/*``
    histograms (``SweepTimings.wall_seconds`` and ``.workers``).
    When a trace collector is active, worker span events are re-emitted
    into it (chunk-deduplicated, in chunk order) under a parent-side
    ``engine/sweep`` span.

    ``fn`` must be a module-level function and every item picklable.
    """
    items = list(items)
    if not items:
        return []
    workers = resolve_workers(workers)
    sink = timings.registry if timings is not None else active_registry()
    chunks = chunk_indices(len(items), workers, chunk_size)
    collector = active_collector()
    start = time.perf_counter()
    per_chunk: dict[int, tuple] = {}
    merged = SweepTimings()
    merged.registry.counter("engine/chunks").inc(len(chunks))
    with span("engine/sweep", items=len(items), workers=workers,
              chunks=len(chunks)) as sweep_span:
        trace_parent = sweep_span.span_id if sweep_span is not None else None
        tasks = [_ChunkTask(indices, fn, tuple(items[i] for i in indices),
                            trace_parent)
                 for indices in chunks]
        if workers <= 1:
            for task in tasks:
                _deliver(per_chunk, merged, _run_chunk_serially(task))
        else:
            try:
                pool = _get_pool(workers)
            except PoolUnavailableError as error:
                warnings.warn(
                    f"process pool unavailable ({error}); falling back "
                    "to in-process serial execution",
                    RuntimeWarning, stacklevel=2)
                _run_in_process(tasks, 1, per_chunk, merged)
            else:
                _retry_failed_chunks(
                    _collect_chunks(pool, tasks, per_chunk, merged,
                                    chunk_timeout),
                    workers=workers, per_chunk=per_chunk, merged=merged,
                    chunk_timeout=chunk_timeout, retry=retry,
                    retry_rng=np.random.default_rng([seed, 0x52]))
        ordered: list = []
        for first_index in sorted(per_chunk):
            results, telemetry = per_chunk[first_index]
            ordered.extend(results)
            if collector is not None:
                for event in telemetry["spans"]:
                    collector.emit(event)
    if sink is not None:
        merged.registry.histogram(WORKERS_KEY).observe(workers)
        merged.registry.histogram(WALL_KEY).observe(
            time.perf_counter() - start)
        sink.merge(merged.registry)
    return ordered
