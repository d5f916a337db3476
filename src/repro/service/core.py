"""The always-on pose service: admission, batching, supervision.

:class:`PoseService` is an asyncio front-end over the shared
:class:`~repro.runtime.pool.WorkerPool`.  Scan-pair requests flow
through four stages, each with an explicit failure story:

1. **Admission** (:meth:`PoseService.submit_nowait`) is synchronous and
   bounded: a full queue refuses with
   :class:`~repro.service.config.ServiceOverloaded`, a stopping service
   with :class:`~repro.service.config.ServiceClosed` — the only two
   ways a request can fail to get a future.  Submitting ``B`` requests
   against a queue of depth ``Q`` in one event-loop tick yields exactly
   ``B - Q`` typed rejections, deterministically.
2. **Batching** is work-conserving: the dispatcher drains the queue
   into micro-batches of ``ceil(queued / idle workers)`` requests,
   capped at ``batch_size`` (after a short ``batch_window`` linger), so
   two requests reaching an idle two-worker pool run side by side
   instead of back to back on one worker.  Under load — more queued
   than the idle workers can take — batches still fill to
   ``batch_size`` and one pool round-trip amortizes over several
   requests.
3. **Execution with retry**: a batch that crashes its worker or hangs
   past ``batch_timeout`` triggers a generation-guarded pool restart
   (hung workers are SIGKILLed) and a jittered-backoff retry per the
   service's :class:`~repro.runtime.retry.RetryPolicy`.  A batch that
   outlives its retry budget resolves every request with a flagged
   ``"exhausted"`` response — the service-level rung of the paper's
   degradation ladder: *a pose answer you cannot trust, flagged as
   such, instead of an exception*.
4. **Deadlines** are per-request timers, not batch properties: when a
   request's deadline passes — queued or in flight — it resolves
   immediately with a ``"deadline"`` response and its slot in any
   running batch is simply discarded on completion.

A supervisor task heartbeats the pool (dead-worker probe + gauge
refresh) so workers that die *between* batches are also restarted.
Restarts are generation-guarded in :class:`WorkerPool`: concurrent
failure paths (batch crash, batch hang, supervisor probe) collapse to
one restart per actual fault, which is what makes the chaos soak's
``restarts == injected faults`` check deterministic.

Everything observable records into the service's own
:class:`~repro.runtime.timings.SweepTimings` registry — gauges
(``service/queue_depth``, ``service/in_flight``), counters
(``service/admitted``, ``service/shed``, ``service/worker_restarts``,
...), latency histograms — and worker telemetry folds in batch-keyed,
so a retried batch never double-counts.
"""

from __future__ import annotations

import asyncio
import functools
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.comms.envelope import ServiceRequest, ServiceResponse
from repro.comms.tiers import Tier
from repro.obs.spans import SpanHandle, TraceCollector, active_collector
from repro.runtime.pool import PoolUnavailableError, WorkerPool
from repro.runtime.shm import (
    SharedMessages,
    ShmArena,
    ShmUnavailableError,
    share_messages,
    shm_available,
)
from repro.runtime.timings import SweepTimings
from repro.service import worker
from repro.service.config import (
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    ServiceUnsupported,
)

__all__ = ["PoseService"]


@dataclass
class _Pending:
    """One admitted request awaiting its response."""

    request: ServiceRequest
    future: asyncio.Future
    enqueued: float
    deadline: float | None = None
    timer: asyncio.TimerHandle | None = None
    #: Trace identity (allocated at admission when tracing is on) and
    #: the wall-clock admission instant backing the synthetic
    #: ``service/request`` span emitted at resolution.
    span_id: str | None = None
    start_unix: float = 0.0


def _identity_response(request_id: int, status: str,
                       reason: str) -> ServiceResponse:
    """A non-``ok`` response: identity pose, flagged, typed."""
    return ServiceResponse(
        request_id=request_id, status=status, success=False,
        failure_reason=reason, degradation=None, inliers_bv=0,
        inliers_box=0, tx=0.0, ty=0.0, theta=0.0)


class PoseService:
    """Admission-controlled, supervised pose recovery over a warm pool.

    Lifecycle::

        service = PoseService(ServiceConfig(...))
        await service.start()
        response = await service.submit(ServiceRequest(request_id=1,
                                                       index=12))
        await service.stop()          # graceful drain; idempotent

    or ``async with PoseService(...) as service: ...``.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        # The initializer re-applies worker-side configuration (cache
        # byte budget) to every worker the pool ever starts — including
        # post-crash replacements, which would otherwise come up with
        # defaults.
        self.pool = WorkerPool(self.config.workers,
                               initializer=worker.configure_worker,
                               initargs=(self.config.worker_cache_mb,))
        #: Service telemetry; worker snapshots fold in batch-keyed.
        self.timings = SweepTimings()
        self.registry = self.timings.registry
        #: Parent-owned shared-memory arena for the zero-copy scan data
        #: plane; ``None`` until :meth:`start` (or when unavailable —
        #: the pickle path then carries scan batches transparently).
        self.arena: ShmArena | None = None
        self._collector: TraceCollector | None = None
        self._queue: deque[_Pending] = deque()
        self._batches: set[asyncio.Task] = set()
        self._dispatcher: asyncio.Task | None = None
        self._supervisor: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._slots: asyncio.Semaphore | None = None
        self._stopped: asyncio.Event | None = None
        self._started = False
        self._closed = False
        self._stopping = False
        self._batch_seq = 0
        # Seeded like the engine's retry stream (different tag), so
        # backoff schedules are reproducible run to run.
        self._retry_rng = np.random.default_rng([self.config.seed, 0x5E])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm the pool and start dispatcher + supervisor.

        Raises:
            PoolUnavailableError: the worker pool refused to start; the
                service cannot run without one.
        """
        if self._started:
            return
        self.pool.executor()  # fail fast, not on the first request
        if self.config.use_shm and self.arena is None:
            if shm_available():
                self.arena = ShmArena(prefix=f"repro-svc-{os.getpid()}")
            else:
                self.registry.counter("service/shm/unavailable").inc()
        # Tracing: requests admitted from here on stitch into whatever
        # trace session is active around the service's lifecycle.
        self._collector = active_collector()
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._slots = asyncio.Semaphore(self.pool.workers)
        self._dispatcher = asyncio.create_task(self._dispatch_loop(),
                                               name="pose-service-dispatch")
        self._supervisor = asyncio.create_task(self._supervise_loop(),
                                               name="pose-service-supervise")
        self._started = True

    async def stop(self, *, drain: bool = True) -> None:
        """Stop accepting work and wind down.  Idempotent.

        With ``drain=True`` (the default, and what SIGTERM triggers in
        ``repro serve``) queued and in-flight requests run to their
        real responses before the pool closes.  With ``drain=False``
        queued requests resolve immediately with typed ``"shed"``
        responses; in-flight batches still finish — an admitted request
        always gets a response either way.
        """
        if self._stopping or not self._started:
            self._closed = True
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._stopping = True
        self._closed = True
        if not drain:
            while self._queue:
                pending = self._queue.popleft()
                self.registry.counter("service/shed_on_shutdown").inc()
                self._resolve(pending, _identity_response(
                    pending.request.request_id, "shed",
                    "service-shutdown"))
            self._gauge_queue()
        while self._queue or self._batches:
            if self._wake is not None:
                self._wake.set()
            await asyncio.sleep(0.005)
        for task in (self._dispatcher, self._supervisor):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, functools.partial(
            self.pool.shutdown, wait=True, cancel_futures=True,
            kill_workers=True))
        if self.arena is not None:
            # Every batch released its segment in _execute's finally;
            # anything still live here is a leak — surface it (the
            # chaos soak asserts this gauge is zero), then unlink it.
            self.registry.gauge("service/shm/segments_leaked").set(
                self.arena.active)
            self.arena.release_all()
        self._stopped.set()

    async def __aenter__(self) -> "PoseService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit_nowait(self, request: ServiceRequest) -> asyncio.Future:
        """Admit one request; returns the future of its response.

        Synchronous and allocation-bounded: the decision is made from
        queue depth alone, so a burst of ``B`` submissions in one tick
        against ``queue_limit - Q`` free slots is admitted/refused
        deterministically.

        Raises:
            ServiceClosed: the service is stopping or never started.
            ServiceOverloaded: the admission queue is full.
            ServiceUnsupported: the request shape cannot execute (an
                indexed request beyond the dataset, or a scan-pair
                request whose ego message carries no raw scan).
        """
        if self._closed or not self._started:
            self.registry.counter("service/rejected_closed").inc()
            raise ServiceClosed("service is not accepting requests")
        if len(self._queue) >= self.config.queue_limit:
            self.registry.counter("service/shed").inc()
            raise ServiceOverloaded(
                f"admission queue full ({self.config.queue_limit})")
        self._validate(request)
        loop = asyncio.get_running_loop()
        now = loop.time()
        deadline: float | None = None
        if request.deadline_ms > 0:
            deadline = now + request.deadline_ms / 1000.0
        elif self.config.default_deadline is not None:
            deadline = now + self.config.default_deadline
        pending = _Pending(request=request, future=loop.create_future(),
                           enqueued=now, deadline=deadline)
        if self._collector is not None:
            pending.span_id = self._collector.next_span_id()
            pending.start_unix = time.time()
        if deadline is not None:
            pending.timer = loop.call_at(deadline, self._on_deadline,
                                         pending)
        self._queue.append(pending)
        self.registry.counter("service/admitted").inc()
        self._gauge_queue()
        self._wake.set()
        return pending.future

    async def submit(self, request: ServiceRequest) -> ServiceResponse:
        """Admit and await one request (see :meth:`submit_nowait`)."""
        return await self.submit_nowait(request)

    def _validate(self, request: ServiceRequest) -> None:
        if request.shm is not None:
            # Shm descriptors are a *transport* form: the TCP server
            # resolves them into ordinary scan pairs before admission.
            # One reaching here means no transport resolved it, and the
            # service must not guess at a foreign segment's layout.
            self.registry.counter("service/rejected_unsupported").inc()
            raise ServiceUnsupported(
                "shared-memory request descriptors must be resolved by "
                "the transport before admission")
        if request.index is not None:
            if request.index >= self.config.dataset_config.num_pairs:
                self.registry.counter("service/rejected_unsupported").inc()
                raise ServiceUnsupported(
                    f"pair index {request.index} beyond the configured "
                    f"dataset ({self.config.dataset_config.num_pairs})")
            return
        if request.ego.tier is not Tier.FULL_SCAN:
            self.registry.counter("service/rejected_unsupported").inc()
            raise ServiceUnsupported(
                "scan-pair requests need the ego message at the "
                f"full-scan tier, got {request.ego.tier.value!r} "
                "(the other side may use any tier)")

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve(self, pending: _Pending,
                 response: ServiceResponse) -> None:
        if pending.future.done():
            return
        if pending.timer is not None:
            pending.timer.cancel()
        pending.future.set_result(response)
        loop = asyncio.get_running_loop()
        latency = loop.time() - pending.enqueued
        self.registry.counter("service/responses").inc()
        self.registry.counter(f"service/status/{response.status}").inc()
        self.registry.histogram("service/latency_s").observe(latency)
        if self._collector is not None and pending.span_id is not None:
            # The request span is synthesized at resolution (spans are
            # emitted on close): admission → response, parented on the
            # session root, with batch spans nesting underneath via the
            # span_id handed to _run_batch.
            self._collector.emit({
                "type": "span", "name": "service/request",
                "span_id": pending.span_id,
                "parent_id": self._collector.root_parent,
                "pid": os.getpid(),
                "start_unix": round(pending.start_unix, 6),
                "wall_s": round(latency, 9), "cpu_s": 0.0,
                "attrs": {"request_id": pending.request.request_id,
                          "kind": pending.request.kind,
                          "status": response.status},
            })

    def _on_deadline(self, pending: _Pending) -> None:
        if pending.future.done():
            return
        self.registry.counter("service/deadline_expired").inc()
        self._resolve(pending, _identity_response(
            pending.request.request_id, "deadline", "deadline-exceeded"))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _gauge_queue(self) -> None:
        self.registry.gauge("service/queue_depth").set(len(self._queue))

    def _fair_share(self, batch_size: int) -> int:
        """The next batch's size: the queue spread over the idle
        workers, ``ceil(queued / idle)``, capped at ``batch_size``.

        Called with a dispatch slot held, so every in-flight batch is in
        ``self._batches`` and the worker about to take this batch counts
        as idle.
        """
        idle = self.pool.workers - len(self._batches)
        return min(batch_size, -(-len(self._queue) // idle))

    def _next_batch(self, batch_size: int) -> list[_Pending]:
        """Pop the next micro-batch: up to ``batch_size`` requests of
        one kind (indexed batches ride the engine's chunk runner,
        scan-pair batches the message path — they don't mix)."""
        batch: list[_Pending] = []
        kind: str | None = None
        while self._queue and len(batch) < batch_size:
            pending = self._queue.popleft()
            if pending.future.done():  # deadline fired while queued
                continue
            if kind is None:
                kind = pending.request.kind
            elif pending.request.kind != kind:
                self._queue.appendleft(pending)
                break
            batch.append(pending)
        self._gauge_queue()
        return batch

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            batch_size = self.config.batch_size
            batch_window = self.config.batch_window
            if (self._queue and not self._closed
                    and len(self._queue) < batch_size
                    and batch_window > 0):
                await asyncio.sleep(batch_window)
            while self._queue:
                await self._slots.acquire()
                batch = self._next_batch(self._fair_share(batch_size))
                if not batch:
                    self._slots.release()
                    continue
                seq = self._batch_seq
                self._batch_seq += 1
                task = asyncio.create_task(self._run_batch(seq, batch))
                self._batches.add(task)
                task.add_done_callback(self._batch_done)

    def _batch_done(self, task: asyncio.Task) -> None:
        self._batches.discard(task)
        self._slots.release()
        if not task.cancelled() and task.exception() is not None:
            # _run_batch resolves its requests in a finally; an escape
            # here is a bug, but it must not kill the dispatcher.
            self.registry.counter("service/internal_errors").inc()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _run_batch(self, seq: int, batch: list[_Pending]) -> None:
        gauge = self.registry.gauge("service/in_flight")
        gauge.inc(len(batch))
        self.registry.counter("service/batches").inc()
        bspan: SpanHandle | None = None
        try:
            alive = [p for p in batch if not p.future.done()]
            if not alive:
                return
            if self._collector is not None:
                # Built by hand (not the ambient span() stack): batches
                # run as interleaved asyncio tasks, and the tree wanted
                # here — request → batch → worker stages — parents the
                # batch on its first request's span, not on whatever
                # span another task happens to have open.
                bspan = SpanHandle(
                    "service/batch", self._collector.next_span_id(),
                    alive[0].span_id,
                    {"seq": seq, "requests": len(alive),
                     "kind": alive[0].request.kind})
            result = await self._execute(
                seq, alive,
                trace_parent=bspan.span_id if bspan is not None else None)
            if result is None:
                for pending in alive:
                    self.registry.counter("service/exhausted").inc()
                    self._resolve(pending, _identity_response(
                        pending.request.request_id, "exhausted",
                        "retry-budget-exhausted"))
                return
            responses, telemetry = result
            self.timings.merge_chunk(("service-batch", seq),
                                     telemetry.get("snapshot", {}))
            if self._collector is not None:
                for event in telemetry.get("spans", []):
                    self._collector.emit(event)
            for pending, response in zip(alive, responses):
                self._resolve(pending, response)
        finally:
            if bspan is not None and self._collector is not None:
                self._collector.emit(bspan.close_event())
            gauge.dec(len(batch))
            for pending in batch:  # safety net: never leave one hanging
                if not pending.future.done():
                    self._resolve(pending, _identity_response(
                        pending.request.request_id, "exhausted",
                        "internal-error"))

    def _share_batch(self, alive: list[_Pending]) -> SharedMessages | None:
        """Place a scan batch's messages into one arena segment.

        ``None`` means the pickle path carries this batch: indexed
        batches (nothing heavy to share), no arena, or a placement
        failure (``/dev/shm`` exhausted mid-run) — the fallback is
        per-batch and transparent.
        """
        if self.arena is None or alive[0].request.index is not None:
            return None
        try:
            shared = share_messages(
                self.arena, [message for p in alive
                             for message in (p.request.ego,
                                             p.request.other)])
        except ShmUnavailableError:
            self.registry.counter("service/shm/fallbacks").inc()
            return None
        self.registry.counter("service/shm/segments").inc()
        self.registry.counter("service/shm/bytes_shared").inc(
            shared.block.size)
        return shared

    def _submit_batch(self, alive: list[_Pending], attempt: int,
                      shared: SharedMessages | None,
                      trace_parent: str | None):
        """Ship one attempt of a batch to the pool (kind-dispatched)."""
        if alive[0].request.index is not None:
            task = worker.build_chunk_task(
                tuple(p.request.index for p in alive), self.config,
                attempt=attempt, trace_parent=trace_parent)
            submit = functools.partial(self.pool.submit,
                                       worker.run_chunk, task)
        else:
            if shared is not None:
                task = worker.ScanPairTask(
                    requests=(), config=self.config.config,
                    seed=self.config.seed, attempt=attempt,
                    shared=shared,
                    request_ids=tuple(p.request.request_id
                                      for p in alive),
                    use_cache=self.config.worker_cache_mb > 0,
                    trace_parent=trace_parent)
            else:
                task = worker.ScanPairTask(
                    requests=tuple(p.request for p in alive),
                    config=self.config.config, seed=self.config.seed,
                    attempt=attempt,
                    use_cache=self.config.worker_cache_mb > 0,
                    trace_parent=trace_parent)
            submit = functools.partial(self.pool.submit,
                                       worker.run_scan_pairs, task)
        if self.config.account_payload_bytes and attempt == 0:
            # What actually crosses the pool's call pipe for this
            # batch: a few hundred descriptor bytes on the shm path, the
            # full pickled payloads otherwise.  First attempt only —
            # retries resubmit the same task and would skew the
            # per-request quotient the bench gates on.
            nbytes = len(pickle.dumps(task))
            self.registry.histogram("service/task_bytes").observe(
                float(nbytes))
            self.registry.counter("service/payload_requests").inc(
                len(alive))
        return submit()

    def _to_responses(self, alive: list[_Pending],
                      payload: list) -> list[ServiceResponse]:
        if alive[0].request.index is not None:
            return [worker.response_for(outcome, p.request.request_id)
                    for p, outcome in zip(alive, payload)]
        return list(payload)  # scan-pair workers build responses

    async def _execute(self, seq: int, alive: list[_Pending],
                       trace_parent: str | None = None):
        """Run one batch through the retry ladder.

        Returns ``(responses, telemetry)`` on success, ``None`` when
        the retry budget is spent — the caller flags every request.

        Shared-memory placement happens once, outside the ladder: the
        payload does not change across attempts, so a retry after a
        worker crash resubmits the *same* descriptor (the parent never
        unlinked it), and the ``finally`` releases the segment exactly
        once whatever the outcome — which is why a SIGKILLed worker
        cannot orphan a segment.
        """
        loop = asyncio.get_running_loop()
        delays = self.config.retry.delays(self._retry_rng)
        attempt = 0
        shared = self._share_batch(alive)
        try:
            while True:
                generation = self.pool.generation
                restart = False  # whether this attempt broke the pool
                pool_future = None
                try:
                    pool_future = self._submit_batch(alive, attempt,
                                                     shared, trace_parent)
                    _first, payload, telemetry = await asyncio.wait_for(
                        asyncio.wrap_future(pool_future),
                        timeout=self.config.batch_timeout)
                    return self._to_responses(alive, payload), telemetry
                except (asyncio.TimeoutError, TimeoutError):
                    # A hang: the worker holding the batch gets
                    # SIGKILLed with the pool it wedged.
                    self.registry.counter("service/hangs").inc()
                    restart = True
                except PoolUnavailableError:
                    self.registry.counter("service/pool_unavailable").inc()
                except asyncio.CancelledError:
                    # A concurrent restart cancelled our queued
                    # submission — retry on the new pool.  Anything
                    # else cancelled *us*; propagate.
                    if pool_future is None or not pool_future.cancelled():
                        raise
                    self.registry.counter("service/batch_failures").inc()
                except Exception:
                    # Worker death (BrokenProcessPool), lost futures
                    # from a concurrent restart, serialization
                    # failures: all retry.
                    self.registry.counter("service/batch_failures").inc()
                    restart = True
                if restart and await loop.run_in_executor(
                        None, functools.partial(self.pool.restart,
                                                generation,
                                                kill_workers=True)):
                    self.registry.counter("service/worker_restarts").inc()
                delay = next(delays, None)
                if delay is None:
                    return None
                self.registry.counter("service/batch_retries").inc()
                if delay > 0:
                    await asyncio.sleep(delay)
                attempt += 1
        finally:
            if shared is not None:
                self.arena.release(shared.block)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    async def _supervise_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            self.registry.counter("service/heartbeats").inc()
            self._gauge_queue()
            # Snapshot the generation *before* probing: a batch-failure
            # restart landing between the probe and the snapshot would
            # otherwise hand this path the fresh pool's generation, and
            # it would restart that pool a second time.
            generation = self.pool.generation
            if self.pool.started and self.pool.dead_workers():
                # A worker died between batches (or its batch has not
                # noticed yet).  Generation-guarded: if a batch failure
                # restarts first, this probe is a no-op.
                if await loop.run_in_executor(None, functools.partial(
                        self.pool.restart, generation,
                        kill_workers=True)):
                    self.registry.counter("service/worker_restarts").inc()
                    self.registry.counter(
                        "service/supervisor_restarts").inc()
