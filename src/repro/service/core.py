"""The always-on pose service: admission, dispatch, supervision.

:class:`PoseService` is an asyncio front-end over the shared
:class:`~repro.runtime.pool.WorkerPool`.  Requests flow through four
stages, each with an explicit failure story:

1. **Admission** (:meth:`PoseService.submit_nowait`) is synchronous and
   bounded: a full queue refuses with
   :class:`~repro.service.config.ServiceOverloaded`, a stopping service
   with :class:`~repro.service.config.ServiceClosed` — the only two
   ways a request can fail to get a future.  Submitting ``B`` requests
   against a queue of depth ``Q`` in one event-loop tick yields exactly
   ``B - Q`` typed rejections, deterministically.
2. **Dispatch** is per request and deferred to the event loop: a
   request leaves the queue while fewer than ``workers × batch_size``
   admitted requests are in flight, and runs as its own asyncio task.
   A request counts against that bound until its task ends, so a busy
   pool's backlog waits in the queue, where ``queue_limit`` sheds it.
   The bound does not pick workers; stage 3 does.
3. **Execution** runs pool tasks, each on one idle worker.  A request
   is scan-keyed: one extraction task per distinct scan it carries (the
   ego cloud, and the partner's cloud or BV image), then one match task
   running ``BBAlign.recover`` on the features.  Extractions resolve through
   the service's one feature cache (:class:`~repro.service.scans.\
ScanTable`), so a scan several requests share — every partner of a V2V
   frame is matched against the same ego scan — is extracted once, and
   a request's two extractions run side by side on two workers.
   Features travel in parent-owned shared-memory segments: a worker
   writes them into one the parent reserved, and the match maps it (the
   pickle path carries them when shm is off).  Whenever a
   worker frees, it goes to the ready task whose request was admitted
   first.  A task that crashes its worker or hangs past
   ``batch_timeout`` triggers a generation-guarded pool restart (hung
   workers are SIGKILLed) and a jittered-backoff retry per the
   service's :class:`~repro.runtime.retry.RetryPolicy`.  A task that
   outlives its retry budget resolves every request it serves with a
   flagged ``"exhausted"`` response — the service-level rung of the
   paper's degradation ladder: *a pose answer you cannot trust, flagged
   as such, instead of an exception*.
4. **Deadlines** are per-request timers: when a request's deadline
   passes — queued or in flight — it resolves immediately with a
   ``"deadline"`` response; extractions it started still finish (other
   requests may share them) and its match is skipped.

A supervisor task heartbeats the pool (dead-worker probe + gauge
refresh) so workers that die *between* tasks are also restarted.
Restarts are generation-guarded in :class:`WorkerPool`: concurrent
failure paths (task crash, task hang, supervisor probe) collapse to
one restart per actual fault, which is what makes the chaos soak's
``restarts == injected faults`` check deterministic.

Everything observable records into the service's own
:class:`~repro.runtime.timings.SweepTimings` registry — gauges
(``service/queue_depth``, ``service/in_flight``), counters
(``service/admitted``, ``service/shed``, ``service/worker_restarts``,
...), latency histograms — and worker telemetry folds in task-keyed,
so a retried task never double-counts.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import heapq
import itertools
import os
import pickle
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import AsyncIterator, Callable, Iterator

import numpy as np

from repro.comms.envelope import ServiceRequest, ServiceResponse
from repro.comms.tiers import Tier
from repro.core.config import BBAlignConfig
from repro.core.degradation import record_transition
from repro.core.result import DegradationLevel, FailureReason
from repro.obs.metrics import use_registry
from repro.obs.spans import SpanHandle, TraceCollector, active_collector
from repro.runtime.pool import PoolUnavailableError, WorkerPool
from repro.runtime.shm import (
    SharedObjects,
    ShmArena,
    ShmBlockRef,
    ShmUnavailableError,
    share_objects,
    shm_available,
    shm_free_bytes,
)
from repro.runtime.timings import SweepTimings
from repro.service import worker
from repro.service.config import (
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    ServiceUnsupported,
)
from repro.service.scans import Scan, ScanTable, scan_of

__all__ = ["PoseService"]


@dataclass
class _Pending:
    """One admitted request awaiting its response."""

    request: ServiceRequest
    future: asyncio.Future
    enqueued: float
    #: Admission sequence number: idle workers go to the ready task
    #: whose request was admitted first.
    order: int = 0
    deadline: float | None = None
    timer: asyncio.TimerHandle | None = None
    #: Trace identity (allocated at admission when tracing is on) and
    #: the wall-clock admission instant backing the synthetic
    #: ``service/request`` span emitted at resolution.
    span_id: str | None = None
    start_unix: float = 0.0


#: Failure templates a task resolves every request it serves with (the
#: request id is filled in per request).
_EXHAUSTED = worker.identity_response(0, "exhausted",
                                      "retry-budget-exhausted")
#: What ``BBAlign.recover`` answers when stage-1 extraction raises and
#: the aligner holds no last-good pose.
_EXTRACTION_ERROR = dataclasses.replace(
    worker.identity_response(0, "ok", FailureReason.EXTRACTION_ERROR.value),
    degradation=DegradationLevel.IDENTITY.value)


#: Size of a reserved feature segment (sparse: it costs only the bytes
#: a worker writes).  A default-configuration BV feature set is about
#: 2.6 MB; features that do not fit come back through the pipe.
_FEATURE_SEGMENT_BYTES = 16 * 1024 * 1024


class _Workers:
    """The pool's workers as a resource of the event loop.

    A task holds a worker from submission to result.  When one frees,
    it goes to the waiting task with the lowest ``order`` — the
    admission sequence of the request the task serves — so a request
    admitted earlier finishes first, whatever kind of task it still
    needs.
    """

    def __init__(self, count: int) -> None:
        self._idle = count
        self._waiting: list[tuple[int, int, asyncio.Future]] = []
        self._arrivals = itertools.count()

    @contextlib.asynccontextmanager
    async def hold(self, order: int) -> AsyncIterator[None]:
        if self._idle and not self._waiting:
            self._idle -= 1
        else:
            grant = asyncio.get_running_loop().create_future()
            heapq.heappush(self._waiting,
                           (order, next(self._arrivals), grant))
            try:
                await grant
            except asyncio.CancelledError:
                if grant.done() and not grant.cancelled():
                    self._release()  # granted, then cancelled: pass on
                raise
        try:
            yield
        finally:
            self._release()

    def _release(self) -> None:
        while self._waiting:
            _order, _arrival, grant = heapq.heappop(self._waiting)
            if not grant.done():
                grant.set_result(None)
                return
        self._idle += 1


class PoseService:
    """Admission-controlled, supervised pose recovery over a warm pool.

    Lifecycle::

        service = PoseService(ServiceConfig(...))
        await service.start()
        response = await service.submit(ServiceRequest(
            request_id=1, ego=ego_message, other=partner_message))
        await service.stop()          # graceful drain; idempotent

    or ``async with PoseService(...) as service: ...``.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        # The initializer builds the service's pipeline in every worker
        # the pool ever starts — including post-crash replacements —
        # before that worker's first task.
        self.pool = WorkerPool(self.config.workers,
                               initializer=worker.configure_worker,
                               initargs=(self.config.config,))
        #: Service telemetry; worker snapshots fold in task-keyed.
        self.timings = SweepTimings()
        self.registry = self.timings.registry
        self._workers = _Workers(self.pool.workers)
        #: The BV geometry stage 1 runs at: a partner's BV image or
        #: keypoints must share it.
        self._bv_config = (self.config.config or BBAlignConfig()).bv_image
        #: The service's one stage-1 feature cache.
        self._scans = ScanTable(self.config.config,
                                self.config.worker_cache_mb, self.registry,
                                free=self._release_block)
        #: Parent-owned shared-memory arena for the zero-copy scan data
        #: plane; ``None`` until :meth:`start` (or when unavailable —
        #: the pickle path then carries scan tasks transparently).
        self.arena: ShmArena | None = None
        self._collector: TraceCollector | None = None
        self._queue: deque[_Pending] = deque()
        #: One task per dispatched request, until the task ends.
        self._running: set[asyncio.Task] = set()
        self._supervisor: asyncio.Task | None = None
        self._stopped: asyncio.Event | None = None
        self._started = False
        self._closed = False
        self._stopping = False
        self._task_seq = 0
        self._admitted = 0
        # Seeded like the engine's retry stream (different tag), so
        # backoff schedules are reproducible run to run.
        self._retry_rng = np.random.default_rng([self.config.seed, 0x5E])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm the pool and start the supervisor.

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
                # Cached features stay in their segments: the cache may
                # fill half of /dev/shm, the rest is for work in flight.
                free = shm_free_bytes()
                if free:
                    self._scans.limit_bytes(free // 2)
            else:
                self.registry.counter("service/shm/unavailable").inc()
        # Tracing: requests admitted from here on stitch into whatever
        # trace session is active around the service's lifecycle.
        self._collector = active_collector()
        self._stopped = asyncio.Event()
        self._supervisor = asyncio.create_task(self._supervise_loop(),
                                               name="pose-service-supervise")
        self._started = True

    async def stop(self, *, drain: bool = True) -> None:
        """Stop accepting work and wind down.  Idempotent.

        With ``drain=True`` (the default, and what SIGTERM triggers in
        ``repro serve``) queued and in-flight requests run to their
        real responses before the pool closes.  With ``drain=False``
        queued requests resolve immediately with typed ``"shed"``
        responses; in-flight requests still finish — an admitted request
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
                self._resolve(pending, worker.identity_response(
                    pending.request.request_id, "shed",
                    "service-shutdown"))
            self._gauge_queue()
        while self._queue or self._running:
            await asyncio.sleep(0.005)
        self._supervisor.cancel()
        try:
            await self._supervisor
        except asyncio.CancelledError:
            pass
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, functools.partial(
            self.pool.shutdown, wait=True, cancel_futures=True,
            kill_workers=True))
        # The cache's feature segments go with it.
        self._scans.clear()
        if self.arena is not None:
            # Every task released its segment when its ladder ended;
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
                ego message that carries no raw scan, or a partner BV
                image or keypoint message whose geometry is not the
                service's).
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
                           enqueued=now, order=self._admitted,
                           deadline=deadline)
        self._admitted += 1
        if self._collector is not None:
            pending.span_id = self._collector.next_span_id()
            pending.start_unix = time.time()
        if deadline is not None:
            pending.timer = loop.call_at(deadline, self._on_deadline,
                                         pending)
        self._queue.append(pending)
        self.registry.counter("service/admitted").inc()
        self._gauge_queue()
        # Deferred: a burst submitted in one tick fills the queue before
        # any of it leaves.
        loop.call_soon(self._pump)
        return pending.future

    async def submit(self, request: ServiceRequest) -> ServiceResponse:
        """Admit and await one request (see :meth:`submit_nowait`)."""
        return await self.submit_nowait(request)

    def _validate(self, request: ServiceRequest) -> None:
        if request.ego.tier is not Tier.FULL_SCAN \
                or request.ego.cloud is None:
            self.registry.counter("service/rejected_unsupported").inc()
            raise ServiceUnsupported(
                "scan-pair requests need the ego message at the "
                f"full-scan tier with its scan, got "
                f"{request.ego.tier.value!r} (the other side may use any "
                "tier)")
        foreign = self._bv_config.foreign_geometry(request.other)
        if foreign is not None:
            bv = self._bv_config
            self.registry.counter("service/rejected_unsupported").inc()
            raise ServiceUnsupported(
                f"partner {request.other.tier.value} geometry (size, "
                f"cell, range) {foreign} is not the service's "
                f"{(bv.image_size, bv.cell_size, bv.lidar_range)}")

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
            # session root, with the request's service/batch span
            # nesting underneath via the span_id handed to _run.
            self._collector.emit({
                "type": "span", "name": "service/request",
                "span_id": pending.span_id,
                "parent_id": self._collector.root_parent,
                "pid": os.getpid(),
                "start_unix": round(pending.start_unix, 6),
                "wall_s": round(latency, 9), "cpu_s": 0.0,
                "attrs": {"request_id": pending.request.request_id,
                          "status": response.status},
            })

    def _on_deadline(self, pending: _Pending) -> None:
        if pending.future.done():
            return
        self.registry.counter("service/deadline_expired").inc()
        self._resolve(pending, worker.identity_response(
            pending.request.request_id, "deadline", "deadline-exceeded"))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _gauge_queue(self) -> None:
        self.registry.gauge("service/queue_depth").set(len(self._queue))

    def _pump(self) -> None:
        """Start queued requests while fewer than ``workers ×
        batch_size`` are in flight, each as its own task."""
        limit = self.pool.workers * self.config.batch_size
        while self._queue and len(self._running) < limit:
            pending = self._queue.popleft()
            if pending.future.done():  # deadline fired while queued
                continue
            task = asyncio.create_task(self._run(pending))
            self._running.add(task)
            task.add_done_callback(self._finished)
        self._gauge_queue()
        self.registry.gauge("service/in_flight").set(len(self._running))

    def _finished(self, task: asyncio.Task) -> None:
        # A request holds its place until its task ends, not until its
        # future resolves: a deadline does not stop its extractions.
        self._running.discard(task)
        self._pump()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _run(self, pending: _Pending) -> None:
        """One dispatched request, traced as one ``service/batch`` span
        under its ``service/request`` span."""
        request = pending.request
        if pending.future.done():  # deadline fired before the task ran
            return
        if self.config.account_payload_bytes:
            self.registry.counter("service/payload_requests").inc()
        span: SpanHandle | None = None
        if self._collector is not None:
            # Built by hand (not the ambient span() stack): requests run
            # as interleaved asyncio tasks, and each one's span must
            # parent on its own request span, not on whatever span
            # another task happens to have open.
            span = SpanHandle(
                "service/batch", self._collector.next_span_id(),
                pending.span_id, {"requests": 1})
        trace_parent = span.span_id if span is not None else None
        try:
            await self._run_scan_pair(pending, trace_parent)
        except Exception as error:
            # The request path resolves its request; an escape is a bug.
            self.registry.counter("service/internal_errors").inc()
            warnings.warn(f"pose service request {request.request_id}: "
                          f"internal error {error!r}", RuntimeWarning,
                          stacklevel=1)
        finally:
            if span is not None:
                self._collector.emit(span.close_event())
            if not pending.future.done():  # never leave one hanging
                self._resolve(pending, worker.identity_response(
                    request.request_id, "exhausted", "internal-error"))

    def _fail(self, pending: _Pending, template: ServiceResponse) -> None:
        """Resolve ``pending`` with a failure ``template`` (an exhausted
        retry budget or an extraction error) under its own id."""
        if template.status == "exhausted":
            self.registry.counter("service/exhausted").inc()
        else:
            # What BBAlign.recover records for an extraction error.
            with use_registry(self.registry):
                record_transition(DegradationLevel.IDENTITY,
                                  FailureReason.EXTRACTION_ERROR)
        self._resolve(pending, dataclasses.replace(
            template, request_id=pending.request.request_id))

    async def _run_scan_pair(self, pending: _Pending,
                             trace_parent: str | None) -> None:
        """One scan-pair request: its extractions, then its match.

        Both scans are looked up (and, on a miss, their extractions
        started) before either is awaited, so two extractions run side
        by side on two workers.  A boxes-only partner needs no ego
        features: the match gets the ego cloud, which that tier never
        reads.
        """
        request = pending.request
        ego, other = request.ego, request.other
        other_scan = scan_of(other)
        scans: list[Scan] = []
        try:
            sides: list = [ego.cloud, other]
            if other.tier is not Tier.BOXES_ONLY:
                sides[0] = self._scan(ego.cloud, pending, trace_parent)
                scans.append(sides[0])
            if other_scan is not None:
                sides[1] = self._scan(other_scan, pending, trace_parent)
                scans.append(sides[1])
            for side, value in enumerate(sides):
                if isinstance(value, Scan):
                    sides[side] = await asyncio.shield(value.task)
            failed = [v for v in sides if isinstance(v, ServiceResponse)]
            if failed:
                self._fail(pending, failed[0])
                return
            if pending.future.done():  # deadline fired while extracting
                return
            args = (*sides, ego.boxes,
                    list(other.boxes) if other_scan is not None else None)
            # Features a worker wrote into a segment travel as their
            # descriptors; anything else heavy gets a segment here.
            placed = (contextlib.nullcontext() if all(
                isinstance(v, SharedObjects) for v in sides)
                else self._placed(args))
            with placed as shared:
                response = await self._call(
                    pending.order, worker.run_match, worker.MatchTask(
                        config=self.config.config, seed=self.config.seed,
                        request_id=request.request_id,
                        args=args if shared is None else shared,
                        trace_parent=trace_parent,
                        fault=self.config.fault))
        finally:
            for scan in scans:
                self._scans.release(scan)
        if response is None:
            self._fail(pending, _EXHAUSTED)
        else:
            self._resolve(pending, response)

    def _scan(self, data, pending: _Pending,
              trace_parent: str | None) -> Scan:
        """Hold the scan ``data`` (a cloud or BV image), starting its
        extraction (on behalf of ``pending``) unless another request
        already did or the cache holds its features."""
        scan, new = self._scans.acquire(data)
        if new:
            scan.task = asyncio.create_task(self._extract(
                scan, data, pending.order, trace_parent))
        return scan

    async def _extract(self, scan: Scan, data, order: int,
                       trace_parent: str | None):
        """Run one extraction task; returns the features, or the failure
        response every request waiting on it answers with."""
        out = self._reserve()
        payload = None
        try:
            with self._placed(data) as shared:
                payload = await self._call(
                    order, worker.run_extract, worker.ExtractTask(
                        config=self.config.config,
                        scan=data if shared is None else shared,
                        out=out, trace_parent=trace_parent))
        finally:
            if out is not None and not isinstance(payload, SharedObjects):
                self.arena.release(out)
        if payload is None or isinstance(payload, worker.ExtractionFailed):
            self._scans.fail(scan)
            return _EXHAUSTED if payload is None else _EXTRACTION_ERROR
        if isinstance(payload, SharedObjects):
            self.registry.counter("service/shm/bytes_shared").inc(
                payload.block.payload_bytes)
        self._scans.finish(scan, payload)
        return payload

    def _reserve(self) -> ShmBlockRef | None:
        """A segment for a worker to write an extraction's features
        into, or ``None``: the features then come back through the
        pipe."""
        if self.arena is None:
            return None
        try:
            out = self.arena.reserve(_FEATURE_SEGMENT_BYTES)
        except ShmUnavailableError:
            self.registry.counter("service/shm/fallbacks").inc()
            return None
        self.registry.counter("service/shm/segments").inc()
        return out

    def _release_block(self, block: ShmBlockRef) -> None:
        if self.arena is not None:
            self.arena.release(block)

    @contextlib.contextmanager
    def _placed(self, payload) -> Iterator[SharedObjects | None]:
        """Place ``payload``'s arrays into an arena segment for the
        task's whole retry ladder.

        Yields the descriptor, or ``None`` when the pickle path carries
        the task: no arena, or a placement failure (``/dev/shm``
        exhausted mid-run) — the fallback is per task and transparent.
        Placement happens once, outside the ladder: the payload does not
        change across attempts, so a retry after a worker crash
        resubmits the *same* descriptor (the parent never unlinked it),
        and the segment is released exactly once whatever the outcome —
        which is why a SIGKILLed worker cannot orphan a segment.
        """
        shared = None
        if self.arena is not None:
            try:
                shared = share_objects(self.arena, payload)
            except ShmUnavailableError:
                self.registry.counter("service/shm/fallbacks").inc()
            else:
                self.registry.counter("service/shm/segments").inc()
                self.registry.counter("service/shm/bytes_shared").inc(
                    shared.block.payload_bytes)
        try:
            yield shared
        finally:
            if shared is not None:
                self.arena.release(shared.block)

    async def _call(self, order: int, fn: Callable, task):
        """Run one pool task through the retry ladder on an idle worker.

        Every attempt submits the same ``task`` to ``fn``.  Returns the
        task's payload, with its telemetry folded in task-keyed (a
        retried task never double-counts), or ``None`` when the retry
        budget is spent — the caller flags every request it serves.
        The worker is held from submission through any restart the
        attempt triggers; backoff sleeps hold none.
        """
        loop = asyncio.get_running_loop()
        delays = self.config.retry.delays(self._retry_rng)
        key = ("service-task", self._task_seq)
        self._task_seq += 1
        attempt = 0
        while True:
            async with self._workers.hold(order):
                generation = self.pool.generation
                restart = False  # whether this attempt broke the pool
                pool_future = None
                try:
                    if self.config.account_payload_bytes and attempt == 0:
                        # What actually crosses the pool's call pipe: a
                        # few hundred descriptor bytes on the shm path,
                        # the full pickled payloads otherwise.  First
                        # attempt only — retries resubmit the same task
                        # and would skew the per-request quotient.
                        self.registry.histogram(
                            "service/task_bytes").observe(
                                float(len(pickle.dumps(task))))
                    pool_future = self.pool.submit(fn, task)
                    _key, payload, telemetry = await asyncio.wait_for(
                        asyncio.wrap_future(pool_future),
                        timeout=self.config.batch_timeout)
                    self.timings.merge_chunk(
                        key, telemetry.get("snapshot", {}))
                    if self._collector is not None:
                        for event in telemetry.get("spans", []):
                            self._collector.emit(event)
                    return payload
                except (asyncio.TimeoutError, TimeoutError):
                    # A hang: the worker holding the task gets
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

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    async def _supervise_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            self.registry.counter("service/heartbeats").inc()
            self._gauge_queue()
            # Snapshot the generation *before* probing: a task-failure
            # restart landing between the probe and the snapshot would
            # otherwise hand this path the fresh pool's generation, and
            # it would restart that pool a second time.
            generation = self.pool.generation
            if self.pool.started and self.pool.dead_workers():
                # A worker died between tasks (or its task has not
                # noticed yet).  Generation-guarded: if a task failure
                # restarts first, this probe is a no-op.
                if await loop.run_in_executor(None, functools.partial(
                        self.pool.restart, generation,
                        kill_workers=True)):
                    self.registry.counter("service/worker_restarts").inc()
                    self.registry.counter(
                        "service/supervisor_restarts").inc()
