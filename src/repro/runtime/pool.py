"""A restartable, supervisable process pool shared by engine and service.

Both the batch sweep engine and the always-on pose service run work on
a ``ProcessPoolExecutor`` whose workers keep warm per-process state
(Log-Gabor bank, world geometry, feature cache) and can die or hang at
any moment.  :class:`WorkerPool` owns the lifecycle half of that
problem so the two callers share one implementation:

* **lazy start** — the executor is created on first use; a refusal to
  start raises :class:`PoolUnavailableError` (callers fall back to
  serial execution or fail the request, their choice);
* **generation-guarded restart** — :meth:`restart` tears the pool down
  and bumps a generation counter.  Callers pass the generation their
  failed submission used; when several concurrent batches crash on the
  same broken pool, only the *first* restart happens and the rest see
  ``False`` — which is what makes the service's restart counter equal
  its injected-fault count instead of racing past it.  The check,
  teardown and bump hold one lock, so this holds for callers on
  different threads too;
* **worker liveness** — :meth:`dead_workers` counts pool processes
  that exited without being asked to (the supervisor's heartbeat
  probe), and ``kill_workers=True`` on restart SIGKILLs survivors so a
  hung worker cannot outlive the pool that abandoned it;
* **idempotent shutdown** — :meth:`shutdown` is safe to call twice and
  from ``atexit``.

The sweep engine keeps its module-global pool (worker processes retain
feature caches across sweeps) but delegates the mechanics here; the
service owns one pool per instance.
"""

from __future__ import annotations

import os
import signal
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

from repro.runtime.fanout import run_serially

__all__ = ["PoolUnavailableError", "WorkerPool", "resolve_workers"]


def _pool_worker_init(extra: Callable[..., None] | None,
                      *args: Any) -> None:
    """Detach inherited signal wiring, then run the caller's initializer.

    Fork-started workers inherit the parent's Python-level signal
    handlers *and* — when the parent runs an asyncio loop — the loop's
    ``signal.set_wakeup_fd`` pipe.  A worker that later receives
    SIGTERM (the executor's broken-pool teardown terminates surviving
    workers) would write the signal number into that **shared** pipe,
    and the parent's loop would run the parent's own SIGTERM handler: a
    phantom shutdown of a process nobody signalled.  Resetting both in
    the child confines signals to the process they were sent to.

    The pool runs one worker process per core, so a worker never fans
    work out to threads (:func:`repro.runtime.fanout.run_serially`).
    """
    run_serially()
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # non-main thread / closed fd
        pass
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass
    if extra is not None:
        extra(*args)


class PoolUnavailableError(RuntimeError):
    """Raised when parallel execution cannot run; callers go serial."""


def resolve_workers(workers: int | None) -> int:
    """Map the user-facing worker count to an effective one.

    ``None`` or ``0`` (the CLI's ``--workers 0``) selects the host CPU
    count; anything else passes through.
    """
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return int(workers)


class WorkerPool:
    """One restartable process pool with liveness accounting."""

    def __init__(self, workers: int | None = None, *,
                 initializer: Callable[..., None] | None = None,
                 initargs: tuple = ()) -> None:
        self.workers = resolve_workers(workers)
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._executor: ProcessPoolExecutor | None = None
        #: Bumped on every restart; submissions snapshot it so a failure
        #: can tell "my pool broke" from "someone already replaced it".
        self.generation = 0
        #: Total restarts over the pool's lifetime (supervision metric).
        self.restarts = 0
        # Callers restart from executor threads (the service's batch
        # failure path and its supervisor), so the generation check,
        # teardown and bump must be one atomic step.
        self._restart_lock = threading.Lock()

    # ------------------------------------------------------------------
    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created on first use.

        Raises:
            PoolUnavailableError: the executor could not start.
        """
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_pool_worker_init,
                    initargs=(self._initializer, *self._initargs))
            except (OSError, ValueError, NotImplementedError) as error:
                raise PoolUnavailableError(
                    f"cannot start process pool: {error}") from error
        return self._executor

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Submit ``fn(*args)``; starts the pool if needed."""
        return self.executor().submit(fn, *args)

    @property
    def started(self) -> bool:
        return self._executor is not None

    # ------------------------------------------------------------------
    def _processes(self) -> list:
        """The executor's worker processes (empty before first submit).

        ``ProcessPoolExecutor`` spawns workers lazily and exposes them
        via the semi-private ``_processes`` dict — stable across
        CPython 3.10–3.12 and guarded here so an implementation change
        degrades supervision to "no liveness probe", not a crash.
        """
        if self._executor is None:
            return []
        processes = getattr(self._executor, "_processes", None)
        return list(processes.values()) if processes else []

    def dead_workers(self) -> int:
        """Spawned worker processes that have exited (crash or kill)."""
        return sum(1 for p in self._processes() if not p.is_alive())

    # ------------------------------------------------------------------
    def restart(self, generation: int | None = None, *,
                kill_workers: bool = False) -> bool:
        """Replace the executor; returns whether a restart happened.

        Args:
            generation: the generation the caller's failed submission
                ran against.  When it no longer matches (another path
                already restarted), nothing happens and ``False`` is
                returned — the caller just resubmits on the new pool.
            kill_workers: SIGKILL surviving worker processes after the
                non-blocking shutdown.  The service passes ``True`` so
                a *hung* worker dies with the pool that abandoned it;
                the engine keeps the historical drain-on-their-own
                behavior.
        """
        with self._restart_lock:
            if generation is not None and generation != self.generation:
                return False
            self._teardown(wait=False, cancel_futures=True,
                           kill_workers=kill_workers)
            self.generation += 1
            self.restarts += 1
            return True

    def shutdown(self, wait: bool = True, cancel_futures: bool = False,
                 *, kill_workers: bool = False) -> None:
        """Tear down the executor.  Idempotent — safe to call twice."""
        self._teardown(wait=wait, cancel_futures=cancel_futures,
                       kill_workers=kill_workers)

    def _teardown(self, *, wait: bool, cancel_futures: bool,
                  kill_workers: bool) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = ([] if not kill_workers
                     else [p for p in
                           (getattr(executor, "_processes", None) or {}
                            ).values()])
        executor.shutdown(wait=wait, cancel_futures=cancel_futures)
        for process in processes:
            if process.is_alive():
                process.kill()
