"""In-process fan-out: independent work items on the process's cores.

The sweep engine and the pose service put one *process* on each core.
A single in-process call — one fleet frame's eight extractions and ~21
pairwise edges, one pair's two extractions — would otherwise run its
items one after another on one core.  :func:`fan_out` runs them on
threads instead: the FFT and numpy kernels that dominate extraction
release the GIL, and threads share the parent's memory, where a process
pool would add a ~240 MB worker child.

The contract is *parallel equals serial*:

* results come back in item order, and an item's exception surfaces at
  its position, after every earlier result and before any later one —
  exactly where a plain loop would raise it;
* each item records into its own metrics registry and span buffer
  (when the caller has one installed), merged into the caller's in item
  order as the item is yielded, so counters, histogram counts and span
  ids/parents equal those of the plain loop.  An item after a raising
  one contributes nothing, as in the loop, where it never ran;
* the caller runs a share of the items itself, so it never sits idle
  while a helper thread works.

There is no knob.  The thread count is the process's CPU affinity; on a
one-CPU host, inside a fanned item (nested fan-outs) and in pool-worker
processes (:func:`run_serially`, called by the pool's worker
initializer) a fan-out is a plain loop.  Helper threads are started per
call and joined before the call's last result is yielded, so a later
``fork`` sees a single-threaded process.

Each thread that calls ``malloc`` gets its own glibc arena, which holds
on to that thread's freed temporaries: tens of MB of resident set.
Before the first helper starts, the process is capped to one arena
(``mallopt(M_ARENA_MAX, 1)``, a no-op off glibc).
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import itertools
import os
import threading
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro.obs.metrics import MetricsRegistry, active_registry, use_registry
from repro.obs.spans import (
    TraceCollector,
    active_collector,
    collect_spans,
    current_span_id,
)

__all__ = ["fan_out", "run_serially"]

T = TypeVar("T")
R = TypeVar("R")

#: glibc's ``M_ARENA_MAX`` mallopt parameter (``malloc.h``).
_M_ARENA_MAX = -8

# True in pool-worker processes: the pool already runs one process per
# core, so threads there would only oversubscribe it.
_serial_process = False
# True inside a fanned item: a nested fan-out runs inline.
_NESTED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_fanout_nested", default=False)
_arenas_capped = False


def _affinity() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no sched_getaffinity (macOS)
        return os.cpu_count() or 1


def run_serially() -> None:
    """Make every later fan-out in this process a plain loop."""
    global _serial_process
    _serial_process = True


def _thread_count() -> int:
    """Threads a fan-out started here would use (1: a plain loop)."""
    if _serial_process or _NESTED.get():
        return 1
    return max(1, _affinity())


def _cap_malloc_arenas() -> None:
    global _arenas_capped
    if _arenas_capped:
        return
    _arenas_capped = True
    try:
        os.confstr("CS_GNU_LIBC_VERSION")  # raises off glibc
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


class _Slot:
    """One item's outcome and the telemetry it recorded."""

    __slots__ = ("done", "value", "error", "registry", "collector")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None
        self.registry: MetricsRegistry | None = None
        self.collector: TraceCollector | None = None


def fan_out(fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
    """Yield ``fn(item)`` for each item, in order, computed on threads.

    Equivalent to ``(fn(item) for item in items)`` in results, raised
    exceptions and recorded telemetry (see the module docstring);
    ``fn`` must not mutate state another item reads.
    """
    items = list(items)
    threads = min(_thread_count(), len(items))
    if threads <= 1:
        for item in items:
            yield fn(item)
        return
    _cap_malloc_arenas()
    registry = active_registry()
    collector = active_collector()
    context = contextvars.copy_context()
    slots = [_Slot() for _ in items]
    # itertools.count's __next__ runs under the GIL: an atomic claim.
    claim = itertools.count().__next__
    stopped = threading.Event()

    def body(index: int) -> R:
        slot = slots[index]
        _NESTED.set(True)
        with contextlib.ExitStack() as stack:
            if registry is not None:
                slot.registry = stack.enter_context(
                    use_registry(MetricsRegistry()))
            if collector is not None:
                slot.collector = stack.enter_context(collect_spans(
                    current_span_id(), id_prefix="fan"))
            return fn(items[index])

    def work(index: int) -> None:
        slot = slots[index]
        try:
            slot.value = context.copy().run(body, index)
        except BaseException as error:  # noqa: BLE001 - re-raised in order
            slot.error = error
        slot.done.set()

    def helper() -> None:
        while not stopped.is_set():
            index = claim()
            if index >= len(items):
                return
            work(index)

    def finish() -> None:
        stopped.set()
        for thread in helpers:
            thread.join()

    helpers = [threading.Thread(target=helper, daemon=True,
                                name=f"repro-fanout-{n}")
               for n in range(threads - 1)]
    for thread in helpers:
        thread.start()
    try:
        for slot in slots:
            if slot is slots[-1]:
                finish()  # helpers exit once no item is left to claim
            while not slot.done.is_set():
                index = claim()
                if index < len(items):
                    work(index)
                else:
                    slot.done.wait()
            if registry is not None and slot.registry is not None:
                registry.merge(slot.registry)
            if collector is not None and slot.collector is not None:
                collector.adopt(slot.collector)
            if slot.error is not None:
                raise slot.error
            value, slot.value = slot.value, None
            yield value
    finally:
        finish()
