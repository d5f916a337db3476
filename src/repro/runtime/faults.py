"""Process-level fault injection for the sweep engine and the service.

The engine's fault tolerance (per-pair error capture, per-chunk retry,
serial fallback) is only trustworthy if it can be *exercised*:
:class:`WorkerFault` is a picklable, deterministic fault that travels to
pool workers inside a task and fires at configured keys — pair indices
in a sweep's chunk task, request ids in the pose service's match task.
Three kinds cover the engine's failure surface:

* ``"raise"`` — the pair evaluation throws (a pathological pair); caught
  by the engine's per-pair capture, degrading one data point.
* ``"kill"`` — the worker process dies with SIGKILL mid-chunk (an OOM
  kill, a segfault); surfaces as ``BrokenProcessPool`` and exercises the
  chunk retry / serial-fallback path.
* ``"hang"`` — the worker stalls (a deadlock, a runaway kernel);
  exercises the per-chunk timeout.

A fault with a ``once_dir`` fires **at most once per index across all
processes** (claimed atomically via ``open(..., "x")`` sentinel files in
that directory), so a retried chunk runs clean — which is exactly the
transient-fault scenario the retry ladder is built for.  ``kill`` and
``hang`` faults should always carry a ``once_dir``: a persistent kill
would also kill the in-process serial fallback.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

__all__ = ["InjectedFault", "WorkerFault"]

_KINDS = ("raise", "kill", "hang")


class InjectedFault(RuntimeError):
    """The exception a ``"raise"``-kind :class:`WorkerFault` throws."""


@dataclass(frozen=True)
class WorkerFault:
    """A deterministic fault fired at configured keys.

    The sweep engine keys it by pair index; the pose service by request
    id (the match task calls :meth:`maybe_fire` with its request's id).

    Attributes:
        kind: ``"raise"``, ``"kill"`` or ``"hang"``.
        indices: pair indices (sweep) or request ids (service) at which
            the fault fires.
        once_dir: directory for fire-once sentinel files; ``None`` makes
            the fault fire on every evaluation of a listed index (only
            sensible for ``"raise"``).
        hang_seconds: stall duration for ``"hang"`` faults — keep it
            above the engine's chunk timeout but small enough that an
            orphaned worker drains quickly at interpreter exit.
    """

    kind: str
    indices: tuple[int, ...]
    once_dir: str | None = None
    hang_seconds: float = 6.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, "
                             f"got {self.kind!r}")
        if self.kind in ("kill", "hang") and self.once_dir is None:
            raise ValueError(
                f"a {self.kind!r} fault must carry once_dir: without a "
                "fire-once sentinel it would also take down the retry "
                "and the serial fallback")

    def _claim(self, index: int) -> bool:
        """Atomically claim the right to fire at ``index`` (cross-process)."""
        if self.once_dir is None:
            return True
        sentinel = os.path.join(self.once_dir,
                                f"fault-{self.kind}-{index}.fired")
        try:
            with open(sentinel, "x"):
                return True
        except FileExistsError:
            return False

    def maybe_fire(self, index: int) -> None:
        """Fire if ``index`` is targeted and not already claimed."""
        if index not in self.indices or not self._claim(index):
            return
        if self.kind == "raise":
            raise InjectedFault(f"injected fault at pair {index}")
        if self.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(self.hang_seconds)
