"""Hierarchical trace spans with wall/CPU time and parent linkage.

A span times one named region of the pipeline (``stage1.mim``, one
engine chunk, one pair evaluation).  Spans nest: the collector keeps a
context-local stack, so a span opened inside another records the outer
span's id as its parent, and a chunk shipped to a pool worker carries
the parent span id across the process boundary (the worker's root
``engine/chunk`` span links to the parent-side ``engine/sweep`` span).

Tracing is opt-in and read-only: spans consume *no* randomness and
mutate nothing the pipeline computes with, so a traced sweep is
byte-identical to an untraced one (enforced by
``tests/test_obs.py::test_traced_sweep_byte_identical``).  With no
collector installed, :func:`span` yields a shared inert context at the
cost of one context-var read — the overhead-neutral disabled mode the
benchmarks assert on.

Span ids are ``"<pid>:<sequence>"`` strings: unique across the worker
pool without any randomness, stable across reruns of a deterministic
sweep.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import time
from typing import Any, Iterator

__all__ = ["SpanHandle", "TraceCollector", "active_collector",
           "collect_spans", "current_span_id", "span"]


class SpanHandle:
    """An open span: identity, clock marks and attributes."""

    __slots__ = ("name", "span_id", "parent_id", "attrs",
                 "_wall_start", "_cpu_start", "start_unix")

    def __init__(self, name: str, span_id: str, parent_id: str | None,
                 attrs: dict[str, Any]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_unix = time.time()
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()

    def close_event(self) -> dict:
        """The exported trace event for this span (schema: docs/api.md)."""
        event = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": os.getpid(),
            "start_unix": round(self.start_unix, 6),
            "wall_s": round(time.perf_counter() - self._wall_start, 9),
            "cpu_s": round(time.process_time() - self._cpu_start, 9),
        }
        if self.attrs:
            event["attrs"] = self.attrs
        return event


class TraceCollector:
    """Buffers finished-span events for one traced region.

    The parent process drains :attr:`events` into the JSONL exporter;
    pool workers return theirs inside the chunk result and the engine
    re-emits them (chunk-deduplicated) into the parent's collector.
    ``id_prefix`` replaces the pid in span ids: a fanned-out task's
    collector (:mod:`repro.runtime.fanout`) numbers its spans under a
    prefix no pid can take, until :meth:`adopt` renumbers them.
    """

    __slots__ = ("events", "root_parent", "id_prefix", "_sequence")

    def __init__(self, root_parent: str | None = None,
                 id_prefix: str | None = None) -> None:
        self.events: list[dict] = []
        self.root_parent = root_parent
        self.id_prefix = id_prefix
        self._sequence = 0

    def _span_id(self, sequence: int) -> str:
        prefix = self.id_prefix if self.id_prefix is not None \
            else os.getpid()
        return f"{prefix}:{sequence}"

    def next_span_id(self) -> str:
        self._sequence += 1
        return self._span_id(self._sequence)

    def emit(self, event: dict) -> None:
        """Append an already-finished event (engine chunk re-emission)."""
        self.events.append(event)

    def adopt(self, child: "TraceCollector") -> None:
        """Append ``child``'s events as if its spans had opened here.

        ``child`` (an ``id_prefix`` collector) recorded one task while
        this collector went on; its span ids are renumbered to follow
        every span opened here so far, parents included.  Adopting
        fanned-out tasks in item order therefore leaves the ids, parents
        and event order an inline run of the tasks would have left.
        """
        base = self._sequence
        local = f"{child.id_prefix}:"
        renamed = {event["span_id"]: self._span_id(
            base + int(event["span_id"][len(local):]))
            for event in child.events
            if event["span_id"].startswith(local)}
        self._sequence = base + child._sequence
        for event in child.events:
            self.events.append(dict(
                event,
                span_id=renamed.get(event["span_id"], event["span_id"]),
                parent_id=renamed.get(event["parent_id"],
                                      event["parent_id"])))


_COLLECTOR: contextvars.ContextVar[TraceCollector | None] = \
    contextvars.ContextVar("repro_obs_collector", default=None)
_PARENT: contextvars.ContextVar[str | None] = \
    contextvars.ContextVar("repro_obs_parent_span", default=None)


def active_collector() -> TraceCollector | None:
    """The installed collector, or ``None`` when tracing is disabled."""
    return _COLLECTOR.get()


def current_span_id() -> str | None:
    """The id a span opened here would report as its parent."""
    return _PARENT.get()


@contextlib.contextmanager
def collect_spans(root_parent: str | None = None, *,
                  id_prefix: str | None = None,
                  ) -> Iterator[TraceCollector]:
    """Install a fresh collector; spans in the block record into it.

    ``root_parent`` seeds the parent linkage: spans opened at the top
    level of the block report it as their parent.  The engine passes the
    parent-side sweep span id here so worker-side spans nest under it.
    ``id_prefix`` is passed on to :class:`TraceCollector`.
    """
    collector = TraceCollector(root_parent, id_prefix)
    token = _COLLECTOR.set(collector)
    parent_token = _PARENT.set(root_parent)
    try:
        yield collector
    finally:
        _PARENT.reset(parent_token)
        _COLLECTOR.reset(token)


@contextlib.contextmanager
def span(name: str, **attrs: Any) -> Iterator[SpanHandle | None]:
    """Time a named region into the active trace (no-op when disabled).

    Yields the open :class:`SpanHandle` (``None`` when tracing is off)
    so callers can read ``span_id`` for cross-process parent linkage or
    add attributes before the block closes.
    """
    collector = _COLLECTOR.get()
    if collector is None:
        yield None
        return
    handle = SpanHandle(name, collector.next_span_id(), _PARENT.get(),
                        dict(attrs))
    parent_token = _PARENT.set(handle.span_id)
    try:
        yield handle
    finally:
        _PARENT.reset(parent_token)
        collector.events.append(handle.close_event())
