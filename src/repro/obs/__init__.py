"""Lightweight, zero-dependency pipeline observability.

Three pieces, composable and individually optional:

* :mod:`repro.obs.spans` — hierarchical trace spans
  (``with span("stage1.mim"): ...``) recording wall/CPU time and parent
  linkage, including across the sweep engine's process boundary;
* :mod:`repro.obs.metrics` — typed counters and histograms in a
  process-local :class:`MetricsRegistry`; pool workers ship snapshots
  back through the engine's chunk protocol and the parent merges them
  (chunk-keyed, so a retried chunk never double-counts);
* :mod:`repro.obs.export` — a JSON-lines event exporter behind the
  CLI's ``--trace out.jsonl`` flag (event schema in ``docs/api.md``).

Everything is off by default and overhead-neutral when off: with no
collector or registry installed, an instrumented call site costs one
context-var read and allocates nothing, the sweep's RNG streams are
untouched either way, and a traced sweep returns byte-identical
outcomes to an untraced one.

Stage timing is one path through both: :func:`repro.runtime.timings.\
stage` opens a :func:`span` and observes the ambient registry's
``stage/<name>`` histogram, and :class:`repro.runtime.timings.\
SweepTimings` — the CLI's ``--timings`` report — reads that registry.
"""

from repro.obs.export import EVENT_SCHEMA_VERSION, JsonlExporter, trace_session
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    counter,
    gauge,
    histogram,
    use_registry,
)
from repro.obs.spans import (
    SpanHandle,
    TraceCollector,
    active_collector,
    collect_spans,
    span,
)

__all__ = [
    "Counter",
    "EVENT_SCHEMA_VERSION",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "MetricsRegistry",
    "SpanHandle",
    "TraceCollector",
    "active_collector",
    "active_registry",
    "collect_spans",
    "counter",
    "gauge",
    "histogram",
    "span",
    "trace_session",
    "use_registry",
]
