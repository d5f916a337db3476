"""Typed counters and histograms in a process-local registry.

The observability layer's numeric store.  A :class:`MetricsRegistry`
holds named :class:`Counter` and :class:`Histogram` instruments;
instrumented code asks the *active* registry for an instrument by name
and updates it.  When no registry is installed the shared no-op
instruments are returned, so a disabled pipeline pays one context-var
read per update and allocates nothing.

Registries are process-local by design: a pool worker records into a
chunk-local registry and ships a :meth:`MetricsRegistry.snapshot` (a
plain picklable dict) back to the parent inside the engine's existing
chunk-result protocol; the parent folds snapshots together with
:meth:`MetricsRegistry.merge_snapshot`.  Snapshots are also what the
JSON-lines exporter writes (see :mod:`repro.obs.export`).

Instrument names use ``/`` as the hierarchy separator
(``engine/chunk_retries``, ``stage/bv_extract/mim``).  Stage timing
records here too: :func:`repro.runtime.timings.stage` observes the
active registry's ``stage/<name>`` histogram, and
:class:`~repro.runtime.timings.SweepTimings` reports a registry's
``stage/*`` histograms, nesting ``<stage>/<part>`` detail stages under
their stage.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "counter",
    "gauge",
    "histogram",
    "use_registry",
]


class Counter:
    """A monotonically adjustable integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = int(value)

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A streaming summary of float observations (count/total/min/max).

    Deliberately bucket-free: the sweep's consumers need totals (stage
    seconds), rates (total/count) and extremes, and a fixed-bucket
    histogram would force a unit choice on every instrument.  ``total``
    and ``count`` merge and un-merge exactly, which is what the engine's
    chunk-deduplicated aggregation needs; ``min``/``max`` are lifetime
    extremes and survive a re-merge unadjusted (documented in
    ``docs/api.md``).
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"total={self.total:.6f})")


class Gauge:
    """A point-in-time level with a high-water mark.

    Built for the service's queue-depth and in-flight instruments:
    ``value`` is the current level, ``high_water`` the largest level
    ever held.  Under :meth:`MetricsRegistry.merge_snapshot` the value
    *adds* (and subtracts under ``sign=-1``), matching the additive
    semantics of levels that are partitioned across contributors — two
    workers each holding 3 in-flight requests merge to 6 — and making
    merge/un-merge exact, which the chunk-keyed dedupe ladder requires.
    ``high_water`` only ever widens (like histogram extremes): a
    re-merge cannot shrink it, so it survives the subtract-then-re-add
    cycle unadjusted.
    """

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = float(value)
        self.high_water = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.value > self.high_water:
            self.high_water = self.value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Gauge({self.name!r}, {self.value}, "
                f"high_water={self.high_water})")


class _NoopCounter(Counter):
    """Shared sink for updates recorded while no registry is active."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: ARG002
        return None


class _NoopHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # noqa: ARG002
        return None


class _NoopGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # noqa: ARG002
        return None


_NOOP_COUNTER = _NoopCounter("noop")
_NOOP_HISTOGRAM = _NoopHistogram("noop")
_NOOP_GAUGE = _NoopGauge("noop")


class MetricsRegistry:
    """A process-local collection of named instruments.

    Instruments are created on first use and live for the registry's
    lifetime.  The registry is not thread-safe by design — the sweep is
    process-parallel, and each worker records into its own chunk-local
    registry.
    """

    __slots__ = ("counters", "histograms", "gauges")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.histograms: dict[str, Histogram] = {}
        self.gauges: dict[str, Gauge] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict copy of every instrument (picklable, JSON-safe).

        This is the unit that crosses the process boundary in the
        engine's chunk protocol and the payload of the exporter's
        ``metrics`` event.  Infinite min/max (an observation-free
        histogram) serialize as ``None``.
        """
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": None if math.isinf(h.min) else h.min,
                    "max": None if math.isinf(h.max) else h.max,
                }
                for name, h in self.histograms.items()
            },
            "gauges": {
                name: {"value": g.value, "high_water": g.high_water}
                for name, g in self.gauges.items()
            },
        }

    def merge_snapshot(self, snapshot: Mapping, sign: int = 1) -> None:
        """Fold a :meth:`snapshot` into this registry.

        ``sign=-1`` subtracts a previously merged snapshot's counters
        and histogram count/total — the primitive behind chunk-keyed
        deduplication (:meth:`repro.runtime.timings.SweepTimings.merge_chunk`).
        Histogram min/max only ever widen; a subtraction leaves them be.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += sign * value
        for name, data in snapshot.get("histograms", {}).items():
            h = self.histogram(name)
            h.count += sign * data["count"]
            h.total += sign * data["total"]
            if sign > 0:
                if data["min"] is not None and data["min"] < h.min:
                    h.min = data["min"]
                if data["max"] is not None and data["max"] > h.max:
                    h.max = data["max"]
        for name, data in snapshot.get("gauges", {}).items():
            g = self.gauge(name)
            g.value += sign * data["value"]
            if sign > 0:
                if g.value > g.high_water:
                    g.high_water = g.value
                if data["high_water"] > g.high_water:
                    g.high_water = data["high_water"]

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_snapshot(other.snapshot())

    def counter_values(self, prefix: str = "") -> dict[str, int]:
        """Sorted ``{name: value}`` of counters under ``prefix``.

        The reporting primitive behind ``repro serve``'s drain line and
        the soak harness's supervision block — one place defines what
        "the service counters" means instead of three ad-hoc filters.
        """
        return {name: instrument.value
                for name, instrument in sorted(self.counters.items())
                if name.startswith(prefix)}


# ----------------------------------------------------------------------
# The active registry.  Instrumented code never holds a registry —
# it asks for the ambient one at update time, so the same call site
# records into a chunk-local registry inside a pool worker, into the
# sweep's registry in a serial run, and into nothing at all otherwise.
# ----------------------------------------------------------------------
_ACTIVE: contextvars.ContextVar[MetricsRegistry | None] = \
    contextvars.ContextVar("repro_obs_active_registry", default=None)


def active_registry() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when metrics are disabled."""
    return _ACTIVE.get()


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the ambient instrument store."""
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


def counter(name: str) -> Counter:
    """The active registry's counter ``name`` (no-op when disabled)."""
    registry = _ACTIVE.get()
    if registry is None:
        return _NOOP_COUNTER
    return registry.counter(name)


def histogram(name: str) -> Histogram:
    """The active registry's histogram ``name`` (no-op when disabled)."""
    registry = _ACTIVE.get()
    if registry is None:
        return _NOOP_HISTOGRAM
    return registry.histogram(name)


def gauge(name: str) -> Gauge:
    """The active registry's gauge ``name`` (no-op when disabled)."""
    registry = _ACTIVE.get()
    if registry is None:
        return _NOOP_GAUGE
    return registry.gauge(name)
