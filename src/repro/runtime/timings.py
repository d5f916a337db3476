"""Per-stage time accounting for experiment sweeps.

The pose-recovery sweep decomposes into six stages (data generation,
detection, BV extraction, stage-1 match, stage-2 align, baseline);
:class:`SweepTimings` accumulates seconds per stage so a run can report
where the time went.  Accumulators merge, which is how the parallel
engine folds per-worker measurements into one report — merged stage
seconds are therefore CPU-seconds, not wall-clock, whenever more than
one worker contributed (``wall_seconds`` keeps the elapsed view).

Since the observability layer landed, ``SweepTimings`` is a thin view
over a :class:`repro.obs.MetricsRegistry` rather than a parallel
bookkeeping system: every ``stage()`` block observes the registry
histogram ``stage/<name>`` (count + total seconds), the counters the
pipeline and engine record during the sweep travel in the same
registry, and the report formats the histogram totals.  The engine's
chunk protocol ships one registry snapshot per chunk; the parent folds
them in with :meth:`SweepTimings.merge_chunk`, which is *keyed by
chunk* — re-delivering a chunk's telemetry (a retried chunk, a serial
fallback after a pool failure) replaces the previous contribution
instead of adding to it, so no stage's seconds can be double-counted.

A sweep picks up the ambient accumulator installed by
:func:`collect_timings`, so callers several layers above the sweep (the
CLI's ``--timings`` flag) can collect without threading an object
through every ``run_*`` signature.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import time
from typing import Iterator, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import active_collector, span as obs_span

__all__ = ["STAGES", "SweepTimings", "stage", "collect_timings",
           "active_timings"]

# Canonical stage order, matching the sweep's per-pair flow.
STAGES: tuple[str, ...] = (
    "data_generation",  # dataset frame-pair generation (world + scans)
    "detection",        # simulated detector draws
    "bv_extract",       # BV image -> MIM -> keypoints -> descriptors
    "stage1_match",     # descriptor matching + RANSAC (T_bv)
    "stage2_align",     # box overlap matching + corner RANSAC (T_box)
    "baseline",         # VIPS graph matching
)

# Registry key prefix for stage-seconds histograms.
_STAGE_PREFIX = "stage/"
# Serializes SweepTimings.add: a stage timer handed to fanned-out work
# (repro.runtime.fanout) records from several threads into one registry.
_ADD_LOCK = threading.Lock()

# A fork waits for the lock, so no child inherits it held.
os.register_at_fork(before=_ADD_LOCK.acquire,
                    after_in_parent=_ADD_LOCK.release,
                    after_in_child=_ADD_LOCK.release)

_PAIRS_KEY = "sweep/pairs"
_CACHE_HITS_KEY = "cache/hits"
_CACHE_MISSES_KEY = "cache/misses"


class _StageSecondsView(Mapping):
    """Live read-only mapping of stage name -> accumulated seconds.

    Backed by the registry's ``stage/*`` histograms; materialize with
    ``dict(timings.seconds)`` for a stable copy.
    """

    __slots__ = ("_registry",)

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    def _names(self) -> list[str]:
        prefix_len = len(_STAGE_PREFIX)
        return [name[prefix_len:] for name in self._registry.histograms
                if name.startswith(_STAGE_PREFIX)]

    def __getitem__(self, name: str) -> float:
        histograms = self._registry.histograms
        key = _STAGE_PREFIX + name
        if key not in histograms:
            raise KeyError(name)
        return histograms[key].total

    def __iter__(self) -> Iterator[str]:
        return iter(self._names())

    def __len__(self) -> int:
        return len(self._names())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(self))


class SweepTimings:
    """Per-stage seconds plus sweep counters, viewed over a registry.

    Attributes:
        registry: the backing :class:`~repro.obs.MetricsRegistry`; stage
            seconds live in its ``stage/<name>`` histograms, pair and
            cache counts in its counters.  Engine/pipeline telemetry
            recorded during the sweep rides along in the same registry.
        seconds: live mapping of accumulated seconds per stage name
            (unknown stage names are accepted, so ad-hoc
            instrumentation merges cleanly).
        pairs: evaluated pair count.
        workers: largest worker count that contributed.
        wall_seconds: elapsed time of the sweep call(s).
        cache_hits / cache_misses: stage-1 feature-cache statistics.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        for name in STAGES:
            self.registry.histogram(_STAGE_PREFIX + name)
        self.workers = 1
        self.wall_seconds = 0.0
        # Chunk-keyed contributions already folded in; the dedupe ledger
        # behind merge_chunk.
        self._chunks: dict[object, dict] = {}

    # ------------------------------------------------------------------
    # Counter-backed attributes (kept as properties so existing call
    # sites — `timings.pairs += n`, `timings.cache_hits += 1` — read
    # and write the registry without knowing it exists).
    # ------------------------------------------------------------------
    @property
    def pairs(self) -> int:
        return self.registry.counter(_PAIRS_KEY).value

    @pairs.setter
    def pairs(self, value: int) -> None:
        self.registry.counter(_PAIRS_KEY).value = int(value)

    @property
    def cache_hits(self) -> int:
        return self.registry.counter(_CACHE_HITS_KEY).value

    @cache_hits.setter
    def cache_hits(self, value: int) -> None:
        self.registry.counter(_CACHE_HITS_KEY).value = int(value)

    @property
    def cache_misses(self) -> int:
        return self.registry.counter(_CACHE_MISSES_KEY).value

    @cache_misses.setter
    def cache_misses(self, value: int) -> None:
        self.registry.counter(_CACHE_MISSES_KEY).value = int(value)

    @property
    def seconds(self) -> _StageSecondsView:
        return _StageSecondsView(self.registry)

    # ------------------------------------------------------------------
    def add(self, stage_name: str, seconds: float,
            count: int = 1) -> None:
        """Accumulate ``seconds`` into one stage bucket (thread-safe)."""
        with _ADD_LOCK:
            histogram = self.registry.histogram(_STAGE_PREFIX + stage_name)
            histogram.count += count
            histogram.total += seconds
            if seconds < histogram.min:
                histogram.min = seconds
            if seconds > histogram.max:
                histogram.max = seconds

    def stage_count(self, stage_name: str) -> int:
        """How many timed entries a stage accumulated (dedupe-exact)."""
        return self.registry.histogram(_STAGE_PREFIX + stage_name).count

    def merge(self, other: "SweepTimings") -> None:
        """Fold another accumulator (e.g. one worker's) into this one.

        Stage seconds, pair counts and cache counters add; ``workers``
        takes the max; ``wall_seconds`` adds only when the other
        accumulator measured its own wall (serial sub-sweeps) — the
        parallel engine leaves worker ``wall_seconds`` at zero and times
        the pool from the parent instead.
        """
        self.registry.merge(other.registry)
        self.workers = max(self.workers, other.workers)
        self.wall_seconds += other.wall_seconds

    def merge_chunk(self, chunk_key: object, snapshot: Mapping) -> int:
        """Fold one chunk's registry snapshot in, exactly once per chunk.

        The parallel engine's retry ladder can produce more than one
        telemetry delivery for the same chunk (pool attempt, retried
        pool attempt, in-process serial fallback).  Merging is keyed by
        ``chunk_key``: a later delivery *replaces* the chunk's previous
        contribution — subtracting it before adding the new one — so
        stage seconds and pair counts are never double-counted no matter
        how many rungs of the ladder a chunk visited.

        Returns the number of deliveries this chunk has now made
        (1 for the common case; >1 means a dedupe actually happened,
        also counted in the ``timings/chunk_remerges`` counter).
        """
        previous = self._chunks.get(chunk_key)
        if previous is not None:
            self.registry.merge_snapshot(previous, sign=-1)
            self.registry.counter("timings/chunk_remerges").inc()
        stored: dict = {
            "counters": dict(snapshot.get("counters", {})),
            "histograms": {name: dict(data) for name, data in
                           snapshot.get("histograms", {}).items()},
            "gauges": {name: dict(data) for name, data in
                       snapshot.get("gauges", {}).items()},
            "deliveries": (previous["deliveries"] if previous else 0) + 1,
        }
        self._chunks[chunk_key] = stored
        self.registry.merge_snapshot(stored)
        return int(stored["deliveries"])

    def to_snapshot(self) -> dict:
        """Picklable form for the engine's chunk protocol."""
        return self.registry.snapshot()

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "SweepTimings":
        timings = cls()
        timings.registry.merge_snapshot(snapshot)
        return timings

    @property
    def stage_seconds_total(self) -> float:
        """Sum over all top-level stages (CPU-seconds under parallel
        execution).  Detail stages — names containing ``/``, such as
        ``bv_extract/mim`` — time slices *inside* a top-level stage and
        are excluded so their seconds are not double-counted.
        """
        return sum(seconds for name, seconds in self.seconds.items()
                   if "/" not in name)

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Render the report the CLI prints under ``--timings``."""
        seconds_by_stage = dict(self.seconds)
        total = self.stage_seconds_total
        lines = [
            f"Sweep timings — {self.pairs} pairs, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''}, "
            f"wall {self.wall_seconds:.2f} s"
            + (f", stage total {total:.2f} s (CPU)"
               if self.workers > 1 else ""),
        ]
        known = [name for name in STAGES if name in seconds_by_stage]
        extra = [name for name in seconds_by_stage
                 if name not in STAGES and "/" not in name]
        orphans = [name for name in seconds_by_stage
                   if "/" in name
                   and name.split("/", 1)[0] not in seconds_by_stage]
        for name in known + extra + orphans:
            seconds = seconds_by_stage[name]
            share = seconds / total if total > 0 else 0.0
            bar = "#" * int(round(share * 30))
            lines.append(f"  {name:>12}  {seconds:8.2f} s  "
                         f"{share * 100:5.1f} %  {bar}")
            # Detail rows: per-kernel slices recorded as "<stage>/<part>".
            for detail in seconds_by_stage:
                if not detail.startswith(name + "/"):
                    continue
                part_seconds = seconds_by_stage[detail]
                part_share = part_seconds / seconds if seconds > 0 else 0.0
                lines.append(
                    f"    {'· ' + detail.split('/', 1)[1]:>12}  "
                    f"{part_seconds:8.2f} s  {part_share * 100:5.1f} % of "
                    f"{name}")
        attempts = self.cache_hits + self.cache_misses
        if attempts:
            lines.append(
                f"  feature cache: {self.cache_hits}/{attempts} hits "
                f"({self.cache_hits / attempts * 100:.0f} %)")
        comms = self._format_comms()
        if comms:
            lines.append(comms)
        return "\n".join(lines)

    def _format_comms(self) -> str | None:
        """One line of per-message byte accounting, when comms ran.

        Sent-side counters come from :func:`repro.comms.accounting.
        record_sent`; the received-size histogram from the pipeline's
        message path.  Absent both, the sweep had no comms traffic and
        the line is omitted.
        """
        counters = self.registry.counters
        sent = counters.get("comms/messages_sent")
        received = self.registry.histograms.get("comms/message_bytes")
        if (sent is None or sent.value == 0) \
                and (received is None or received.count == 0):
            return None
        parts = []
        if sent is not None and sent.value:
            encoded = counters["comms/bytes/encoded"].value
            payload = counters.get("comms/bytes/payload")
            ratio = (f", {payload.value / encoded:.1f}x vs dense"
                     if payload is not None and encoded else "")
            parts.append(f"sent {sent.value} msgs, "
                         f"{encoded / sent.value / 1024:.1f} KiB/msg"
                         f"{ratio}")
        if received is not None and received.count:
            parts.append(f"received {received.count} msgs, "
                         f"{received.total / received.count / 1024:.1f} "
                         f"KiB/msg")
        tiers = sorted(
            (name.split("/")[2], int(counters[name].value))
            for name in counters
            if name.startswith("comms/tier/")
            and name.endswith("/messages"))
        if tiers:
            parts.append("tiers " + " ".join(
                f"{tier}={count}" for tier, count in tiers))
        return "  comms: " + "; ".join(parts)


@contextlib.contextmanager
def stage(timings: SweepTimings | None, stage_name: str) -> Iterator[None]:
    """Time a block into ``timings`` (no-op when ``timings`` is None).

    When a trace collector is active (``--trace``), the block is also
    recorded as a span named after the stage — same clocks, one extra
    event; when neither a collector nor ``timings`` is present the body
    runs untimed, which is the overhead-neutral disabled mode.
    """
    if active_collector() is not None:
        with obs_span(stage_name):
            start = time.perf_counter()
            try:
                yield
            finally:
                if timings is not None:
                    timings.add(stage_name, time.perf_counter() - start)
        return
    if timings is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        timings.add(stage_name, time.perf_counter() - start)


# ----------------------------------------------------------------------
# Ambient collector: lets the CLI (or any caller) harvest timings from
# sweeps running arbitrarily deep in an experiment without every run_*
# function having to forward an accumulator.
# ----------------------------------------------------------------------
_ACTIVE: contextvars.ContextVar[SweepTimings | None] = contextvars.ContextVar(
    "repro_runtime_active_timings", default=None)


def active_timings() -> SweepTimings | None:
    """The ambient accumulator installed by :func:`collect_timings`."""
    return _ACTIVE.get()


@contextlib.contextmanager
def collect_timings() -> Iterator[SweepTimings]:
    """Install a fresh ambient accumulator for the enclosed block.

    Example:
        >>> from repro.runtime import collect_timings
        >>> with collect_timings() as timings:
        ...     pass  # run experiments; sweeps record into `timings`
        >>> timings.pairs
        0
    """
    timings = SweepTimings()
    token = _ACTIVE.set(timings)
    start = time.perf_counter()
    try:
        yield timings
    finally:
        _ACTIVE.reset(token)
        # Only adopt the elapsed view if no sweep recorded its own wall
        # (sweeps accumulate wall_seconds themselves; the context is a
        # superset and would double-count).
        if timings.wall_seconds == 0.0:
            timings.wall_seconds = time.perf_counter() - start
