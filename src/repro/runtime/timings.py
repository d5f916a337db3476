"""Per-stage time accounting: one clock, one sink.

The pose-recovery sweep decomposes into six stages (data generation,
detection, BV extraction, stage-1 match, stage-2 align, baseline).
:func:`stage` times a block: it opens an :func:`repro.obs.span` named
after the stage (recorded when a trace collector is installed) and
observes the block's seconds into the ``stage/<name>`` histogram of the
*ambient* metrics registry — the one :func:`repro.obs.use_registry`
installs, nothing when none is.  Pool chunks, fanned-out threads and
service workers each record into their own ambient registry and ship
it home as a snapshot, so no call threads a timing object by hand.

:class:`SweepTimings` — the CLI's ``--timings`` report — is a read-only
view over a registry: stage seconds from the ``stage/*`` histograms,
pair and cache counts from counters, the widest worker count and the
sweeps' elapsed time from the ``sweep/workers`` and
``sweep/wall_seconds`` histograms.  Merged stage seconds are therefore
CPU-seconds, not wall-clock, whenever more than one worker contributed.
The engine folds chunk snapshots in with :meth:`SweepTimings.\
merge_chunk`, which is *keyed by chunk*: re-delivering a chunk's
telemetry (a retried chunk, a serial fallback after a pool failure)
replaces the previous contribution instead of adding to it, so no
stage's seconds can be double-counted.

:func:`collect_timings` installs a fresh report's registry as the
ambient one, so callers several layers above a sweep (the CLI's
``--timings`` flag) collect without threading an object through every
``run_*`` signature.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, ContextManager, Iterator, Mapping

from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    histogram,
    use_registry,
)
from repro.obs.spans import active_collector, span as obs_span

__all__ = ["STAGES", "StageTimer", "SweepTimings", "ambient_stage",
           "collect_timings", "stage"]

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
# Counters the sweep records where pairs run and cache lookups happen.
PAIRS_KEY = "sweep/pairs"
CACHE_HITS_KEY = "cache/hits"
CACHE_MISSES_KEY = "cache/misses"
# One observation per sweep or parallel map: the max is the widest
# worker count, the total the summed elapsed time.
WORKERS_KEY = "sweep/workers"
WALL_KEY = "sweep/wall_seconds"

#: A stage timer: a factory of context managers keyed by stage name.
#: The pipeline's ``timer=`` arguments take one; ``None`` there means
#: :func:`ambient_stage`.  Stage 1 records per-kernel detail stages
#: (``bv_extract/mim``, ``stage1_match/nn``, ...) that the report nests
#: under their top-level stage.
StageTimer = Callable[[str], ContextManager[None]]


class SweepTimings:
    """Per-stage seconds plus sweep counters, viewed over a registry.

    Attributes:
        registry: the backing :class:`~repro.obs.MetricsRegistry`; stage
            seconds live in its ``stage/<name>`` histograms, pair and
            cache counts in its counters.  Engine/pipeline telemetry
            recorded during the sweep rides along in the same registry.
        seconds: accumulated seconds per stage name (unknown stage
            names are accepted, so ad-hoc instrumentation merges
            cleanly).
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
        # Chunk-keyed contributions already folded in; the dedupe ledger
        # behind merge_chunk.
        self._chunks: dict[object, dict] = {}

    # ------------------------------------------------------------------
    def _count(self, name: str) -> int:
        counter = self.registry.counters.get(name)
        return counter.value if counter is not None else 0

    @property
    def pairs(self) -> int:
        return self._count(PAIRS_KEY)

    @property
    def cache_hits(self) -> int:
        return self._count(CACHE_HITS_KEY)

    @property
    def cache_misses(self) -> int:
        return self._count(CACHE_MISSES_KEY)

    @property
    def workers(self) -> int:
        observed = self.registry.histograms.get(WORKERS_KEY)
        return int(observed.max) if observed is not None \
            and observed.count else 1

    @property
    def wall_seconds(self) -> float:
        observed = self.registry.histograms.get(WALL_KEY)
        return observed.total if observed is not None else 0.0

    @property
    def seconds(self) -> dict[str, float]:
        return {name[len(_STAGE_PREFIX):]: observed.total
                for name, observed in self.registry.histograms.items()
                if name.startswith(_STAGE_PREFIX)}

    def stage_count(self, stage_name: str) -> int:
        """How many timed entries a stage accumulated (dedupe-exact)."""
        return self.registry.histogram(_STAGE_PREFIX + stage_name).count

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
        seconds_by_stage = self.seconds
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
    """Time a block as stage ``stage_name``.

    The block runs inside an :func:`repro.obs.span` of the same name,
    and its seconds go to the ``stage/<stage_name>`` histogram of the
    ambient registry.  With neither a collector nor a registry installed
    the body runs untimed, as cheap as a bare ``yield``: this is the
    untraced hot path.  ``timings`` selects nothing: a report sees the
    block when its registry is the ambient one (:func:`collect_timings`,
    or ``use_registry(timings.registry)``).  The argument stays for
    callers that bind ``stage`` to the report whose registry they
    installed and pass it on as a ``timer=``.
    """
    if active_collector() is None and active_registry() is None:
        yield
        return
    with obs_span(stage_name):
        start = time.perf_counter()
        try:
            yield
        finally:
            histogram(_STAGE_PREFIX + stage_name).observe(
                time.perf_counter() - start)


def ambient_stage(stage_name: str) -> ContextManager[None]:
    """The pipeline's default timer: :func:`stage` with no report."""
    return stage(None, stage_name)


@contextlib.contextmanager
def collect_timings() -> Iterator[SweepTimings]:
    """Collect the enclosed block's telemetry into a fresh report.

    The report's registry becomes the ambient one for the block, so
    every :func:`stage` and counter recorded inside lands in it.

    Example:
        >>> from repro.runtime import collect_timings
        >>> with collect_timings() as timings:
        ...     pass  # run experiments; sweeps record into `timings`
        >>> timings.pairs
        0
    """
    timings = SweepTimings()
    start = time.perf_counter()
    try:
        with use_registry(timings.registry):
            yield timings
    finally:
        # Only adopt the elapsed view if no sweep recorded its own wall
        # (the context is a superset and would double-count).
        if timings.wall_seconds == 0.0:
            timings.registry.histogram(WALL_KEY).observe(
                time.perf_counter() - start)
