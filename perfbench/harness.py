"""Shared machinery of the benchmark workloads.

Nothing here knows a workload: the checkout bootstrap, summary
statistics, failure accounting, set-up timing, peak memory, and the
reduction of trace spans into per-layer self-times.
"""

from __future__ import annotations

import contextlib
import functools
import os
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

# One numeric-library thread per process, set before numpy loads (every
# entry point imports this module first) and inherited by service
# workers.  The service already runs one worker per core, where a
# second OpenBLAS thread per worker oversubscribes the cores and made
# hi-rate latency swing by half between seeds; the single-process
# workloads measured no gain from it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402 - after the thread pin

from catalog import (  # noqa: E402
    HOST_SCALED_LAYERS,
    PAPER_MIN_INLIERS_BOX,
    PAPER_MIN_INLIERS_BV,
    PER_LAYER,
    RUN_SECONDS,
)

ROOT = Path(__file__).resolve().parent.parent

#: Pose tolerance when comparing against recorded expectations.  The
#: discrete outputs (success, inlier counts) must match exactly; poses
#: may differ in the last bits between CPUs with different SIMD paths.
POSE_TOLERANCE = 1e-6


class BenchError(RuntimeError):
    """The benchmark cannot run here (no checkout, bad arguments)."""


def bootstrap() -> None:
    """Make the checkout's ``src/repro`` importable, and only that copy.

    The benchmark measures the tree it sits in; a ``repro`` imported
    from anywhere else would measure some other version.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {src}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (0 if empty)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def plan(seed: int, seconds: float, pool_size: int, salt: int) -> list[int]:
    """Pool indices a run works through, in the seed's order.

    A run of ``RUN_SECONDS`` takes the whole pool, a shorter one a
    prefix of the same order.
    """
    count = min(pool_size,
                max(1, round(pool_size * seconds / RUN_SECONDS)))
    order = np.random.default_rng([seed, salt]).permutation(pool_size)
    return [int(i) for i in order[:count]]


def supported_percentile(count: int) -> int:
    """The highest of p50/p90/p95/p99 with >= 10 samples beyond it."""
    best = 50
    for q in (90, 95, 99):
        if count * (100 - q) / 100.0 >= 10:
            best = q
    return best


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is KiB on Linux


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Every unit of work, counted once: answered or failed.

    ``refused`` is the subset of ``failed`` refused at admission;
    ``mismatches`` lists outputs that differ from their expectation,
    which fail the run.
    """

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    refused: int = 0
    reasons: Counter = field(default_factory=Counter)
    mismatches: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1
        self.succeeded += 1

    def fail(self, reason: str, *, refused: bool = False,
             attempted: bool = True) -> None:
        """Count a failure; ``attempted=False`` for failures that are
        not units of work themselves (a leaked shm segment)."""
        self.attempted += int(attempted)
        self.failed += 1
        self.refused += int(refused)
        self.reasons[reason] += 1

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)

    @property
    def error_share(self) -> float:
        return share(self.failed, self.attempted)

    def format(self) -> str:
        reasons = ", ".join(f"{name} {count}" for name, count
                            in sorted(self.reasons.items()))
        return (f"attempted {self.attempted}, succeeded {self.succeeded}, "
                f"failed {self.failed} (refused {self.refused})"
                + (f": {reasons}" if reasons else ""))


class SetupClock:
    """Set-up time, measured as several set-ups and reported robustly.

    Inputs are generated in chunks between units of work.  The
    reported set-up time is the sum of the chunks -- every run generates
    the same pool, in its own order, so a chunk median would depend on
    which inputs the seed put together -- plus the median of each
    repeated set-up (starting and warming the service, done several
    times), plus the one-off set-ups (constructing the pipeline), at
    reference host speed (``scaled_seconds``).  Measured set-up time
    follows the host as the timed work does: over ten pair-sweep seeds
    it stayed within 0.052 to 0.059 of the median pair time.
    """

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.chunk_moments: list[float] = []
        self.repeats: dict[str, list[float]] = defaultdict(list)
        self.once = 0.0

    @contextlib.contextmanager
    def chunk(self) -> Iterator[None]:
        begin = time.perf_counter()
        yield
        self.chunks.append(time.perf_counter() - begin)
        self.chunk_moments.append(begin)

    @contextlib.contextmanager
    def one_off(self) -> Iterator[None]:
        begin = time.perf_counter()
        yield
        self.once += time.perf_counter() - begin

    @contextlib.contextmanager
    def repeat(self, name: str) -> Iterator[None]:
        """One of several runs of the same set-up step ``name``; the
        step counts once, at its median."""
        begin = time.perf_counter()
        yield
        self.repeats[name].append(time.perf_counter() - begin)

    @property
    def seconds(self) -> float:
        return sum(self.chunks) + self._rest()

    def scaled_seconds(self, speed: HostSpeed) -> float:
        """Set-up time at reference speed: each input chunk with the
        host's slowdown around it, the rest with the whole run's."""
        return sum(speed.scaled(moment, seconds) for moment, seconds
                   in zip(self.chunk_moments, self.chunks)) \
            + self._rest() / speed.slowdown

    def _rest(self) -> float:
        return sum(statistics.median(times) for times
                   in self.repeats.values()) + self.once

    def format(self) -> str:
        parts = []
        if self.chunks:
            parts.append(f"{len(self.chunks)} input chunks "
                         f"{sum(self.chunks):.3f} s")
        parts += [f"{name} median {statistics.median(times):.3f} s of "
                  f"{len(times)}" for name, times in self.repeats.items()]
        parts.append(f"one-off {self.once:.3f} s")
        return f"setup_s {self.seconds:.3f} s: " + ", ".join(parts)


class HostSpeed:
    """How fast the shared host runs during a run, from a fixed probe.

    On the 2-vCPU host the same code runs up to a quarter slower or
    faster, switching within seconds and drifting over minutes, in CPU
    time as in wall time: a longer run does not average it out.  The
    probe is a fixed numpy kernel (FFT, exponential, sort: the array
    work the pipeline does, without BLAS, whose thread setting is the
    program's), owned by the benchmark and untouched by any change to
    ``src/``.  It is timed in the process that runs the work, between
    units of work, never inside a timed one, and a measured time is
    reported at reference speed, the speed at which the probe takes
    ``PROBE_REFERENCE_S``: divided by the slowdown, the probe's median
    time over its reference time.  A change to the program moves the
    scaled time as it moves the measured one; a slow stretch of the
    host slows the probe and the program together, and cancels.  Work
    in other processes (the service's workers) is not tracked by it.
    """

    #: Probe time at reference speed: about its median on the 2-vCPU
    #: host, so scaled timings read close to measured ones there.
    PROBE_REFERENCE_S = 0.002
    #: Probes whose median gives the slowdown around one moment.
    WINDOW = 15

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # Inputs and outputs allocated once: the probe allocates nothing,
        # so the state the program leaves the heap in does not time it.
        self._image = rng.random((256, 256))
        self._spectrum = np.empty(self._image.shape, complex)
        self._real = np.empty(self._image.shape)
        self._values = rng.random(60_000)
        self._sorted = np.empty(self._values.shape)
        self.moments: list[float] = []
        self.times: list[float] = []

    def _kernel(self) -> None:
        np.fft.fft2(self._image, out=self._spectrum)
        np.abs(self._spectrum, out=self._real)
        np.negative(self._image, out=self._real)
        np.exp(self._real, out=self._real)
        self._sorted[:] = self._values
        self._sorted.sort()

    def probe(self, repeats: int = 1) -> None:
        """Time the kernel ``repeats`` times, after one untimed pass that
        brings its arrays back into cache: what the program ran before
        evicted them, and a probe timed cold would time that too."""
        self._kernel()
        for _ in range(repeats):
            begin = time.perf_counter()
            self._kernel()
            self.moments.append(begin)
            self.times.append(time.perf_counter() - begin)

    @property
    def slowdown(self) -> float:
        """The whole run's slowdown (> 1: a slow host)."""
        return statistics.median(self.times) / self.PROBE_REFERENCE_S

    def slowdown_at(self, moment: float) -> float:
        """The slowdown around ``moment`` (a ``perf_counter`` reading),
        from the ``WINDOW`` probes nearest to it: the host's speed
        drifts within a run too, by as much as between runs."""
        nearest = sorted(range(len(self.moments)),
                         key=lambda i: abs(self.moments[i] - moment))
        return statistics.median(self.times[i] for i in
                                 nearest[:self.WINDOW]) \
            / self.PROBE_REFERENCE_S

    def scaled(self, begin: float, seconds: float) -> float:
        """``seconds`` measured from ``begin``, at reference speed: with
        the slowdown around the middle of the interval, so a long unit
        takes the probes before and after it alike."""
        return seconds / self.slowdown_at(begin + seconds / 2)

    def format(self) -> str:
        return (f"host probe median {1000 * statistics.median(self.times):.3f}"
                f" ms of {len(self.times)} (reference "
                f"{1000 * self.PROBE_REFERENCE_S:.1f} ms, slowdown "
                f"{self.slowdown:.4f})")


def scale_layers(speed: HostSpeed, layers: dict[str, float]
                 ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics with the compute times at reference speed (the
    whole run's slowdown), and the measured values of those."""
    return ({name: value / speed.slowdown if name in HOST_SCALED_LAYERS
             else value for name, value in layers.items()},
            {name: value for name, value in layers.items()
             if name in HOST_SCALED_LAYERS})


def unit_timings(times: list[float]) -> dict[str, float]:
    """Throughput, median and p90 of per-unit times (seconds)."""
    return {"throughput_per_s": share(len(times), sum(times)),
            "latency_ms_p50": 1000.0 * percentile(times, 50),
            "latency_ms_p90": 1000.0 * percentile(times, 90)}


def paper_success(inliers_bv: int, inliers_box: int) -> bool:
    """The paper's success criterion, ``Inliers_bv > 25`` and
    ``Inliers_box > 6`` (``success_share``).  ``BBAlign`` itself runs
    with the repository's simulation-tuned default (``Inliers_bv > 12``)
    and hands out the poses that meet it; the paper's stricter criterion
    is applied to the same inlier counts."""
    from repro.core import SuccessCriteria
    return SuccessCriteria(PAPER_MIN_INLIERS_BV,
                           PAPER_MIN_INLIERS_BOX).is_success(inliers_bv,
                                                             inliers_box)


def same_pose(actual, expected) -> bool:
    """``actual`` (tx, ty, theta) equals ``expected`` within tolerance."""
    return all(abs(a - e) <= POSE_TOLERANCE
               for a, e in zip(actual, expected))


# ----------------------------------------------------------------------
# Trace reduction
# ----------------------------------------------------------------------
@dataclass
class SpanStats:
    """Totals of one span name across a trace (seconds)."""

    count: int = 0
    wall: float = 0.0
    self_time: float = 0.0


def span_stats(events: list[dict], root: str) -> dict[str, SpanStats]:
    """Per span name: how often, total wall time, total self time.

    Names that never ran read as zero.  Only spans in trees whose root
    span is named ``root`` count (input generation records spans of its
    own).  A span's self time is its
    wall time minus the wall time of its direct children, so the self
    times of a tree add up to its root.
    """
    by_id = {e["span_id"]: e for e in events if e.get("type") == "span"}
    roots: dict[str, str | None] = {}

    def root_of(span_id: str) -> str | None:
        if span_id not in roots:
            parent = by_id[span_id].get("parent_id")
            roots[span_id] = (root_of(parent) if parent in by_id
                              else by_id[span_id]["name"])
        return roots[span_id]

    spans = [e for e in by_id.values() if root_of(e["span_id"]) == root]
    children: dict[str, float] = {}
    for event in spans:
        parent = event.get("parent_id")
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + event["wall_s"]
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for event in spans:
        entry = stats[event["name"]]
        entry.count += 1
        entry.wall += event["wall_s"]
        entry.self_time += event["wall_s"] - children.get(
            event["span_id"], 0.0)
    return stats


def per_call_ms(stats: dict[str, SpanStats], name: str,
                per: int | None = None) -> float:
    """Wall ms of span ``name`` per call, or per ``per`` units."""
    entry = stats[name]
    return 1000.0 * share(entry.wall, per if per is not None
                          else entry.count)


def layer_zeros() -> dict[str, float]:
    """Every per-layer metric at 0: the value of a layer that does not
    run on a workload."""
    return {row[0]: 0.0 for row in PER_LAYER}


@dataclass
class Tracing:
    """What a traced run records into: spans plus the stage timer."""

    events: list[dict]
    timer: Callable | None


@contextlib.contextmanager
def tracing(enabled: bool) -> Iterator[Tracing]:
    """Install a span collector, a metrics registry and the pipeline's
    stage timer (``repro.runtime.timings.stage``) when ``enabled``;
    otherwise record nothing and hand out no timer."""
    if not enabled:
        yield Tracing([], None)
        return
    from repro.obs import MetricsRegistry, collect_spans, use_registry
    from repro.runtime import SweepTimings, stage

    registry = MetricsRegistry()
    timer = functools.partial(stage, SweepTimings(registry))
    with collect_spans() as collector, use_registry(registry):
        yield Tracing(collector.events, timer)


def calibrate(units: list, untraced: Callable, traced: Callable) -> float:
    """Trace overhead share: each unit timed untraced and traced,
    alternating which goes first; traced over untraced time, minus one.

    ``traced(unit, timer)`` runs inside a fresh trace whose spans are
    discarded.
    """
    plain: list[float] = []
    spanned: list[float] = []
    for n, unit in enumerate(units):
        for with_trace in ((True, False) if n % 2 else (False, True)):
            with tracing(with_trace) as trace:
                begin = time.perf_counter()
                if with_trace:
                    traced(unit, trace.timer)
                else:
                    untraced(unit)
                elapsed = time.perf_counter() - begin
            (spanned if with_trace else plain).append(elapsed)
    return share(sum(spanned), sum(plain)) - 1.0
