"""Worker-side execution units and the outcome→response mapping.

Three task shapes run on the service's pool:

* **indexed** requests are the engine's one chunk task over the sweep's
  own items: the service builds a :class:`repro.runtime.engine.\
  _ChunkTask` mapping :func:`repro.experiments.common.sweep_pair` over
  the one ``(SweepSpec, index)`` item of the requested pair and submits
  the engine's chunk runner.  Same function, same seeds, same per-pair
  error capture as :func:`~repro.experiments.common.run_sweep_parallel`
  — which is what makes a service answer for pair ``i`` byte-identical
  to the sweep's outcome for pair ``i`` (the clean-path parity
  guarantee) and lets :class:`~repro.runtime.faults.WorkerFault`
  injection work unchanged.
* **extraction** tasks (:class:`ExtractTask`) run stage 1 on one scan —
  a full-scan cloud or a received BV image — and return its
  :class:`~repro.core.bv_matching.BVFeatures` to the parent, which
  keeps the service's one feature cache.  A scan shared by several
  requests is extracted once.
* **match** tasks (:class:`MatchTask`) run ``BBAlign.recover`` for one
  scan-pair request on the extracted features (or, for tiers that carry
  no scan to extract, on the message itself) with the request's
  ``[seed, request_id, 2]`` stream, and return its response.

Scan payloads reach the worker through one of two data planes: the
pickle path (the scan or features ride inside the task) or the
zero-copy path (the task carries a
:class:`~repro.runtime.shm.SharedObjects` descriptor and the arrays
are mapped, read-only, out of a parent-owned segment).

Every task returns the engine's chunk shape ``(key, payload,
telemetry)`` — telemetry is a registry snapshot the parent folds in
task-keyed, so a retried task never double-counts.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.bev.projection import BVImage
from repro.comms.envelope import ServiceResponse
from repro.core.config import BBAlignConfig
from repro.obs.metrics import MetricsRegistry, counter, use_registry
from repro.obs.spans import collect_spans
from repro.pointcloud.cloud import PointCloud
from repro.runtime.shm import (
    SharedObjects,
    ShmBlockRef,
    load_objects,
    pack_objects,
)
from repro.runtime.timings import PAIRS_KEY, stage
from repro.service.config import ServiceConfig

__all__ = ["ExtractTask", "ExtractionFailed", "MatchTask",
           "build_chunk_task", "configure_worker", "response_for",
           "run_chunk", "run_extract", "run_match"]


def build_chunk_task(index: int, config: ServiceConfig,
                     attempt: int = 0, trace_parent: str | None = None):
    """The engine chunk task evaluating pair ``index`` for this
    service."""
    from repro.experiments.common import SweepSpec, sweep_pair
    from repro.runtime.engine import _ChunkTask
    spec = SweepSpec(
        dataset_config=config.dataset_config, config=config.config,
        detector_profile=config.detector_profile,
        include_vips=config.include_vips, vips_config=config.vips_config,
        seed=config.seed, fault=config.fault)
    return _ChunkTask(indices=(index,), fn=sweep_pair,
                      items=((spec, index),),
                      trace_parent=trace_parent, attempt=attempt)


def run_chunk(task):
    """Alias for the engine's chunk runner (one picklable entry point)."""
    from repro.runtime.engine import _run_chunk
    return _run_chunk(task)


# Per-process warm pipeline, rebuilt only when the config changes.
_ALIGNER = None
_ALIGNER_KEY: str | None = None


def _aligner(config: BBAlignConfig | None):
    global _ALIGNER, _ALIGNER_KEY
    key = repr(config)
    if _ALIGNER is None or key != _ALIGNER_KEY:
        from repro.core.pipeline import BBAlign
        _ALIGNER = BBAlign(config)
        _ALIGNER_KEY = key
    return _ALIGNER


def configure_worker(config: BBAlignConfig | None = None) -> None:
    """Pool initializer: build this worker's warm pipeline.

    Runs in every worker the pool (re)starts, so a fresh or post-crash
    replacement worker builds its :class:`~repro.core.pipeline.BBAlign`
    and Log-Gabor bank before its first task rather than inside it.
    The warm-up extracts one blank BV image of the configured size.  A
    raising initializer would break the whole pool, so a failed warm-up
    only warns: a pipeline that cannot extract fails its own tasks, with
    the typed response they carry.
    """
    matcher = _aligner(config).bv_matcher
    try:
        matcher.extract(matcher.make_bv_image(PointCloud(np.empty((0, 3)))))
    except Exception as error:
        warnings.warn(f"service worker warm-up failed: {error!r}",
                      RuntimeWarning, stacklevel=1)


@contextlib.contextmanager
def _recorded(trace_parent: str | None) -> Iterator[dict]:
    """Record a task body into a task-local registry (and span
    collector when traced) as one ``scan_pair`` stage; the yielded dict
    becomes the task's telemetry on exit."""
    telemetry: dict = {}
    registry = MetricsRegistry()
    trace_cm = (collect_spans(trace_parent) if trace_parent is not None
                else contextlib.nullcontext())
    with use_registry(registry), trace_cm as collector:
        with stage(None, "scan_pair"):
            yield telemetry
    telemetry["snapshot"] = registry.snapshot()
    telemetry["spans"] = collector.events if collector is not None else []


@dataclass(frozen=True)
class ExtractionFailed:
    """An extraction task's payload when stage 1 raised in the worker."""

    error: str


@dataclass(frozen=True)
class ExtractTask:
    """Stage-1 extraction of one scan.

    ``scan`` is the scan itself — a full-scan cloud or a BV image, not
    the message that carried it — inline (pickle path) or as a shared
    segment holding it.  With ``out``, a segment the parent reserved,
    the features go back through it instead of the pipe.
    """

    config: BBAlignConfig | None
    scan: PointCloud | BVImage | SharedObjects
    out: ShmBlockRef | None = None
    trace_parent: str | None = None


def run_extract(task: ExtractTask) -> tuple[int, object, dict]:
    """Extract one scan's features; engine-chunk-shaped result.

    The payload is the :class:`BVFeatures` — as a
    :class:`~repro.runtime.shm.SharedObjects` descriptor of ``out`` when
    they fit there — or :class:`ExtractionFailed` when extraction
    raised, the condition under which ``BBAlign.recover`` answers
    ``extraction-error``.
    """
    aligner = _aligner(task.config)
    closers: list = []
    try:
        scan = _mapped(task.scan, closers)
        with _recorded(task.trace_parent) as telemetry:
            try:
                with stage(None, "bv_extract"):
                    features = (aligner.bv_matcher.extract(scan)
                                if isinstance(scan, BVImage)
                                else aligner.extract_features(scan))
            except Exception as error:
                return 0, ExtractionFailed(repr(error)), telemetry
        # Packed while the scan is mapped: a BV-image scan's features
        # alias its image.
        if task.out is not None:
            features = pack_objects(task.out, features) or features
    finally:
        scan = None
        for close in closers:
            close()
    return 0, features, telemetry


def _mapped(value, closers: list):
    """``value``, or the objects it describes when it is a
    :class:`SharedObjects` descriptor — mapped, with the mapping's
    closer appended to ``closers``."""
    if isinstance(value, SharedObjects):
        value, close = load_objects(value)
        closers.append(close)
    return value


@dataclass(frozen=True)
class MatchTask:
    """Both stages of one scan-pair request.

    ``args`` is ``(ego, other, ego_boxes, other_boxes)`` — the
    arguments ``BBAlign.recover`` takes — inline, or as a shared
    segment holding that tuple.  Extracted features inside it may
    themselves be descriptors of the segments the extraction tasks
    wrote them into.
    """

    config: BBAlignConfig | None
    seed: int
    request_id: int
    args: tuple | SharedObjects
    trace_parent: str | None = None


def run_match(task: MatchTask) -> tuple[int, ServiceResponse, dict]:
    """Recover one request's pose; engine-chunk-shaped result.

    The pipeline's contract does the heavy lifting: degenerate *data*
    yields a flagged degraded result, never an exception.  The
    aligner's last-good memory is cleared first, so a response never
    depends on which requests this worker answered before: it equals
    ``BBAlign.recover`` on a fresh aligner.  RANSAC randomness spawns
    from ``[seed, request_id, 2]``, so a retried task returns the same
    pose.
    """
    aligner = _aligner(task.config)
    closers: list = []
    try:
        ego, other, ego_boxes, other_boxes = _mapped(task.args, closers)
        ego, other = _mapped(ego, closers), _mapped(other, closers)
        with _recorded(task.trace_parent) as telemetry:
            aligner.reset_temporal()
            result = aligner.recover(
                ego, other, ego_boxes=ego_boxes, other_boxes=other_boxes,
                rng=np.random.default_rng([task.seed, task.request_id, 2]))
            counter(PAIRS_KEY).inc()
        response = ServiceResponse(
            request_id=task.request_id, status="ok",
            success=result.success,
            failure_reason=(result.failure_reason.value
                            if result.failure_reason is not None
                            else None),
            degradation=result.degradation.value,
            inliers_bv=result.inliers_bv,
            inliers_box=result.inliers_box,
            tx=result.transform.tx, ty=result.transform.ty,
            theta=result.transform.theta)
    finally:
        # Views over mapped segments die with the task.
        ego = other = ego_boxes = other_boxes = result = None  # noqa: F841
        for close in closers:
            close()
    return task.request_id, response, telemetry


def response_for(outcome, request_id: int) -> ServiceResponse:
    """Map a sweep outcome (``PairOutcome`` or ``PairErrorOutcome``)
    onto the wire response for ``request_id``.

    An evaluation that crashed inside the worker (the engine's per-pair
    capture) still produces a response — identity pose, ``success``
    false, the error's taxonomy tag — because a captured error is a
    degraded data point, not a service failure.
    """
    degradation = getattr(outcome, "degradation", None)
    return ServiceResponse(
        request_id=request_id, status="ok",
        success=bool(outcome.success),
        failure_reason=getattr(outcome, "failure_reason", None),
        degradation=degradation,
        inliers_bv=int(getattr(outcome, "inliers_bv", 0)),
        inliers_box=int(getattr(outcome, "inliers_box", 0)),
        tx=float(getattr(outcome, "tx", 0.0)),
        ty=float(getattr(outcome, "ty", 0.0)),
        theta=float(getattr(outcome, "theta", 0.0)))
