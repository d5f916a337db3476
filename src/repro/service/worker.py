"""Worker-side execution units and the outcome→response mapping.

Two batch shapes run on the service's pool:

* **indexed** batches are the engine's one chunk task over the sweep's
  own items: the service builds a :class:`repro.runtime.engine.\
  _ChunkTask` mapping :func:`repro.experiments.common.sweep_pair` over
  ``(SweepSpec, index)`` for the requested pair indices and submits the
  engine's chunk runner.  Same function, same seeds, same per-pair
  error capture as :func:`~repro.experiments.common.run_sweep_parallel`
  — which is what makes a service answer for pair ``i`` byte-identical
  to the sweep's outcome for pair ``i`` (the clean-path parity
  guarantee) and lets :class:`~repro.runtime.faults.WorkerFault`
  injection work unchanged.
* **scan-pair** batches carry the sensing itself (decoded
  :class:`~repro.comms.tiers.TieredMessage` pairs); the worker keeps a
  warm :class:`~repro.core.pipeline.BBAlign` per process and runs the
  pipeline's message path, so any tier the pipeline accepts works over
  the service too.  Two data planes feed this shape: the pickle path
  (messages ride inside the task) and the zero-copy path (the task
  carries a :class:`~repro.runtime.shm.SharedMessages` descriptor and
  the arrays are mapped out of a parent-owned shared segment).

Scan-pair workers also keep a **persistent content-keyed feature
cache** across requests: stage-1 extraction is a pure function of
(scan bytes, extraction configuration), so a BLAKE2 digest of the
payload plus :func:`~repro.runtime.cache.extraction_fingerprint`
identifies the features exactly — two requests carrying the same scan
skip extraction entirely, whatever transport delivered them.  Cache
on/off is response-byte-identical by construction: the cache only
short-circuits a deterministic recomputation, and any failure on the
cached path falls back to the uncached call.

Both batch shapes return the engine's chunk shape ``(key, payload,
telemetry)`` — telemetry is a registry snapshot the parent folds in
chunk-keyed, so a retried batch never double-counts; cache counters
travel as per-batch deltas for the same reason.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.comms.envelope import ServiceRequest, ServiceResponse
from repro.core.config import BBAlignConfig
from repro.obs.metrics import MetricsRegistry, counter, use_registry
from repro.obs.spans import collect_spans
from repro.runtime.cache import FeatureCache, extraction_fingerprint
from repro.runtime.shm import SharedMessages, load_messages
from repro.runtime.timings import PAIRS_KEY, stage
from repro.service.config import ServiceConfig

__all__ = ["ScanPairTask", "build_chunk_task", "configure_worker",
           "response_for", "run_chunk", "run_scan_pairs", "scan_cache"]


def build_chunk_task(indices: tuple[int, ...], config: ServiceConfig,
                     attempt: int = 0, trace_parent: str | None = None):
    """The engine chunk task evaluating ``indices`` for this service."""
    from repro.experiments.common import SweepSpec, sweep_pair
    from repro.runtime.engine import _ChunkTask
    spec = SweepSpec(
        dataset_config=config.dataset_config, config=config.config,
        detector_profile=config.detector_profile,
        include_vips=config.include_vips, vips_config=config.vips_config,
        seed=config.seed, fault=config.fault)
    return _ChunkTask(indices=indices, fn=sweep_pair,
                      items=tuple((spec, index) for index in indices),
                      trace_parent=trace_parent, attempt=attempt)


def run_chunk(task):
    """Alias for the engine's chunk runner (one picklable entry point)."""
    from repro.runtime.engine import _run_chunk
    return _run_chunk(task)


@dataclass(frozen=True)
class ScanPairTask:
    """A batch of scan-pair requests plus the pipeline configuration.

    Only configuration and either decoded messages (pickle path) or a
    :class:`~repro.runtime.shm.SharedMessages` descriptor (zero-copy
    path) cross the process boundary; the worker's :class:`BBAlign`
    (Log-Gabor bank, geometry) and feature cache stay warm across
    batches.

    On the zero-copy path ``requests`` is empty and ``request_ids``
    names the batch; message ``2i``/``2i + 1`` of ``shared`` is request
    ``i``'s ego/other pair.
    """

    requests: tuple[ServiceRequest, ...]
    config: BBAlignConfig | None
    seed: int
    attempt: int = 0
    shared: SharedMessages | None = None
    request_ids: tuple[int, ...] = ()
    use_cache: bool = True
    trace_parent: str | None = None


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


# ----------------------------------------------------------------------
# Persistent per-process feature cache for scan-pair requests.
# ----------------------------------------------------------------------
#: Entry bound far above what any byte budget admits; the byte budget
#: is the real limiter (entries are megabytes each).
_CACHE_MAX_ENTRIES = 1024
_CACHE_MB = 64.0
_SCAN_CACHE: FeatureCache | None = None


def configure_worker(cache_mb: float = 64.0) -> None:
    """Pool initializer: size this worker's scan feature cache.

    Runs in every worker the pool (re)starts — the service passes it as
    the pool initializer so a post-crash replacement worker comes up
    with the same budget, not a default.  ``cache_mb <= 0`` disables
    storage.
    """
    global _CACHE_MB, _SCAN_CACHE
    _CACHE_MB = float(cache_mb)
    if _CACHE_MB > 0:
        _SCAN_CACHE = FeatureCache(
            max_entries=_CACHE_MAX_ENTRIES,
            max_bytes=int(_CACHE_MB * 1024 * 1024))
    else:
        _SCAN_CACHE = FeatureCache(max_entries=0)


def scan_cache() -> FeatureCache:
    """This process's scan feature cache (created on first use)."""
    global _SCAN_CACHE
    if _SCAN_CACHE is None:
        configure_worker(_CACHE_MB)
    return _SCAN_CACHE


def _digest(*arrays: np.ndarray | None) -> str:
    """BLAKE2 content digest over a sequence of (optional) arrays."""
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        if array is None:
            h.update(b"\x00none")
            continue
        array = np.ascontiguousarray(array)
        h.update(str((array.shape, array.dtype.str)).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _features_nbytes(features, _depth: int = 0) -> int:
    """Rough footprint of a feature object: the arrays it references.

    Generic attribute walk (``__slots__`` / ``__dict__``) so feature
    shapes can grow fields without this under-counting to zero; caps
    recursion instead of chasing arbitrary object graphs.
    """
    if isinstance(features, np.ndarray):
        return features.nbytes
    if _depth >= 3 or features is None or isinstance(
            features, (int, float, str, bytes, bool, tuple, list)):
        return 0
    names = getattr(features, "__slots__", None)
    if names is None:
        names = vars(features).keys() if hasattr(features, "__dict__") \
            else ()
    return sum(_features_nbytes(getattr(features, name, None), _depth + 1)
               for name in names)


def _cached_features(cache: FeatureCache, key: tuple, extract):
    features = cache.get(key)
    if features is None:
        with stage(None, "bv_extract"):
            features = extract()
        cache.put(key, features, nbytes=_features_nbytes(features))
    return features


def _recover_scan(aligner, ego, other, rng, use_cache: bool):
    """One request through the pipeline, cache-accelerated when safe.

    The cached path replaces only deterministic extraction work — the
    ego features always (admission guarantees a full-scan ego), the
    other side for the full-scan and BV-image tiers — and funnels into
    the same ``_recover_features`` tail the uncached payload path uses,
    with the same rng, so responses are byte-identical either way.
    Anything unexpected (a cloudless ego message, extraction raising)
    falls through to the plain uncached call, which reproduces the
    uncached behavior exactly because extraction consumes no
    randomness.
    """
    from repro.comms.tiers import Tier, TieredMessage

    if (not use_cache or not isinstance(other, TieredMessage)
            or other.tier is Tier.BOXES_ONLY or ego.cloud is None):
        # BOXES_ONLY never touches ego features; warming the cache for
        # it would be pure overhead.
        return aligner.recover(ego.cloud, other, ego_boxes=ego.boxes,
                               rng=rng)
    cache = scan_cache()
    fp = extraction_fingerprint(aligner.config)
    try:
        ego_features = _cached_features(
            cache, ("cloud", _digest(ego.cloud.points,
                                     ego.cloud.timestamps,
                                     ego.cloud.labels), fp),
            lambda: aligner.extract_features(ego.cloud))
    except Exception:
        return aligner.recover(ego.cloud, other, ego_boxes=ego.boxes,
                               rng=rng)
    other_features = None
    try:
        if other.tier is Tier.FULL_SCAN and other.cloud is not None:
            other_features = _cached_features(
                cache, ("cloud", _digest(other.cloud.points,
                                         other.cloud.timestamps,
                                         other.cloud.labels), fp),
                lambda: aligner.extract_features(other.cloud))
        elif other.tier is Tier.BV_IMAGE and other.bv_image is not None:
            bv = other.bv_image
            other_features = _cached_features(
                cache, ("bv", _digest(bv.image), bv.cell_size,
                        bv.lidar_range, fp),
                lambda: aligner.bv_matcher.extract(bv))
    except Exception:
        other_features = None  # uncached path re-raises inside recover
    if other_features is not None:
        return aligner.recover(ego_features, other_features,
                               ego_boxes=ego.boxes,
                               other_boxes=list(other.boxes),
                               rng=rng)
    return aligner.recover(ego_features, other, ego_boxes=ego.boxes,
                           rng=rng)


def run_scan_pairs(task: ScanPairTask) -> tuple[int, list, dict]:
    """Evaluate a scan-pair batch; engine-chunk-shaped result.

    The pipeline's contract does the heavy lifting: degenerate *data*
    yields a flagged degraded result, never an exception, so every
    request in the batch maps to a response.  RANSAC randomness spawns
    from ``[seed, request_id, 2]`` — per-request deterministic, so a
    retried batch returns identical poses.
    """
    import contextlib

    aligner = _aligner(task.config)
    registry = MetricsRegistry()
    cache = scan_cache()
    cache_before = (cache.hits, cache.misses, cache.evictions)
    close = None
    if task.shared is not None:
        messages, close = load_messages(task.shared)
        pairs = [(request_id, messages[2 * i], messages[2 * i + 1])
                 for i, request_id in enumerate(task.request_ids)]
    else:
        pairs = [(r.request_id, r.ego, r.other) for r in task.requests]
    responses: list[ServiceResponse] = []
    spans: list[dict] = []
    trace_cm = (collect_spans(task.trace_parent)
                if task.trace_parent is not None
                else contextlib.nullcontext())
    with use_registry(registry), trace_cm as collector:
        for request_id, ego, other in pairs:
            with stage(None, "scan_pair"):
                result = _recover_scan(
                    aligner, ego, other,
                    np.random.default_rng([task.seed, request_id, 2]),
                    task.use_cache)
            counter(PAIRS_KEY).inc()
            responses.append(ServiceResponse(
                request_id=request_id, status="ok",
                success=result.success,
                failure_reason=(result.failure_reason.value
                                if result.failure_reason is not None
                                else None),
                degradation=result.degradation.value,
                inliers_bv=result.inliers_bv,
                inliers_box=result.inliers_box,
                tx=result.transform.tx, ty=result.transform.ty,
                theta=result.transform.theta))
        if collector is not None:
            spans = collector.events
    registry.counter("service/worker_cache/hits").inc(
        cache.hits - cache_before[0])
    registry.counter("service/worker_cache/misses").inc(
        cache.misses - cache_before[1])
    registry.counter("service/worker_cache/evictions").inc(
        cache.evictions - cache_before[2])
    first = pairs[0][0] if pairs else 0
    if close is not None:
        # Views over the mapped segment die with the batch; the cache
        # never retains one (BV/keypoint arrays are copied on load).
        messages = pairs = ego = other = None  # noqa: F841
        close()
    return first, responses, {"snapshot": registry.snapshot(),
                              "spans": spans}


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
