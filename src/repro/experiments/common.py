"""Shared experiment machinery: the per-pair pose-recovery sweep.

Most of the paper's figures are views over the same underlying sweep:
run BB-Align (and the VIPS baseline) on every dataset pair, record
errors, inlier counts and metadata, then bucket/summarize.  This module
runs that sweep once and hands the figure modules plain records.

The per-pair unit is :func:`evaluate_pair` — a pure function of
(record, configuration, seed) shared verbatim by the in-process serial
path and the pooled sweep, which is why a ``workers=4`` sweep returns
outcomes identical to ``workers=1``.  The pooled sweep
(:func:`run_sweep_parallel`) is one :func:`repro.runtime.engine.\
run_tasks_parallel` map of :func:`sweep_pair` over ``(SweepSpec,
index)`` items; the per-process dataset/aligner/detector state its
workers reuse lives here too, so the engine knows nothing of pairs.  All
randomness derives from SeedSequence-style spawn keys
``[seed, index, stream]``; base seeds never combine arithmetically with
indices, so adjacent seeds cannot alias onto each other's streams.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.baselines.vips import VipsConfig, vips_graph_matching
from repro.comms.tiers import Tier, TieredMessage, build_message
from repro.core.config import BBAlignConfig
from repro.core.degradation import FailureReason
from repro.core.pipeline import BBAlign
from repro.detection.simulated import (
    COBEVT_PROFILE,
    Detection,
    DetectorProfile,
    SimulatedDetector,
)
from repro.metrics.pose_error import PoseErrors, pose_errors
from repro.obs.metrics import counter, histogram, use_registry
from repro.obs.spans import span
from repro.runtime.cache import (
    FeatureCache,
    extraction_fingerprint,
    get_default_cache,
    scan_key,
)
from repro.runtime.engine import resolve_workers, run_tasks_parallel
from repro.runtime.faults import WorkerFault
from repro.runtime.retry import RetryPolicy
from repro.runtime.timings import (
    CACHE_HITS_KEY,
    CACHE_MISSES_KEY,
    PAIRS_KEY,
    WALL_KEY,
    SweepTimings,
    stage,
)
from repro.simulation.dataset import DatasetConfig, FrameRecord, V2VDatasetSim
from repro.simulation.scenario import FramePair

__all__ = ["PairOutcome", "PairErrorOutcome", "SweepSpec",
           "run_pose_recovery_sweep", "run_sweep_parallel", "sweep_pair",
           "default_dataset", "detect_for_pair", "evaluate_pair",
           "scan_pair_messages"]


@dataclass(frozen=True)
class PairOutcome:
    """Everything the figure modules need about one evaluated pair.

    Attributes:
        index: dataset index.
        distance: inter-vehicle distance (meters).
        num_common: commonly observed vehicles (ground-truth count).
        scenario_kind: world flavor string.
        success: BB-Align's success criterion verdict.
        errors: full-pipeline pose errors.
        stage1_errors: errors of the stage-1 estimate alone (the
            ablation / Fig. 11 view).
        inliers_bv / inliers_box: the two confidence counts.
        num_matches: stage-1 descriptor matches.
        num_matched_boxes: stage-2 overlapped box pairs.
        message_bytes: BB-Align transmission cost for this pair.
        raw_cloud_bytes: cost of shipping the raw other-car scan instead.
        vips_success: the graph-matching baseline found a pose.
        vips_errors: baseline errors (None when it failed).
        tx / ty / theta: the recovered planar pose itself (what the
            pose service ships back over the wire; the figure modules
            only consume the derived errors above).
        degradation: which fallback-ladder rung produced the pose
            (:class:`~repro.core.degradation.DegradationLevel` value).
        failure_reason: taxonomy tag when the success criterion was
            missed; ``None`` exactly when ``success`` is ``True``.
    """

    index: int
    distance: float
    num_common: int
    scenario_kind: str
    success: bool
    errors: PoseErrors
    stage1_errors: PoseErrors
    inliers_bv: int
    inliers_box: int
    num_matches: int
    num_matched_boxes: int
    message_bytes: int
    raw_cloud_bytes: int
    vips_success: bool
    vips_errors: PoseErrors | None
    tx: float = 0.0
    ty: float = 0.0
    theta: float = 0.0
    degradation: str = "full"
    failure_reason: str | None = None


@dataclass(frozen=True)
class PairErrorOutcome:
    """An error record for a pair whose evaluation itself crashed.

    The sweep never aborts on a single pathological pair: the exception
    is captured (in the pool worker or the serial loop) and the pair
    contributes this record instead of a :class:`PairOutcome`.  It
    mirrors the fields robustness analyses filter on (``index``,
    ``success``, ``failure_reason``) so mixed outcome lists stay easy to
    partition: ``[o for o in outcomes if isinstance(o, PairOutcome)]``.

    Attributes:
        index: dataset index of the failed pair.
        error_type: exception class name (e.g. ``"InjectedFault"``).
        message: stringified exception.
        failure_reason: taxonomy tag; always
            ``FailureReason.EVALUATION_ERROR`` for crashed evaluations.
        success: always ``False``.
    """

    index: int
    error_type: str
    message: str
    failure_reason: str = FailureReason.EVALUATION_ERROR.value
    success: bool = False

    @classmethod
    def from_exception(cls, index: int,
                       error: BaseException) -> "PairErrorOutcome":
        return cls(index=index, error_type=type(error).__name__,
                   message=str(error))


def default_dataset(num_pairs: int, seed: int = 2024) -> V2VDatasetSim:
    """The standard evaluation dataset used across figure modules."""
    return V2VDatasetSim(DatasetConfig(num_pairs=num_pairs, seed=seed))


def detect_for_pair(pair: FramePair, detector: SimulatedDetector,
                    seed: int, index: int = 0,
                    ) -> tuple[list[Detection], list[Detection]]:
    """Run the simulated detector on both vehicles of a pair.

    Detector draws use spawn keys ``[seed, index, stream]`` (stream 0 =
    ego, 1 = other).  The keys keep sweeps with adjacent base seeds
    statistically independent — the old ``seed + index`` folding made
    pair ``i`` of seed ``s`` reuse the stream of pair ``i - 1`` of seed
    ``s + 1``.
    """
    ego = detector.detect(pair.ego_visible,
                          np.random.default_rng([seed, index, 0]))
    other = detector.detect(pair.other_visible,
                            np.random.default_rng([seed, index, 1]))
    return ego, other


def scan_pair_messages(count: int, data_seed: int = 2024,
                       ) -> list[tuple[TieredMessage, TieredMessage]]:
    """The (ego, other) full-scan messages of the first ``count`` pairs
    of the dataset ``data_seed``: the payload a vehicle would ship to
    the pose service.

    Each message carries its vehicle's scan and the CoBEVT detector
    boxes the default sweep (base seed 7) draws for that pair
    (:func:`detect_for_pair`), so a service of seed 7 answering pair
    ``i`` as request ``i`` recovers with the sweep's boxes and RANSAC
    stream.
    """
    dataset = default_dataset(max(count, 1), data_seed)
    detector = SimulatedDetector(COBEVT_PROFILE)
    messages = []
    for index in range(count):
        pair = dataset[index].pair
        ego_dets, other_dets = detect_for_pair(pair, detector, 7, index)
        messages.append((
            build_message(Tier.FULL_SCAN, [d.box for d in ego_dets],
                          cloud=pair.ego_cloud),
            build_message(Tier.FULL_SCAN, [d.box for d in other_dets],
                          cloud=pair.other_cloud)))
    return messages


def _features_for(aligner: BBAlign, cloud, cache: FeatureCache | None):
    """Stage-1 features for one scan, via the cache when given."""
    key = None
    if cache is not None:
        key = scan_key(cloud, extraction_fingerprint(aligner.config))
        features = cache.get(key)
        if features is not None:
            counter(CACHE_HITS_KEY).inc()
            return features
        counter(CACHE_MISSES_KEY).inc()
    with stage(None, "bv_extract"):
        features = aligner.extract_features(cloud)
    if key is not None:
        cache.put(key, features)
    return features


def evaluate_pair(record, aligner: BBAlign, detector: SimulatedDetector,
                  *,
                  seed: int = 7,
                  include_vips: bool = True,
                  vips_config: VipsConfig | None = None,
                  cache: FeatureCache | None = None) -> PairOutcome:
    """Evaluate one dataset record into a :class:`PairOutcome`.

    Pure up to the supplied collaborators: given the same record,
    configuration and seed, the outcome is identical no matter which
    process (or worker) runs it.  This is the unit the parallel engine
    ships to pool workers and the serial sweep runs in-process.  Stage
    seconds and cache counts go to the ambient metrics registry.

    Args:
        record: a :class:`~repro.simulation.dataset.FrameRecord`.
        aligner / detector: constructed collaborators (reused across a
            sweep; both are stateless between calls).
        seed: sweep base seed; all randomness spawns from
            ``[seed, record.index, stream]``.
        include_vips / vips_config: also run the graph-matching baseline.
        cache: stage-1 feature cache (``None``: extraction runs cold).
    """
    pair = record.pair
    with stage(None, "detection"):
        ego_dets, other_dets = detect_for_pair(pair, detector, seed,
                                               record.index)
    ego_features = _features_for(aligner, pair.ego_cloud, cache)
    other_features = _features_for(aligner, pair.other_cloud, cache)
    result = aligner.recover(
        ego_features, other_features,
        [d.box for d in ego_dets], [d.box for d in other_dets],
        rng=np.random.default_rng([seed, record.index, 2]))

    gt = pair.gt_relative
    full_errors = pose_errors(result.transform, gt)
    stage1_errors = pose_errors(result.stage1.transform, gt)

    vips_success = False
    vips_err: PoseErrors | None = None
    if include_vips:
        with stage(None, "baseline"):
            other_centers = np.array([[d.box.center_x, d.box.center_y]
                                      for d in other_dets]).reshape(-1, 2)
            ego_centers = np.array([[d.box.center_x, d.box.center_y]
                                    for d in ego_dets]).reshape(-1, 2)
            vips = vips_graph_matching(other_centers, ego_centers,
                                       vips_config)
            vips_success = vips.success
            if vips.success:
                vips_err = pose_errors(vips.transform, gt)

    return PairOutcome(
        index=record.index,
        distance=pair.distance,
        num_common=pair.num_common_vehicles,
        scenario_kind=str(pair.scenario_kind.value),
        success=result.success,
        errors=full_errors,
        stage1_errors=stage1_errors,
        inliers_bv=result.inliers_bv,
        inliers_box=result.inliers_box,
        num_matches=result.stage1.num_matches,
        num_matched_boxes=result.stage2.num_matched_boxes,
        message_bytes=result.message_bytes,
        raw_cloud_bytes=BBAlign.raw_cloud_bytes(pair.other_cloud),
        vips_success=vips_success,
        vips_errors=vips_err,
        tx=result.transform.tx,
        ty=result.transform.ty,
        theta=result.transform.theta,
        degradation=result.degradation.value,
        failure_reason=(result.failure_reason.value
                        if result.failure_reason is not None else None),
    )


def _resolve_cache(cache) -> FeatureCache | None:
    """Map the user-facing ``cache`` argument to a FeatureCache or None.

    ``None`` selects the process-default cache; ``False`` disables
    caching; a :class:`FeatureCache` instance is used as given.
    """
    if cache is None:
        return get_default_cache()
    if cache is False:
        return None
    return cache


def run_pose_recovery_sweep(
        dataset: V2VDatasetSim,
        config: BBAlignConfig | None = None,
        detector_profile: DetectorProfile = COBEVT_PROFILE,
        include_vips: bool = True,
        vips_config: VipsConfig | None = None,
        seed: int = 7,
        *,
        workers: int = 1,
        cache: FeatureCache | bool | None = None,
        timings: SweepTimings | None = None) -> list[PairOutcome]:
    """Evaluate BB-Align (and optionally VIPS) over a whole dataset.

    Args:
        dataset: the frame-pair dataset, or any sized, indexable
            sequence of its records (a list evaluates several
            configurations on one generated set).
        config: BB-Align configuration (defaults).
        detector_profile: single-car detector model feeding stage 2 (and
            the VIPS object graphs).
        include_vips: also run the graph-matching baseline.
        vips_config: baseline parameters.
        seed: base randomness for detector draws and RANSAC.
        workers: processes to shard the sweep over; ``1`` (default) runs
            in-process, ``0``/``None`` selects the host CPU count.
            Results are identical for every worker count; a pool that
            cannot start degrades to in-process chunks with a
            ``RuntimeWarning``.
        cache: stage-1 feature cache — ``None`` for the process default,
            ``False`` to disable, or an explicit
            :class:`~repro.runtime.cache.FeatureCache`.  Parallel
            workers always use their own per-process default caches.
        timings: report to record into; ``None`` (default) records into
            the ambient registry, such as the one
            :func:`repro.runtime.timings.collect_timings` installs.

    Returns:
        One :class:`PairOutcome` per dataset pair, in index order.  A
        pair whose evaluation raised contributes a
        :class:`PairErrorOutcome` instead — a sweep never aborts on a
        single pathological pair.
    """
    n_workers = resolve_workers(workers)
    if n_workers > 1 and isinstance(dataset, V2VDatasetSim) \
            and len(dataset) > 1:
        return run_sweep_parallel(
            dataset.config, num_pairs=len(dataset), config=config,
            detector_profile=detector_profile,
            include_vips=include_vips, vips_config=vips_config,
            seed=seed, workers=n_workers, timings=timings)
    with (use_registry(timings.registry) if timings is not None
          else contextlib.nullcontext()):
        return _run_sweep_serial(dataset, config, detector_profile,
                                 include_vips, vips_config, seed,
                                 _resolve_cache(cache))


def run_sweep_pair(index: int, load_record: Callable[[int], FrameRecord],
                   aligner: BBAlign, detector: SimulatedDetector, *,
                   seed: int, include_vips: bool,
                   vips_config: VipsConfig | None,
                   cache: FeatureCache | None,
                   fault: WorkerFault | None = None,
                   ) -> PairOutcome | PairErrorOutcome:
    """One pair of a sweep, the loop body of the serial path and of the
    pool workers' chunks alike.

    ``load_record(index)`` produces the pair's record inside its
    ``engine/pair`` span (timed as ``data_generation``); an injected
    ``fault`` may fire first.  Any
    exception becomes a :class:`PairErrorOutcome` and increments the
    ambient ``engine/pair_errors`` counter, so a sweep never aborts on
    a single pathological pair.
    """
    try:
        if fault is not None:
            fault.maybe_fire(index)
        with span("engine/pair", index=index):
            with stage(None, "data_generation"):
                record = load_record(index)
            return evaluate_pair(
                record, aligner, detector, seed=seed,
                include_vips=include_vips, vips_config=vips_config,
                cache=cache)
    except Exception as error:
        counter("engine/pair_errors").inc()
        return PairErrorOutcome.from_exception(index, error)


def _run_sweep_serial(dataset, config, detector_profile, include_vips,
                      vips_config, seed, cache,
                      ) -> list[PairOutcome | PairErrorOutcome]:
    """The in-process path: the pool workers' per-pair loop, no pool.
    Telemetry goes to the ambient registry."""
    start = time.perf_counter()
    aligner = BBAlign(config)
    detector = SimulatedDetector(detector_profile)
    with span("engine/sweep", mode="serial", pairs=len(dataset)):
        outcomes = [run_sweep_pair(
            index, dataset.__getitem__, aligner, detector, seed=seed,
            include_vips=include_vips, vips_config=vips_config,
            cache=cache) for index in range(len(dataset))]
    counter(PAIRS_KEY).inc(len(outcomes))
    histogram(WALL_KEY).observe(time.perf_counter() - start)
    return outcomes


# ----------------------------------------------------------------------
# The pooled sweep: one engine map of `sweep_pair` over (spec, index).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """Everything a pool worker needs to evaluate any pair of a sweep.

    Only configuration travels to the worker — frame pairs regenerate
    there from ``(dataset_config, index)``, so no point clouds cross the
    process boundary.
    """

    dataset_config: DatasetConfig
    config: BBAlignConfig | None
    detector_profile: DetectorProfile
    include_vips: bool
    vips_config: VipsConfig | None
    seed: int
    fault: WorkerFault | None

    def state_key(self) -> tuple:
        return (repr(self.dataset_config), repr(self.config),
                repr(self.detector_profile))


# Per-process sweep state: each pool worker (and the parent, for
# in-process chunks) keeps its dataset, aligner and detector across the
# chunks and sweeps it is handed, rebuilding only when the spec's
# configuration changes: the whole dataset config, length included, so a
# state built for a shorter dataset never serves a longer one.
_SWEEP_STATE_KEY: tuple | None = None
_SWEEP_STATE: tuple | None = None


def _sweep_state(spec: SweepSpec) -> tuple:
    global _SWEEP_STATE_KEY, _SWEEP_STATE
    key = spec.state_key()
    if _SWEEP_STATE is None or key != _SWEEP_STATE_KEY:
        _SWEEP_STATE = (V2VDatasetSim(spec.dataset_config),
                        BBAlign(spec.config),
                        SimulatedDetector(spec.detector_profile))
        _SWEEP_STATE_KEY = key
    return _SWEEP_STATE


def sweep_pair(item: tuple[SweepSpec, int],
               ) -> PairOutcome | PairErrorOutcome:
    """Evaluate pair ``index`` of the sweep ``spec``; never raises.

    The engine's chunk runner calls this with ``item = (spec, index)``
    and a chunk-local registry installed as the ambient one, so stage
    seconds and the pair count travel home with the chunk.  A
    failure to build the per-process state is captured like any other
    pair error, so every slot of a sweep is a :class:`PairOutcome` or a
    :class:`PairErrorOutcome`.
    """
    spec, index = item
    counter(PAIRS_KEY).inc()
    try:
        dataset, aligner, detector = _sweep_state(spec)
    except Exception as error:
        counter("engine/pair_errors").inc()
        return PairErrorOutcome.from_exception(index, error)
    return run_sweep_pair(
        index, dataset.__getitem__, aligner, detector, seed=spec.seed,
        include_vips=spec.include_vips, vips_config=spec.vips_config,
        cache=get_default_cache(), fault=spec.fault)


def run_sweep_parallel(
        dataset_config: DatasetConfig,
        *,
        num_pairs: int,
        config: BBAlignConfig | None = None,
        detector_profile: DetectorProfile = COBEVT_PROFILE,
        include_vips: bool = True,
        vips_config: VipsConfig | None = None,
        seed: int = 7,
        workers: int | None = None,
        chunk_size: int | None = None,
        timings: SweepTimings | None = None,
        chunk_timeout: float | None = None,
        fault: WorkerFault | None = None,
        retry: RetryPolicy | None = None,
        ) -> list[PairOutcome | PairErrorOutcome]:
    """Run the pose-recovery sweep on a process pool.

    Returns the same outcome list (same ordering, same values) the
    serial sweep produces: one ``PairOutcome`` per pair, or a
    ``PairErrorOutcome`` for a pair whose evaluation failed.  This is
    one :func:`~repro.runtime.engine.run_tasks_parallel` map of
    :func:`sweep_pair`, so chunking, the retry ladder (``retry``,
    ``chunk_timeout``), the in-process fallback, telemetry merging into
    ``timings`` (or the ambient registry) and span re-emission are
    the engine's.  ``fault`` injects a
    :class:`~repro.runtime.faults.WorkerFault` for robustness testing.
    """
    spec = SweepSpec(dataset_config, config, detector_profile,
                     include_vips, vips_config, seed, fault)
    return run_tasks_parallel(
        sweep_pair, [(spec, index) for index in range(num_pairs)],
        workers=workers, chunk_size=chunk_size, chunk_timeout=chunk_timeout,
        retry=retry, seed=seed, timings=timings)
