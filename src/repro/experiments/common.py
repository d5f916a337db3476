"""Shared experiment machinery: the per-pair pose-recovery sweep.

Most of the paper's figures are views over the same underlying sweep:
run BB-Align (and the VIPS baseline) on every dataset pair, record
errors, inlier counts and metadata, then bucket/summarize.  This module
runs that sweep once and hands the figure modules plain records.

The per-pair unit is :func:`evaluate_pair` — a pure function of
(record, configuration, seed) shared verbatim by the in-process serial
path and the :mod:`repro.runtime.engine` process pool, which is why a
``workers=4`` sweep returns outcomes identical to ``workers=1``.  All
randomness derives from SeedSequence-style spawn keys
``[seed, index, stream]``; base seeds never combine arithmetically with
indices, so adjacent seeds cannot alias onto each other's streams.
"""

from __future__ import annotations

import contextlib
import functools
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.baselines.vips import VipsConfig, vips_graph_matching
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
from repro.obs.metrics import counter, use_registry
from repro.obs.spans import span
from repro.runtime.cache import (
    FeatureCache,
    dataset_fingerprint,
    extraction_fingerprint,
    feature_key,
    get_default_cache,
)
from repro.runtime.faults import WorkerFault
from repro.runtime.timings import SweepTimings, active_timings, stage
from repro.simulation.dataset import DatasetConfig, FrameRecord, V2VDatasetSim
from repro.simulation.scenario import FramePair

__all__ = ["PairOutcome", "PairErrorOutcome", "run_pose_recovery_sweep",
           "default_dataset", "detect_for_pair", "evaluate_pair"]


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


def _pair_priors(aligner: BBAlign, pair: FramePair):
    """Coarse (ego, other) translation priors for overlap-ROI culling.

    Only produced when culling is enabled.  The simulated sweeps use the
    pair's ground-truth translation as the stand-in for the coarse prior
    a deployment would get from GPS/tracking; it is a pure function of
    (dataset, index), which is what keeps ROI-cropped features valid
    under the (dataset, index, role, extraction-config) cache key.
    """
    if not aligner.config.roi.enabled:
        return (None, None)
    gt = pair.gt_relative  # SE2 other -> ego
    return (gt.translation, gt.inverse().translation)


def _features_for(aligner: BBAlign, cloud, role: str, index: int,
                  cache: FeatureCache | None, dataset_fp: tuple | None,
                  extraction_fp: tuple | None,
                  timings: SweepTimings | None, prior=None):
    """Stage-1 features for one scan, via the cache when identifiable."""
    key = None
    if (cache is not None and dataset_fp is not None
            and extraction_fp is not None):
        key = feature_key(dataset_fp, index, role, extraction_fp)
        features = cache.get(key)
        if features is not None:
            if timings is not None:
                timings.cache_hits += 1
            return features
        if timings is not None:
            timings.cache_misses += 1
    timer = None if timings is None else functools.partial(stage, timings)
    with stage(timings, "bv_extract"):
        features = aligner.extract_features(cloud, timer=timer, prior=prior)
    if key is not None:
        cache.put(key, features)
    return features


def evaluate_pair(record, aligner: BBAlign, detector: SimulatedDetector,
                  *,
                  seed: int = 7,
                  include_vips: bool = True,
                  vips_config: VipsConfig | None = None,
                  cache: FeatureCache | None = None,
                  dataset_fp: tuple | None = None,
                  extraction_fp: tuple | None = None,
                  timings: SweepTimings | None = None) -> PairOutcome:
    """Evaluate one dataset record into a :class:`PairOutcome`.

    Pure up to the supplied collaborators: given the same record,
    configuration and seed, the outcome is identical no matter which
    process (or worker) runs it.  This is the unit the parallel engine
    ships to pool workers and the serial sweep runs in-process.

    Args:
        record: a :class:`~repro.simulation.dataset.FrameRecord`.
        aligner / detector: constructed collaborators (reused across a
            sweep; both are stateless between calls).
        seed: sweep base seed; all randomness spawns from
            ``[seed, record.index, stream]``.
        include_vips / vips_config: also run the graph-matching baseline.
        cache: stage-1 feature cache; pass ``dataset_fp`` and
            ``extraction_fp`` (from :mod:`repro.runtime.cache`) to make
            features identifiable — without them extraction runs cold.
        timings: optional per-stage accumulator.
    """
    pair = record.pair
    with stage(timings, "detection"):
        ego_dets, other_dets = detect_for_pair(pair, detector, seed,
                                               record.index)
    ego_prior, other_prior = _pair_priors(aligner, pair)
    ego_features = _features_for(aligner, pair.ego_cloud, "ego",
                                 record.index, cache, dataset_fp,
                                 extraction_fp, timings, prior=ego_prior)
    other_features = _features_for(aligner, pair.other_cloud, "other",
                                   record.index, cache, dataset_fp,
                                   extraction_fp, timings, prior=other_prior)
    timer = None if timings is None else functools.partial(stage, timings)
    result = aligner.recover(
        ego_features, other_features,
        [d.box for d in ego_dets], [d.box for d in other_dets],
        rng=np.random.default_rng([seed, record.index, 2]), timer=timer)

    gt = pair.gt_relative
    full_errors = pose_errors(result.transform, gt)
    stage1_errors = pose_errors(result.stage1.transform, gt)

    vips_success = False
    vips_err: PoseErrors | None = None
    if include_vips:
        with stage(timings, "baseline"):
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
            Results are identical for every worker count; the pool path
            falls back to serial execution when unavailable.
        cache: stage-1 feature cache — ``None`` for the process default,
            ``False`` to disable, or an explicit
            :class:`~repro.runtime.cache.FeatureCache`.  Parallel
            workers always use their own per-process default caches.
        timings: per-stage accumulator; defaults to the ambient
            collector installed by
            :func:`repro.runtime.timings.collect_timings` (if any).

    Returns:
        One :class:`PairOutcome` per dataset pair, in index order.  A
        pair whose evaluation raised contributes a
        :class:`PairErrorOutcome` instead — a sweep never aborts on a
        single pathological pair.
    """
    from repro.runtime.engine import (  # local: runtime imports us back
        PoolUnavailableError,
        resolve_workers,
        run_sweep_parallel,
    )
    if timings is None:
        timings = active_timings()
    n_workers = resolve_workers(workers)
    if n_workers > 1 and isinstance(dataset, V2VDatasetSim) \
            and len(dataset) > 1:
        try:
            return run_sweep_parallel(
                dataset.config, num_pairs=len(dataset), config=config,
                detector_profile=detector_profile,
                include_vips=include_vips, vips_config=vips_config,
                seed=seed, workers=n_workers, timings=timings)
        except PoolUnavailableError as error:
            warnings.warn(
                f"parallel sweep unavailable ({error}); "
                "falling back to in-process serial execution",
                RuntimeWarning, stacklevel=2)
    return _run_sweep_serial(dataset, config, detector_profile,
                             include_vips, vips_config, seed,
                             _resolve_cache(cache), timings)


def run_sweep_pair(index: int, load_record: Callable[[int], FrameRecord],
                   aligner: BBAlign, detector: SimulatedDetector, *,
                   seed: int, include_vips: bool,
                   vips_config: VipsConfig | None,
                   cache: FeatureCache | None, dataset_fp: tuple | None,
                   extraction_fp: tuple | None,
                   timings: SweepTimings | None,
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
            with stage(timings, "data_generation"):
                record = load_record(index)
            return evaluate_pair(
                record, aligner, detector, seed=seed,
                include_vips=include_vips, vips_config=vips_config,
                cache=cache, dataset_fp=dataset_fp,
                extraction_fp=extraction_fp, timings=timings)
    except Exception as error:
        counter("engine/pair_errors").inc()
        return PairErrorOutcome.from_exception(index, error)


def _run_sweep_serial(dataset, config, detector_profile, include_vips,
                      vips_config, seed, cache, timings,
                      ) -> list[PairOutcome | PairErrorOutcome]:
    """The in-process path: the pool workers' per-pair loop, no pool."""
    start = time.perf_counter()
    aligner = BBAlign(config)
    detector = SimulatedDetector(detector_profile)
    ds_fp = ext_fp = None
    if cache is not None and isinstance(dataset, V2VDatasetSim):
        ds_fp = dataset_fingerprint(dataset.config)
        ext_fp = extraction_fingerprint(aligner.config)

    # The sweep's registry becomes the ambient instrument store for the
    # duration, so pipeline/degradation counters recorded deep inside
    # recover() land next to the stage timings they explain
    # (pool workers get the same treatment from the engine's chunk-local
    # registry).
    registry_cm = (use_registry(timings.registry)
                   if timings is not None else contextlib.nullcontext())
    with registry_cm, span("engine/sweep", mode="serial",
                           pairs=len(dataset)):
        outcomes = [run_sweep_pair(
            index, dataset.__getitem__, aligner, detector, seed=seed,
            include_vips=include_vips, vips_config=vips_config,
            cache=cache, dataset_fp=ds_fp, extraction_fp=ext_fp,
            timings=timings) for index in range(len(dataset))]
    if timings is not None:
        timings.pairs += len(outcomes)
        timings.wall_seconds += time.perf_counter() - start
    return outcomes
