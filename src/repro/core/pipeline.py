"""The BB-Align pipeline (paper Algorithm 1).

:class:`BBAlign` strings the two stages together:

1. each car renders a BV image (line 1) and projects its detections to
   BEV boxes (line 2); the other car transmits both (line 3),
2. the ego car computes MIM features, matches keypoints and estimates
   ``T_bv`` (lines 5-11),
3. the other car's boxes are refined into ``T_box`` (lines 12-14),
4. the combined ``T_2D = T_box @ T_bv`` is lifted to 3-D (lines 15-17).

The class is plug-and-play in the paper's sense: it takes two point clouds
and two detection lists and needs no prior pose and no training.

**One entry point.**  :meth:`BBAlign.recover` dispatches on its inputs:
raw clouds, precomputed :class:`BVFeatures`, wire payloads (any
:class:`repro.comms.tiers.Tier`), deliveries, and decoded messages all
go through the same two-stage core.

**Graceful degradation.**  Field inputs are hostile — dropped packets,
corrupt buffers, NaN-polluted scans, featureless scenes — so
:meth:`BBAlign.recover` never raises on bad *data*: every code path
returns a :class:`PoseRecoveryResult` whose ``failure_reason`` names
what went wrong and whose ``degradation`` records which fallback produced
the returned transform (see :mod:`repro.core.degradation` for the ladder).
The ladder also adapts to what a message *tier* carries: boxes-only
messages skip stage 1 by design and run box alignment from the pose
prior.
The aligner remembers the last successfully recovered pose, so a transient
failure coasts on history (the ``temporal`` rung) instead of snapping to
identity; :class:`repro.core.temporal.PoseTracker` remains the full
odometry-aware filter for streamed deployments.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from repro.bev.projection import BVImage
from repro.boxes.box import Box2D, Box3D
from repro.core.box_alignment import BoxAligner, BoxAlignment
from repro.core.bv_matching import BVFeatures, BVMatch, BVMatcher
from repro.core.config import BBAlignConfig
from repro.core.degradation import (
    DegradationLevel,
    FailureReason,
    StageDiagnostics,
    record_transition,
)
from repro.core.result import PoseRecoveryResult
from repro.features.matching import MatchResult
from repro.geometry.ransac import RansacResult
from repro.geometry.se2 import SE2
from repro.geometry.se3 import SE3
from repro.obs.metrics import histogram
from repro.pointcloud.cloud import PointCloud
from repro.runtime.fanout import fan_out
from repro.runtime.timings import StageTimer, ambient_stage

__all__ = ["BBAlign"]

# Transmitting one BEV box costs five float32 values (x, y, length,
# width, yaw); a 3-D box adds z and height.
_BYTES_PER_BOX = 5 * 4

class _Degraded(NamedTuple):
    """A recovery that fell to the ladder's bottom rungs, not yet
    settled against the aligner's last-good pose."""

    reason: FailureReason
    diagnostics: StageDiagnostics
    message_bytes: int


def _empty_stage1() -> BVMatch:
    """A stage-1 record for recoveries that never reached matching."""
    ransac = RansacResult(SE2.identity(), np.zeros(0, dtype=bool), 0, 0,
                          False, float("nan"))
    return BVMatch.failed(MatchResult.empty(), ransac)


class BBAlign:
    """Two-stage pose recovery (the paper's primary contribution).

    Example:
        >>> from repro.core import BBAlign
        >>> aligner = BBAlign()
        >>> result = aligner.recover(ego_cloud, other_cloud,
        ...                          ego_boxes, other_boxes)  # doctest: +SKIP
        >>> result.transform  # maps other-car coords into the ego frame  # doctest: +SKIP
    """

    def __init__(self, config: BBAlignConfig | None = None) -> None:
        self.config = config or BBAlignConfig()
        self.bv_matcher = BVMatcher(self.config)
        self.box_aligner = BoxAligner(self.config.box_align)
        # Matchers for pooled descriptor geometries (keypoints-tier
        # messages), built lazily and keyed by pooled grid size.
        self._pooled_matchers: dict[int, BVMatcher] = {}
        # Fallback memory: the last transform that met the success
        # criterion.  Only the degraded code paths *read* it, so the
        # numeric output of the healthy path is independent of call
        # history (the sweep-determinism contract).
        self._last_good: SE2 | None = None

    # ------------------------------------------------------------------
    def reset_temporal(self) -> None:
        """Forget the last-good pose (e.g. when the partner changes)."""
        self._last_good = None

    # ------------------------------------------------------------------
    @staticmethod
    def _to_bev_boxes(boxes) -> list[Box2D]:
        """Accept 3-D or BEV boxes; project 3-D ones (Algorithm 1 line 2)."""
        bev: list[Box2D] = []
        for box in boxes:
            if isinstance(box, Box3D):
                bev.append(box.to_bev())
            elif isinstance(box, Box2D):
                bev.append(box)
            else:
                raise TypeError(f"expected Box2D or Box3D, got {type(box)!r}")
        return bev

    def _rng(self, rng) -> np.random.Generator:
        if isinstance(rng, np.random.Generator):
            return rng
        if rng is None:
            rng = self.config.random_seed
        return np.random.default_rng(rng)

    def _degraded_result(self, reason: FailureReason,
                         diagnostics: StageDiagnostics,
                         message_bytes: int = 0) -> PoseRecoveryResult:
        """Bottom rungs of the ladder: last-good pose, else identity."""
        if self._last_good is not None:
            transform = self._last_good
            level = DegradationLevel.TEMPORAL
        else:
            transform = SE2.identity()
            level = DegradationLevel.IDENTITY
        record_transition(level, reason)
        return PoseRecoveryResult(
            transform=transform,
            transform_3d=SE3.from_se2(transform),
            success=False,
            stage1=_empty_stage1(),
            stage2=BoxAlignment.skipped(),
            message_bytes=message_bytes,
            failure_reason=reason,
            degradation=level,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    def extract_features(self, cloud: PointCloud,
                         timer: StageTimer | None = None) -> BVFeatures:
        """Stage-1 feature extraction for one scan.

        This is the memoization boundary the runtime layer caches:
        extraction is a pure function of (cloud, configuration),
        consumes no randomness, and dominates per-pair cost.  Pass the
        result to :meth:`recover` to reuse features across sweeps.
        ``timer`` records the per-kernel ``bv_extract/*`` detail stages
        (default :func:`~repro.runtime.timings.ambient_stage`).
        """
        return self.bv_matcher.extract_from_cloud(cloud, timer=timer)

    def recover(self, ego, other=None, ego_boxes=None, other_boxes=None,
                rng: np.random.Generator | int | None = None,
                timer: StageTimer | None = None, *,
                stale: bool = False) -> PoseRecoveryResult:
        """Recover the relative pose from the other car to the ego car.

        One entry point, three input shapes, dispatched on ``other``:

        * **clouds / features** — ``other`` is a :class:`PointCloud` or
          precomputed :class:`BVFeatures` (and so is ``ego``, in any
          combination); ``other_boxes`` carries the other car's
          detections.  Extraction runs only for the cloud inputs.
        * **wire payload** — ``other`` is the raw received ``bytes`` (a
          :class:`repro.comms.tiers.Tier` message), a
          :class:`repro.comms.Delivery`, or ``None`` for a dropped
          frame.  Boxes travel inside the message, so ``other_boxes``
          must be omitted.
        * **decoded message** — ``other`` is an already-decoded
          :class:`~repro.comms.tiers.TieredMessage`.

        The stage ladder adapts to what the tier carries: a boxes-only
        message skips BV matching entirely and runs stage-2 alignment
        from the pose prior (``DegradationLevel.BOXES_ONLY``); a
        keypoints message matches transmitted descriptors against an
        identically pooled copy of the ego descriptors.  A BV image or
        keypoint payload must share the receiver's BV geometry
        (:meth:`~repro.core.config.BVImageConfig.foreign_geometry`);
        another one answers ``geometry-mismatch`` before any
        extraction.

        Args:
            ego: ego car's lidar scan, or its precomputed features.
            other: see above.
            ego_boxes: ego detections (Box3D or Box2D) in the ego frame.
            other_boxes: received detections in the other car's frame
                (cloud/feature inputs only).
            rng: randomness for both RANSAC stages (defaults to the
                config seed, making runs reproducible).
            timer: stage-timer factory recording ``bv_extract`` /
                ``stage1_match`` / ``stage2_align``; ``None`` selects
                :func:`repro.runtime.timings.ambient_stage`, which
                records into the ambient metrics registry.
            stale: the input arrived too late to trust for this frame
                (ORed with :attr:`repro.comms.Delivery.delay_frames`).

        Returns:
            A :class:`PoseRecoveryResult`; ``result.transform`` maps
            other-frame coordinates into the ego frame.  Degenerate
            *data* produces a flagged failure (see ``failure_reason``),
            never an exception; unsupported input *types* still raise
            :class:`TypeError`.
        """
        if isinstance(other, (PointCloud, BVFeatures)):
            return self._recover_sensed(ego, other, ego_boxes, other_boxes,
                                        rng, timer, stale)
        return self._recover_payload(ego, other, ego_boxes, other_boxes,
                                     rng, timer, stale)

    # ------------------------------------------------------------------
    def _recover_sensed(self, ego, other, ego_boxes, other_boxes, rng,
                        timer, stale) -> PoseRecoveryResult:
        """Cloud/feature inputs: extract whatever is still raw, match."""
        for name, value in (("ego", ego), ("other", other)):
            if not isinstance(value, (PointCloud, BVFeatures)):
                raise TypeError(f"{name} must be a PointCloud or "
                                f"BVFeatures, got {type(value)!r}")
        if stale:
            return self._degraded_result(FailureReason.MESSAGE_STALE,
                                         StageDiagnostics())
        try:
            ego, other = self._extract_all(
                [(self.extract_features if isinstance(value, PointCloud)
                  else None, value) for value in (ego, other)], timer)
        except Exception as error:
            return self._degraded_result(
                FailureReason.EXTRACTION_ERROR,
                StageDiagnostics(stage1_error=repr(error)))
        return self._recover_features(ego, other, ego_boxes, other_boxes,
                                      rng=rng, timer=timer)

    def _extract_all(self, jobs, timer) -> list:
        """Stage-1 features from ``(extract, source)`` jobs, side by side.

        Each ``extract(source)`` runs in its own ``bv_extract`` stage; a
        job whose ``extract`` is ``None`` passes ``source`` through.  The
        extractions run through :func:`repro.runtime.fanout.fan_out` —
        on two cores a pair's two scans overlap — and the first failing
        job raises, as in a loop.
        """
        timer = timer or ambient_stage

        def run(job) -> BVFeatures:
            extract, source = job
            with timer("bv_extract"):
                return extract(source, timer=timer)

        features = [source for _, source in jobs]
        raw = [index for index, (extract, _) in enumerate(jobs)
               if extract is not None]
        for index, extracted in zip(raw, fan_out(
                run, [jobs[index] for index in raw])):
            features[index] = extracted
        return features

    def _recover_features(self, ego_features: BVFeatures,
                          other_features: BVFeatures,
                          ego_boxes, other_boxes,
                          rng: np.random.Generator | int | None = None,
                          timer: StageTimer | None = None, *,
                          matcher: BVMatcher | None = None,
                          message_bytes: int | None = None,
                          tier: str | None = None) -> PoseRecoveryResult:
        """The two-stage core shared by every input shape.

        ``matcher`` overrides stage-1 matching (the keypoints tier uses
        a pooled-geometry matcher); ``message_bytes`` overrides the
        dense-message estimate with actual wire bytes; ``tier`` labels
        the diagnostics.
        """
        return self._settle(self._match_and_align(
            ego_features, other_features, ego_boxes, other_boxes, rng,
            timer, matcher=matcher, message_bytes=message_bytes, tier=tier))

    def _match_and_align(self, ego_features: BVFeatures,
                         other_features: BVFeatures, ego_boxes,
                         other_boxes, rng, timer, *,
                         matcher: BVMatcher | None = None,
                         message_bytes: int | None = None,
                         tier: str | None = None,
                         ) -> PoseRecoveryResult | _Degraded:
        """Both stages, without touching the aligner's memory.

        Returns the result, or the :class:`_Degraded` request that
        :meth:`_settle` turns into one; only :meth:`_settle` reads or
        writes the last-good pose and records the ladder transition, so
        calls on different feature pairs may run concurrently.
        """
        matcher = matcher or self.bv_matcher
        timer = timer or ambient_stage
        rng = self._rng(rng)
        ego_bev = self._to_bev_boxes(ego_boxes)
        other_bev = self._to_bev_boxes(other_boxes)

        diagnostics = StageDiagnostics(
            nonfinite_ego_points=ego_features.bv_image.num_nonfinite,
            nonfinite_other_points=other_features.bv_image.num_nonfinite,
            ego_keypoints=len(ego_features.keypoints.xy),
            other_keypoints=len(other_features.keypoints.xy),
            tier=tier,
        )
        if message_bytes is None:
            message_bytes = (other_features.bv_image.message_size_bytes()
                             + _BYTES_PER_BOX * len(other_bev))

        try:
            with timer("stage1_match"):
                stage1 = matcher.match(other_features, ego_features,
                                       rng=rng, timer=timer)
        except Exception as error:
            return _Degraded(FailureReason.STAGE1_ERROR,
                             replace(diagnostics, stage1_error=repr(error)),
                             message_bytes)

        stage2_failure: FailureReason | None = None
        if self.config.enable_box_alignment and stage1.success:
            try:
                with timer("stage2_align"):
                    stage2 = self.box_aligner.align(other_bev, ego_bev,
                                                    stage1.transform, rng=rng)
            except Exception as error:
                # One rung down: keep the stage-1 estimate unrefined.
                stage2 = BoxAlignment.skipped()
                stage2_failure = FailureReason.STAGE2_ERROR
                diagnostics = replace(diagnostics, stage2_error=repr(error))
        else:
            stage2 = BoxAlignment.skipped()

        # Apply the refinement only when its own confidence criterion
        # holds: a correction estimated from a single box pair amplifies
        # detector yaw noise through the box-to-origin lever arm, so an
        # unreliable stage 2 must not damage a good stage-1 estimate.
        apply_correction = (stage2.success
                            and stage2.inliers_box
                            > self.config.success.min_inliers_box)
        combined = (stage2.correction @ stage1.transform
                    if apply_correction else stage1.transform)
        transform_3d = SE3.from_se2(combined)

        if self.config.enable_box_alignment:
            success = (stage1.success
                       and self.config.success.is_success(
                           stage1.inliers_bv, stage2.inliers_box))
        else:
            # Ablation mode: only the stage-1 criterion applies.
            success = (stage1.success
                       and stage1.inliers_bv > self.config.success.min_inliers_bv)

        if success:
            failure_reason = None
        elif stage2_failure is not None:
            failure_reason = stage2_failure
        elif not stage1.success:
            no_features = (diagnostics.ego_keypoints == 0
                           or diagnostics.other_keypoints == 0)
            failure_reason = (FailureReason.NO_KEYPOINTS if no_features
                              else FailureReason.STAGE1_NO_CONSENSUS)
        else:
            failure_reason = FailureReason.BELOW_SUCCESS_THRESHOLD

        degradation = (DegradationLevel.STAGE1_ONLY
                       if stage2_failure is not None
                       else DegradationLevel.FULL)
        return PoseRecoveryResult(
            transform=combined,
            transform_3d=transform_3d,
            success=success,
            stage1=stage1,
            stage2=stage2,
            message_bytes=message_bytes,
            failure_reason=failure_reason,
            degradation=degradation,
            diagnostics=diagnostics,
        )

    def _settle(self, outcome: PoseRecoveryResult | _Degraded,
                ) -> PoseRecoveryResult:
        """Commit a :meth:`_match_and_align` outcome to the aligner.

        A success becomes the last-good pose; a degraded request walks
        the ladder's bottom rungs from the current last-good pose.
        """
        if isinstance(outcome, _Degraded):
            return self._degraded_result(*outcome)
        if outcome.success:
            self._last_good = outcome.transform
        record_transition(outcome.degradation, outcome.failure_reason)
        return outcome

    def recover_many(self, jobs) -> list[PoseRecoveryResult]:
        """:meth:`recover` over precomputed features, several pairs at
        once.

        Each job is ``(ego_features, other_features, ego_boxes,
        other_boxes, rng)``.  The two stages of every job run through
        :func:`repro.runtime.fanout.fan_out`; their outcomes are settled
        in job order, so results, the last-good pose and the recorded
        ladder transitions equal those of calling :meth:`recover` on
        each job in turn.
        """
        def run(job) -> PoseRecoveryResult | _Degraded:
            return self._match_and_align(*job, None)

        return [self._settle(outcome) for outcome in fan_out(run, jobs)]

    def _recover_payload(self, ego, payload, ego_boxes, other_boxes, rng,
                         timer, stale) -> PoseRecoveryResult:
        """Wire-payload inputs: unwrap, decode, dispatch on the tier.

        The receiver-side path a deployment actually has: raw bytes off
        the V2V link (or ``None`` for a drop).  Decode failures
        (:class:`repro.comms.CodecError`) and drops walk the fallback
        ladder instead of raising.
        """
        # Imported here: repro.comms depends on repro.bev, and keeping
        # the import local avoids a package-level core <-> comms cycle.
        from repro.comms import accounting
        from repro.comms.channel import Delivery
        from repro.comms.codec import CodecError
        from repro.comms.tiers import Tier, TieredMessage, decode_message

        if other_boxes is not None:
            raise TypeError("other_boxes travel inside the message; pass "
                            "them only with cloud/feature inputs")
        if not isinstance(ego, (PointCloud, BVFeatures)):
            raise TypeError(f"ego must be a PointCloud or BVFeatures, "
                            f"got {type(ego)!r}")
        if isinstance(payload, Delivery):
            stale = stale or payload.delay_frames > 0
            payload = payload.payload
        if payload is None:
            return self._degraded_result(FailureReason.MESSAGE_DROPPED,
                                         StageDiagnostics())

        timer = timer or ambient_stage
        if isinstance(payload, (bytes, bytearray, memoryview)):
            payload = bytes(payload)
            num_bytes = len(payload)
            if stale:
                return self._degraded_result(FailureReason.MESSAGE_STALE,
                                             StageDiagnostics(),
                                             message_bytes=num_bytes)
            try:
                message = decode_message(payload)
            except CodecError as error:
                accounting.record_received(None, num_bytes, ok=False)
                return self._degraded_result(
                    FailureReason.MESSAGE_UNDECODABLE,
                    StageDiagnostics(decode_error=str(error)),
                    message_bytes=num_bytes)
            accounting.record_received(message.tier.value, num_bytes,
                                       ok=True)
            histogram("comms/message_bytes").observe(float(num_bytes))
        elif isinstance(payload, TieredMessage):
            message = payload
            num_bytes = message.size_bytes
            if stale:
                return self._degraded_result(FailureReason.MESSAGE_STALE,
                                             StageDiagnostics(),
                                             message_bytes=num_bytes)
        else:
            raise TypeError(
                f"other must be a PointCloud, BVFeatures, bytes payload, "
                f"Delivery, TieredMessage or None, got "
                f"{type(payload)!r}")

        if self.config.bv_image.foreign_geometry(message) is not None:
            return self._degraded_result(
                FailureReason.GEOMETRY_MISMATCH,
                StageDiagnostics(tier=message.tier.value),
                message_bytes=num_bytes)
        if message.tier is Tier.BOXES_ONLY:
            return self._recover_boxes_only(message, ego_boxes, rng, timer,
                                            num_bytes)

        if message.tier is Tier.BV_IMAGE:
            other_job = (self.bv_matcher.extract, message.bv_image)
        elif message.tier is Tier.FULL_SCAN:
            other_job = (self.extract_features, message.cloud)
        else:
            other_job = (None, None)  # keypoints: no image to extract
        ego_job = (self.extract_features if isinstance(ego, PointCloud)
                   else None, ego)
        try:
            ego_features, other_features = self._extract_all(
                [ego_job, other_job], timer)
        except Exception as error:
            return self._degraded_result(
                FailureReason.EXTRACTION_ERROR,
                StageDiagnostics(stage1_error=repr(error)),
                message_bytes=num_bytes)

        if other_features is None:
            return self._recover_keypoints(ego_features, message, ego_boxes,
                                           rng, timer, num_bytes)
        return self._recover_features(ego_features, other_features,
                                      ego_boxes, message.boxes,
                                      rng=rng, timer=timer,
                                      message_bytes=num_bytes,
                                      tier=message.tier.value)

    def _recover_keypoints(self, ego_features: BVFeatures, message,
                           ego_boxes, rng, timer,
                           num_bytes: int) -> PoseRecoveryResult:
        """Keypoints tier: match transmitted descriptors directly.

        The message carries no image, so the ego side is brought to the
        sender's pooled descriptor geometry (same pooling, same
        normalization) and a pooled-geometry matcher runs the usual
        stage 1 — π-flip disambiguation included, since the transmitted
        coordinates are integral pixels.
        """
        from repro.comms.tiers import Tier, pool_descriptors
        from repro.features.descriptors import DescriptorSet
        from repro.features.fast import Keypoints

        kp = message.keypoints
        tier = Tier.KEYPOINTS.value
        base_orient = ego_features.num_orientations
        ego_desc = ego_features.descriptors
        try:
            if len(ego_desc):
                dim = ego_desc.descriptors.shape[1]
                cells = dim // base_orient
                base_grid = int(round(np.sqrt(cells)))
                pooled = pool_descriptors(
                    ego_desc.descriptors, base_grid, base_orient,
                    base_grid // kp.grid_size,
                    base_orient // kp.num_orientations)
            else:
                pooled = np.empty((0, kp.grid_size ** 2
                                   * kp.num_orientations))
        except (ValueError, ZeroDivisionError) as error:
            return self._degraded_result(
                FailureReason.EXTRACTION_ERROR,
                StageDiagnostics(stage1_error=repr(error), tier=tier),
                message_bytes=num_bytes)
        ego_pooled = BVFeatures(
            ego_features.bv_image, kp.num_orientations,
            ego_features.keypoints,
            DescriptorSet(pooled, ego_desc.keypoint_xy,
                          ego_desc.keypoint_indices,
                          ego_desc.dominant_bins))

        # The other side never rendered an image here; a zero placeholder
        # carries the geometry (its size mirrors the keypoints for the
        # flip hypothesis).  A broadcast view: the size is the sender's
        # header, and nothing reads the pixels.
        size = kp.image_size
        placeholder_bv = BVImage(np.broadcast_to(0.0, (size, size)),
                                 kp.cell_size, kp.lidar_range)
        xy = kp.xy.astype(float)
        other_features = BVFeatures(
            placeholder_bv, kp.num_orientations,
            Keypoints(xy, np.asarray(kp.scores, dtype=float)),
            DescriptorSet(kp.descriptors, xy,
                          np.arange(len(xy), dtype=int),
                          np.zeros(len(xy), dtype=int)))
        return self._recover_features(ego_pooled, other_features, ego_boxes,
                                      message.boxes, rng=rng, timer=timer,
                                      matcher=self._pooled_matcher(
                                          kp.grid_size),
                                      message_bytes=num_bytes, tier=tier)

    def _pooled_matcher(self, grid_size: int) -> BVMatcher:
        """A matcher whose descriptor geometry matches pooled messages.

        Only the extractor's ``grid_size`` matters (it drives the
        flip-permutation layout); matching thresholds and RANSAC
        configuration are inherited unchanged.  Cached per grid size.
        """
        matcher = self._pooled_matchers.get(grid_size)
        if matcher is None:
            config = replace(self.config, descriptor=replace(
                self.config.descriptor, grid_size=grid_size))
            matcher = self._pooled_matchers[grid_size] = BVMatcher(config)
        return matcher

    def _recover_boxes_only(self, message, ego_boxes, rng, timer,
                            num_bytes: int) -> PoseRecoveryResult:
        """Boxes-only tier: stage 2 from the pose prior, no stage 1.

        The tier carries no BV evidence, so success here is judged by
        the *weaker*, box-consensus-only criterion — the result is
        honest about it via ``DegradationLevel.BOXES_ONLY``.  The prior
        is the last good pose (identity cold): box alignment can only
        correct within ``max_correction_meters``, so cold-start pairs
        with large offsets legitimately fail into the ladder.
        """
        from repro.comms.tiers import Tier

        rng = self._rng(rng)
        ego_bev = self._to_bev_boxes(ego_boxes)
        other_bev = self._to_bev_boxes(message.boxes)
        diagnostics = StageDiagnostics(tier=Tier.BOXES_ONLY.value)
        prior = (self._last_good if self._last_good is not None
                 else SE2.identity())
        try:
            with timer("stage2_align"):
                stage2 = self.box_aligner.align(other_bev, ego_bev, prior,
                                                rng=rng)
        except Exception as error:
            return self._degraded_result(
                FailureReason.STAGE2_ERROR,
                replace(diagnostics, stage2_error=repr(error)),
                message_bytes=num_bytes)
        success = (stage2.success and stage2.inliers_box
                   > self.config.success.min_inliers_box)
        if not success:
            return self._degraded_result(
                FailureReason.BOXES_ONLY_NO_CONSENSUS, diagnostics,
                message_bytes=num_bytes)
        combined = stage2.correction @ prior
        self._last_good = combined
        record_transition(DegradationLevel.BOXES_ONLY, None)
        return PoseRecoveryResult(
            transform=combined,
            transform_3d=SE3.from_se2(combined),
            success=True,
            stage1=_empty_stage1(),
            stage2=stage2,
            message_bytes=num_bytes,
            failure_reason=None,
            degradation=DegradationLevel.BOXES_ONLY,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def raw_cloud_bytes(cloud: PointCloud) -> int:
        """Transmission cost of sending the raw scan instead (float32
        xyz) — the early-fusion bandwidth the paper argues against."""
        return len(cloud) * 3 * 4
