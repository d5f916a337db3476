"""Stage 1: BV image matching (paper Section IV-A, Algorithm 1 lines 5-11).

Pipeline per vehicle: lidar scan -> height-map BV image -> MIM -> FAST
keypoints -> BVFT descriptors.  Across vehicles: descriptor matching ->
RANSAC -> the coarse transform ``T_bv`` (other -> ego) in world
coordinates, plus the inlier count ``Inliers_bv`` used by the success
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bev.mim import compute_mim
from repro.bev.projection import BVImage, density_map, height_map
from repro.bev.roi import RoiWindow, roi_window
from repro.core.config import BBAlignConfig
from repro.features.descriptors import BvftDescriptorExtractor, DescriptorSet
from repro.features.fast import Keypoints, detect_fast
from repro.features.harris import detect_harris
from repro.features.matching import MatchResult, match_descriptors
from repro.features.pc_keypoints import PcKeypointConfig, detect_pc_keypoints
from repro.geometry.ransac import RansacResult, ransac_rigid_2d
from repro.geometry.se2 import SE2
from repro.obs.metrics import counter, histogram
from repro.pointcloud.cloud import PointCloud
from repro.runtime.timings import StageTimer, ambient_stage

__all__ = ["BVFeatures", "BVMatch", "BVMatcher"]

@dataclass(frozen=True)
class BVFeatures:
    """What stage 1 keeps of one vehicle's scan: what matching reads.

    The MIM is an intermediate of extraction (it feeds the descriptors
    and nothing else), so only its orientation count stays.  When
    overlap-ROI culling was applied, ``roi`` records the crop window
    extraction ran on, while keypoint and descriptor coordinates are
    always expressed in the **full** ``bv_image`` frame so the
    downstream matching/RANSAC/stage-2 geometry is unchanged.
    """

    bv_image: BVImage
    num_orientations: int
    keypoints: Keypoints
    descriptors: DescriptorSet
    roi: RoiWindow | None = None


@dataclass(frozen=True)
class BVMatch:
    """Stage-1 output.

    Attributes:
        transform: ``T_bv`` — maps points from the other car's frame into
            the ego frame (world meters).  Identity when matching failed.
        inliers_bv: RANSAC inlier count (the paper's ``Inliers_bv``).
        num_matches: descriptor matches fed to RANSAC.
        success: RANSAC found a consensus model at all (distinct from the
            paper's success criterion, which also thresholds the count).
        pixel_transform: the raw pixel-frame transform (diagnostics).
        ransac: full RANSAC diagnostics.
        matches: the descriptor match set (for plotting/analysis).
    """

    transform: SE2
    inliers_bv: int
    num_matches: int
    success: bool
    pixel_transform: SE2
    ransac: RansacResult
    matches: MatchResult
    used_flip: bool = False

    @staticmethod
    def failed(matches: MatchResult, ransac: RansacResult) -> "BVMatch":
        return BVMatch(SE2.identity(), 0, len(matches), False,
                       SE2.identity(), ransac, matches)


class BVMatcher:
    """Runs stage 1 of BB-Align.

    Stateless apart from configuration and cached extractors, so one
    instance can serve a whole dataset sweep.
    """

    def __init__(self, config: BBAlignConfig | None = None) -> None:
        self.config = config or BBAlignConfig()
        self._extractor = BvftDescriptorExtractor(self.config.descriptor)

    # ------------------------------------------------------------------
    # Per-vehicle feature extraction
    # ------------------------------------------------------------------
    def make_bv_image(self, cloud: PointCloud) -> BVImage:
        """Project a scan to a BV image (height map per Eq. 4 by default;
        density map when configured, for the ablation)."""
        cfg = self.config.bv_image
        if cfg.projection == "density":
            return density_map(cloud, cell_size=cfg.cell_size,
                               lidar_range=cfg.lidar_range)
        return height_map(cloud, cell_size=cfg.cell_size,
                          lidar_range=cfg.lidar_range,
                          min_height=cfg.min_height,
                          max_height=cfg.max_height)

    def _detect_keypoints(self, bv_image: BVImage) -> Keypoints:
        """Run the configured keypoint detector."""
        detector = self.config.keypoint_detector
        if detector == "harris":
            return detect_harris(bv_image.image)
        if detector == "phase_congruency":
            return detect_pc_keypoints(
                bv_image.image,
                PcKeypointConfig(log_gabor=self.config.log_gabor))
        return detect_fast(bv_image.image, self.config.fast)

    def _roi_window(self, bv_image: BVImage, prior) -> RoiWindow | None:
        """The overlap crop window for one image, or None (no culling).

        Culling requires the feature to be enabled, a prior, and the
        FAST detector: the cropped path runs FAST on the window (the
        combination the ROI sweep validates and pins); the other
        detectors always see the full frame.
        """
        cfg = self.config
        if prior is None or not cfg.roi.enabled:
            return None
        if cfg.keypoint_detector != "fast":
            return None
        return roi_window(prior, cell_size=bv_image.cell_size,
                          lidar_range=bv_image.lidar_range,
                          image_size=bv_image.size, config=cfg.roi)

    @staticmethod
    def _roi_crop(bv_image: BVImage, window: RoiWindow | None) -> np.ndarray:
        """The (contiguous) image region extraction runs on."""
        if window is None:
            return bv_image.image
        r0, c0, s = window.row0, window.col0, window.size
        return np.ascontiguousarray(bv_image.image[r0:r0 + s, c0:c0 + s])

    def extract(self, bv_image: BVImage,
                timer: StageTimer | None = None,
                prior=None) -> BVFeatures:
        """Compute MIM, keypoints and descriptors for one BV image.

        ``prior`` is an optional coarse (x, y) translation of the other
        sensor in this image's frame (meters); with ROI culling enabled
        it crops extraction to the predicted overlap window (see
        :mod:`repro.bev.roi`).

        Raises:
            ValueError: the detector returned a non-integral keypoint;
                the π-flip hypothesis permutes descriptor cells, which
                is exact only at integral pixels.
        """
        timer = timer or ambient_stage
        window = self._roi_window(bv_image, prior)
        image = self._roi_crop(bv_image, window)
        with timer("bv_extract/mim"):
            mim = compute_mim(image, self.config.log_gabor)
        with timer("bv_extract/keypoints"):
            if window is None:
                keypoints = self._detect_keypoints(bv_image)
            else:
                # _roi_window gates culling to the FAST detector.
                keypoints = detect_fast(image, self.config.fast)
        if not np.array_equal(keypoints.xy, np.rint(keypoints.xy)):
            raise ValueError(
                f"{self.config.keypoint_detector} detector returned "
                "non-integral keypoints; stage 1 needs pixel positions")
        with timer("bv_extract/descriptors"):
            descriptors = self._extractor.compute(mim, keypoints)
        if window is not None:
            # Map window-local coordinates back to the full image frame;
            # downstream matching/RANSAC/stage-2 never see the crop.
            offset = window.offset_xy
            keypoints = Keypoints(keypoints.xy + offset, keypoints.scores)
            descriptors = DescriptorSet(
                descriptors.descriptors,
                descriptors.keypoint_xy + offset,
                descriptors.keypoint_indices,
                descriptors.dominant_bins)
        return BVFeatures(bv_image, mim.num_orientations, keypoints,
                          descriptors, roi=window)

    def extract_from_cloud(self, cloud: PointCloud,
                           timer: StageTimer | None = None,
                           prior=None) -> BVFeatures:
        """Convenience: projection + extraction in one call."""
        return self.extract(self.make_bv_image(cloud), timer=timer,
                            prior=prior)

    # ------------------------------------------------------------------
    # Cross-vehicle matching
    # ------------------------------------------------------------------
    def match(self, other: BVFeatures, ego: BVFeatures,
              rng: np.random.Generator | int | None = None,
              timer: StageTimer | None = None) -> BVMatch:
        """Match the other car's features against the ego car's.

        Args:
            other: features from the received BV image (source).
            ego: features from the ego car's BV image (destination).
            rng: RANSAC randomness; defaults to the config seed.
            timer: stage-timer factory recording the
                ``stage1_match/*`` detail stages (default
                :func:`~repro.runtime.timings.ambient_stage`).

        Returns:
            A :class:`BVMatch` whose ``transform`` maps other-frame world
            coordinates into the ego frame.
        """
        cfg = self.config.bv_ransac
        timer = timer or ambient_stage
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(
                self.config.random_seed if rng is None else rng)

        direct = self._match_one(other.descriptors, ego, rng, timer)
        if not cfg.disambiguate_pi:
            self._record_match(direct)
            return direct

        # Second hypothesis: the other image rotated 180 degrees, which
        # folds relative yaws in (90, 270) back into the descriptor's
        # unambiguous range.  The winner is whichever consensus is larger.
        # Keypoints are integral (extract checks), so the flipped
        # descriptors are the originals' cells permuted, at mirrored
        # keypoints p -> (H-1) - p.
        with timer("stage1_match/flip"):
            flipped = self._extractor.flipped_set(other.descriptors,
                                                  other.bv_image.size)
        mirrored = self._match_one(flipped, ego, rng, timer)
        if mirrored.inliers_bv <= direct.inliers_bv:
            self._record_match(direct)
            return direct
        # Compose out the flip: p_flipped = (H-1) - p = SE2(pi, H-1, H-1) p.
        size = other.bv_image.size
        flip = SE2(np.pi, float(size - 1), float(size - 1))
        pixel_transform = mirrored.pixel_transform @ flip
        world = ego.bv_image.pixel_transform_to_world(pixel_transform)
        result = BVMatch(transform=world,
                         inliers_bv=mirrored.inliers_bv,
                         num_matches=mirrored.num_matches,
                         success=mirrored.success,
                         pixel_transform=pixel_transform,
                         ransac=mirrored.ransac,
                         matches=mirrored.matches,
                         used_flip=True)
        self._record_match(result)
        return result

    @staticmethod
    def _record_match(match: "BVMatch") -> None:
        """Observability: per-match counts into the active registry.

        A no-op unless a registry is installed; reads results only, so
        traced and untraced matching stay byte-identical.
        """
        counter("stage1/matches").inc()
        if match.success:
            counter("stage1/consensus").inc()
        if match.used_flip:
            counter("stage1/flip_wins").inc()
        histogram("stage1/num_matches").observe(float(match.num_matches))
        histogram("stage1/inliers_bv").observe(float(match.inliers_bv))

    def _match_one(self, other: DescriptorSet, ego: BVFeatures,
                   rng: np.random.Generator,
                   timer: StageTimer | None = None) -> BVMatch:
        """Single-hypothesis matching (no pi disambiguation) of the other
        car's descriptors against the ego car's features."""
        cfg = self.config.bv_ransac
        timer = timer or ambient_stage
        with timer("stage1_match/nn"):
            matches = match_descriptors(other, ego.descriptors,
                                        ratio=cfg.ratio_test,
                                        mutual=cfg.mutual_check)
        if len(matches) < 2:
            empty = ransac_rigid_2d(np.empty((0, 2)), np.empty((0, 2)),
                                    threshold=cfg.threshold_pixels, rng=rng)
            return BVMatch.failed(matches, empty)

        with timer("stage1_match/ransac"):
            ransac = ransac_rigid_2d(matches.src_xy, matches.dst_xy,
                                     threshold=cfg.threshold_pixels,
                                     max_iterations=cfg.max_iterations,
                                     rng=rng)
        if not ransac.success:
            return BVMatch.failed(matches, ransac)

        # Both images share one configuration, so either can convert the
        # pixel-frame transform back to meters.
        world = ego.bv_image.pixel_transform_to_world(ransac.transform)
        return BVMatch(transform=world,
                       inliers_bv=ransac.num_inliers,
                       num_matches=len(matches),
                       success=True,
                       pixel_transform=ransac.transform,
                       ransac=ransac,
                       matches=matches)

    def match_clouds(self, other_cloud: PointCloud, ego_cloud: PointCloud,
                     rng: np.random.Generator | int | None = None) -> BVMatch:
        """End-to-end stage 1 from raw scans."""
        return self.match(self.extract_from_cloud(other_cloud),
                          self.extract_from_cloud(ego_cloud), rng=rng)
