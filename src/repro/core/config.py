"""All BB-Align hyperparameters in one place.

Defaults follow the paper's Model Setup (Sec. V) where the substrate
permits — Log-Gabor with ``N_s = 4`` scales and ``N_o = 12`` orientations,
grid ``l = 6`` — and are otherwise re-calibrated for the simulated
dataset the same way the paper calibrated on V2V4Real (descriptor patch
``J = 48`` instead of 96 against occlusion-shadow pollution; success
threshold ``Inliers_bv > 12`` re-derived via the Fig. 9 analysis).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bev.log_gabor import LogGaborConfig
from repro.comms.tiers import Tier, TierCodecConfig
from repro.features.descriptors import BvftConfig
from repro.features.fast import FastConfig

__all__ = ["BVImageConfig", "BVMatchRansacConfig", "BoxAlignConfig",
           "SuccessCriteria", "BBAlignConfig"]

@dataclass(frozen=True)
class BVImageConfig:
    """Height-map projection parameters (paper Eq. 4).

    Attributes:
        cell_size: ground cell edge ``c`` in meters.
        lidar_range: half-extent ``R``; the BV image covers [-R, R]^2.
        min_height: clamp for below-ground returns.
        max_height: clamp that makes wall intensities viewpoint-
            independent (see :func:`repro.bev.projection.height_map`).
        projection: "height" (the paper's Eq. 4 choice) or "density"
            (the [31] alternative the paper argues against) — exposed for
            the ablation study.
    """

    cell_size: float = 0.8
    lidar_range: float = 76.8
    min_height: float = 0.0
    max_height: float | None = 5.0
    projection: str = "height"

    def __post_init__(self) -> None:
        if self.cell_size <= 0 or self.lidar_range <= 0:
            raise ValueError("cell_size and lidar_range must be positive")
        if self.projection not in ("height", "density"):
            raise ValueError("projection must be 'height' or 'density'")

    @property
    def image_size(self) -> int:
        return int(round(2.0 * self.lidar_range / self.cell_size))

    def foreign_geometry(self, message) -> tuple[int, float, float] | None:
        """A partner message's BV geometry, when it is not this one.

        Stage 1 converts matched pixels with the receiver's geometry, so
        a BV image or keypoint payload rendered at another (edge, cell,
        range) would be extracted at the sender's size (a Log-Gabor bank
        of that size) and answered in the wrong metric scale.  Returns
        the :class:`~repro.comms.tiers.TieredMessage`'s ``(size,
        cell_size, lidar_range)`` when it differs from this config's,
        ``None`` when it matches or the tier carries no BV geometry.
        """
        if message.tier is Tier.BV_IMAGE:
            bv = message.bv_image
            geometry = (bv.size, bv.cell_size, bv.lidar_range)
        elif message.tier is Tier.KEYPOINTS:
            kp = message.keypoints
            geometry = (kp.image_size, kp.cell_size, kp.lidar_range)
        else:
            return None
        own = (self.image_size, self.cell_size, self.lidar_range)
        return None if geometry == own else geometry


@dataclass(frozen=True)
class BVMatchRansacConfig:
    """Stage-1 RANSAC parameters (pixel units).

    Attributes:
        threshold_pixels: inlier residual threshold in BV pixels.
        max_iterations: hypothesis budget.
        ratio_test: Lowe's ratio for descriptor matching.
        mutual_check: require cross-consistent nearest neighbors.
        disambiguate_pi: MIM orientations live on [0, pi), so descriptor
            rotation normalization is blind to 180-degree flips; when True
            the matcher also tries the other image rotated by 180 degrees
            (an exact pixel flip) and keeps the hypothesis with more
            inliers.  Required for relative yaws beyond +-90 degrees.
    """

    threshold_pixels: float = 2.5
    max_iterations: int = 2000
    ratio_test: float = 1.0
    mutual_check: bool = True
    disambiguate_pi: bool = True


@dataclass(frozen=True)
class BoxAlignConfig:
    """Stage-2 parameters (meter units).

    Attributes:
        min_overlap_iou: minimum BEV IoU for two boxes to be treated as
            the same physical object after the stage-1 transform.
        threshold_meters: RANSAC inlier threshold on corner residuals.
        max_iterations: hypothesis budget.
        max_correction_meters: reject a stage-2 refinement whose
            translation exceeds this (a guard against aligning the wrong
            object pairs; stage 1 leaves only small residuals).
    """

    min_overlap_iou: float = 0.05
    threshold_meters: float = 0.6
    max_iterations: int = 500
    max_correction_meters: float = 4.0


@dataclass(frozen=True)
class SuccessCriteria:
    """The empirical success thresholds (paper Sec. V-A).

    The paper derives ``Inliers_bv > 25 and Inliers_box > 6`` from its
    Fig. 9 analysis on V2V4Real.  Our simulated BV images carry fewer
    keypoints per frame than 64-beam real scans, so the same analysis on
    the simulated dataset (see the Fig. 9 experiment) lands the
    equal-role thresholds at ``Inliers_bv > 12``; the box threshold
    matches the paper's.
    """

    min_inliers_bv: int = 12
    min_inliers_box: int = 6

    def is_success(self, inliers_bv: int, inliers_box: int) -> bool:
        """Strictly-greater comparison, as stated in the paper
        ("Inliers_bv > 25 and Inliers_box > 6")."""
        return (inliers_bv > self.min_inliers_bv
                and inliers_box > self.min_inliers_box)


@dataclass(frozen=True)
class BBAlignConfig:
    """Complete configuration of the two-stage framework.

    ``keypoint_detector`` selects the stage-1 detector: "fast" (the
    paper's choice), "harris", or "phase_congruency" (the RIFT-style
    minimum-moment detector) — compared in the ablation study.
    """

    bv_image: BVImageConfig = field(default_factory=BVImageConfig)
    log_gabor: LogGaborConfig = field(default_factory=LogGaborConfig)
    fast: FastConfig = field(default_factory=FastConfig)
    descriptor: BvftConfig = field(default_factory=BvftConfig)
    bv_ransac: BVMatchRansacConfig = field(default_factory=BVMatchRansacConfig)
    box_align: BoxAlignConfig = field(default_factory=BoxAlignConfig)
    success: SuccessCriteria = field(default_factory=SuccessCriteria)
    # Sender-side encoding knobs for tiered messages.  Not part of the
    # extraction fingerprint: changing how features are *transmitted*
    # never invalidates cached features.
    comms: TierCodecConfig = field(default_factory=TierCodecConfig)
    enable_box_alignment: bool = True
    keypoint_detector: str = "fast"
    random_seed: int | None = 0

    def __post_init__(self) -> None:
        if self.keypoint_detector not in ("fast", "harris",
                                          "phase_congruency"):
            raise ValueError(
                "keypoint_detector must be 'fast', 'harris' or "
                "'phase_congruency'")
