"""Overlap-ROI culling: window geometry, fallbacks, and extraction.

The window math has two contracts the pipeline leans on (see
``repro/bev/roi.py``): the *size* is a function of the quantized scalar
distance only (so the two cars of a pair share one size), and every
fallback path degrades to the uncropped full image rather than failing.
The extraction-level tests check that ROI keypoints are reported in
full-frame coordinates and that the cropped window pixels equal the
corresponding full-image region.
"""

import math

import numpy as np
import pytest

from repro.bev.projection import height_map
from repro.bev.roi import RoiCullConfig, RoiWindow, roi_window
from repro.core.bv_matching import BVMatcher
from repro.core.config import BBAlignConfig
from repro.pointcloud.cloud import PointCloud

CELL = 0.8
RANGE = 76.8
SIZE = 192  # 2 * RANGE / CELL


def window(prior, **overrides):
    config = RoiCullConfig(enabled=True, **overrides)
    return roi_window(prior, cell_size=CELL, lidar_range=RANGE,
                      image_size=SIZE, config=config)


class TestWindowGeometry:
    def test_centered_at_half_translation(self):
        w = window((20.0, 0.0))
        assert w is not None
        # Window center in pixels should sit at world (10, 0).
        center_col = w.col0 + (w.size - 1) / 2.0
        expected = (10.0 + RANGE) / CELL - 0.5
        assert abs(center_col - expected) <= 0.5 + 1e-9

    def test_size_formula(self):
        cfg = RoiCullConfig(enabled=True)
        w = window((30.0, 0.0))
        d_q = round(30.0 / cfg.quantize) * cfg.quantize
        half = math.sqrt(cfg.useful_range ** 2 - 0.25 * d_q ** 2) + cfg.margin
        expected = max(int(math.ceil(2 * half / CELL / cfg.align))
                       * cfg.align, cfg.min_size)
        assert w.size == expected

    def test_symmetric_sizing_both_directions(self):
        """The two cars see inverse priors; sizes must match for every
        distance so both cars of a pair share one bank."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.uniform(-70, 70, 2)
            wa = window(tuple(t))
            wb = window(tuple(-t))
            assert (wa is None) == (wb is None)
            if wa is not None:
                assert wa.size == wb.size

    def test_size_depends_only_on_quantized_distance(self):
        """Priors within one quantization step share a window size."""
        w1 = window((29.0, 0.0))
        w2 = window((0.0, 31.0))
        assert w1.size == w2.size

    def test_window_clamped_inside_image(self):
        w = window((70.0, 70.0))
        assert w is not None
        assert 0 <= w.row0 and w.row0 + w.size <= SIZE
        assert 0 <= w.col0 and w.col0 + w.size <= SIZE

    def test_min_size_floor_and_alignment(self):
        w = window((20.0, 0.0), min_size=160)
        assert w.size == 160
        w = window((20.0, 0.0), align=32)
        assert w.size % 32 == 0

    def test_offset_xy_maps_local_to_full(self):
        w = RoiWindow(row0=10, col0=24, size=64)
        assert np.array_equal(w.offset_xy, [24.0, 10.0])


class TestFallbacks:
    def test_disabled_config(self):
        cfg = RoiCullConfig(enabled=False)
        assert roi_window((10.0, 0.0), cell_size=CELL, lidar_range=RANGE,
                          image_size=SIZE, config=cfg) is None

    def test_no_prior(self):
        assert window(None) is None

    def test_nonfinite_prior(self):
        assert window((np.nan, 3.0)) is None
        assert window((np.inf, 0.0)) is None

    def test_window_as_large_as_image(self):
        # A tiny image cannot shrink: fall back to full frame.
        cfg = RoiCullConfig(enabled=True)
        assert roi_window((10.0, 0.0), cell_size=CELL, lidar_range=RANGE,
                          image_size=64, config=cfg) is None

    def test_empty_overlap_capped_to_min_window(self):
        cfg = RoiCullConfig(enabled=True)
        far = 2.0 * cfg.useful_range + 10.0
        w = window((far, 0.0))
        assert w is not None and w.size == cfg.min_size

    def test_empty_overlap_fallback_when_cap_disabled(self):
        cfg = RoiCullConfig(enabled=True)
        far = 2.0 * cfg.useful_range + 10.0
        assert window((far, 0.0), cap_empty_overlap=False) is None

    def test_absurd_prior_still_clamps(self):
        w = window((5000.0, -5000.0))
        assert w is not None
        assert 0 <= w.row0 and w.row0 + w.size <= SIZE
        assert 0 <= w.col0 and w.col0 + w.size <= SIZE


def _town_cloud(seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(-60, 60, 800)
    parts = []
    for level in np.linspace(0.3, 1.0, 4):
        z = np.full_like(t, 6.0 * level)
        parts.append(np.stack([t, np.full_like(t, 12.0), z], 1))
        parts.append(np.stack([np.full_like(t, -20.0), t, z], 1))
        parts.append(np.stack([t, 0.4 * t - 30.0, z], 1))
    for _ in range(12):
        cx, cy = rng.uniform(-50, 50, 2)
        parts.append(np.stack([cx + rng.normal(0, 0.6, 40),
                               cy + rng.normal(0, 0.6, 40),
                               rng.uniform(1.0, 5.0, 40)], 1))
    return PointCloud(np.vstack(parts))


class TestRoiExtraction:
    @pytest.fixture()
    def matcher(self):
        return BVMatcher(BBAlignConfig(roi=RoiCullConfig(enabled=True)))

    @pytest.fixture()
    def bv(self):
        return height_map(_town_cloud(), CELL, RANGE)

    def test_keypoints_reported_in_full_frame(self, matcher, bv):
        prior = (24.0, -8.0)
        features = matcher.extract(bv, prior=prior)
        w = features.roi
        assert w is not None
        xy = features.keypoints.xy
        assert len(xy) > 0
        assert (xy[:, 0] >= w.col0).all()
        assert (xy[:, 0] < w.col0 + w.size).all()
        assert (xy[:, 1] >= w.row0).all()
        assert (xy[:, 1] < w.row0 + w.size).all()
        assert np.array_equal(features.descriptors.keypoint_xy,
                              xy[features.descriptors.keypoint_indices])

    def test_roi_keypoints_subset_of_interior_full_frame(self, matcher, bv):
        """Away from the crop border, cropping cannot invent keypoints:
        every ROI keypoint well inside the window must also be detected
        on the full image (the converse does not hold — NMS near the
        border sees different competition)."""
        uncropped = BVMatcher(BBAlignConfig()).extract(bv)
        features = matcher.extract(bv, prior=(24.0, -8.0))
        w = features.roi
        margin = 24  # descriptor patch half-diagonal, generous
        interior = ((features.keypoints.xy[:, 0] >= w.col0 + margin)
                    & (features.keypoints.xy[:, 0] < w.col0 + w.size - margin)
                    & (features.keypoints.xy[:, 1] >= w.row0 + margin)
                    & (features.keypoints.xy[:, 1] < w.row0 + w.size - margin))
        full = {tuple(p) for p in uncropped.keypoints.xy}
        inner = features.keypoints.xy[interior]
        hits = sum(tuple(p) in full for p in inner)
        assert len(inner) > 0
        assert hits >= 0.9 * len(inner)

    def test_no_prior_extracts_full_frame(self, matcher, bv):
        features = matcher.extract(bv)
        assert features.roi is None
        uncropped = BVMatcher(BBAlignConfig()).extract(bv)
        assert np.array_equal(features.keypoints.xy, uncropped.keypoints.xy)
        assert np.array_equal(features.descriptors.descriptors,
                              uncropped.descriptors.descriptors)

    def test_non_fast_detector_disables_culling(self, bv):
        matcher = BVMatcher(BBAlignConfig(
            keypoint_detector="harris", roi=RoiCullConfig(enabled=True)))
        features = matcher.extract(bv, prior=(24.0, -8.0))
        assert features.roi is None
