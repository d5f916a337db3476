"""Tests for repro.features.descriptors (BVFT)."""

import numpy as np
import pytest

from repro.bev.mim import compute_mim
from repro.bev.projection import height_map
from repro.features.descriptors import (
    BvftConfig,
    BvftDescriptorExtractor,
    DescriptorSet,
)
from repro.features.fast import FastConfig, Keypoints, detect_fast
from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud


def corner_cloud(transform: SE2 | None = None) -> PointCloud:
    """Two perpendicular walls meeting at a corner, plus a few blobs —
    a distinctive local structure for descriptor tests."""
    t = np.linspace(0, 20, 160)
    rng = np.random.default_rng(5)
    parts = []
    for f in np.linspace(0.3, 1, 5):
        z = np.full_like(t, 9 * f)
        parts.append(np.stack([t, np.zeros_like(t), z], 1))
        parts.append(np.stack([np.zeros_like(t), t, z], 1))
    for _ in range(6):
        cx, cy = rng.uniform(-15, 15, 2)
        n = 25
        parts.append(np.stack([cx + rng.normal(0, .6, n),
                               cy + rng.normal(0, .6, n),
                               rng.uniform(2, 5, n)], 1))
    pts = np.vstack(parts)
    if transform is not None:
        xy = transform.apply(pts[:, :2])
        pts = np.column_stack([xy, pts[:, 2]])
    return PointCloud(pts)


def extract(cloud, config=None):
    bv = height_map(cloud, 0.4, 25.6)
    mim = compute_mim(bv)
    keypoints = detect_fast(bv.image, FastConfig(threshold=0.3))
    extractor = BvftDescriptorExtractor(config or BvftConfig())
    return bv, extractor.compute(mim, keypoints)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(patch_size=2),
        dict(grid_size=0),
        dict(patch_size=50, grid_size=7),  # not divisible
        dict(clip_value=1.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BvftConfig(**kwargs)

    def test_descriptor_length(self):
        cfg = BvftConfig(patch_size=48, grid_size=6)
        assert cfg.descriptor_length(12) == 6 * 6 * 12


class TestExtraction:
    def test_descriptors_normalized(self):
        _, descs = extract(corner_cloud())
        assert len(descs) > 0
        norms = np.linalg.norm(descs.descriptors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_positions_align_with_rows(self):
        _, descs = extract(corner_cloud())
        assert descs.keypoint_xy.shape == (len(descs), 2)
        assert descs.keypoint_indices.shape == (len(descs),)
        assert descs.dominant_bins.shape == (len(descs),)

    def test_empty_keypoints(self):
        bv = height_map(corner_cloud(), 0.4, 25.6)
        mim = compute_mim(bv)
        out = BvftDescriptorExtractor().compute(mim, Keypoints.empty())
        assert len(out) == 0

    def test_empty_image_keypoint_dropped(self):
        mim = compute_mim(np.zeros((64, 64)))
        kp = Keypoints(np.array([[32.0, 32.0]]), np.array([1.0]))
        out = BvftDescriptorExtractor().compute(mim, kp)
        assert len(out) == 0

    def test_deterministic(self):
        _, d1 = extract(corner_cloud())
        _, d2 = extract(corner_cloud())
        np.testing.assert_array_equal(d1.descriptors, d2.descriptors)


class TestRotationInvariance:
    def test_descriptors_match_under_rotation(self):
        """The core BVFT property: the same physical structure described
        from a rotated viewpoint yields a nearby descriptor."""
        bv0, d0 = extract(corner_cloud())
        rotation = SE2(np.deg2rad(45.0), 0.0, 0.0)
        bv1, d1 = extract(corner_cloud(rotation))
        assert len(d0) > 3 and len(d1) > 3

        # Map rotated keypoints back to the original frame and pair them.
        world1 = (d1.keypoint_xy + 0.5) * bv1.cell_size - bv1.lidar_range
        world1_in_0 = rotation.inverse().apply(world1)
        pix_in_0 = bv0.world_to_pixel(world1_in_0)
        from scipy.spatial import cKDTree
        tree = cKDTree(d0.keypoint_xy)
        dist, idx = tree.query(pix_in_0, k=1)
        paired = dist < 2.0
        assert paired.sum() >= 3

        # For paired keypoints the rotated descriptor must rank its true
        # counterpart highly among all originals.
        good = 0
        for j in np.nonzero(paired)[0]:
            d_all = np.linalg.norm(d0.descriptors - d1.descriptors[j],
                                   axis=1)
            rank = int((d_all < d_all[idx[j]]).sum())
            good += rank < 5
        assert good >= paired.sum() * 0.5

    def test_rotation_invariance_off_changes_descriptors(self):
        cfg_on = BvftConfig(rotation_invariant=True)
        cfg_off = BvftConfig(rotation_invariant=False)
        _, d_on = extract(corner_cloud(), cfg_on)
        _, d_off = extract(corner_cloud(), cfg_off)
        assert len(d_on) and len(d_off)
        # With invariance off every dominant bin is 0.
        assert np.all(d_off.dominant_bins == 0)
        assert not np.all(d_on.dominant_bins == 0)


class TestDescriptorSet:
    def test_empty_constructor(self):
        empty = DescriptorSet.empty(432)
        assert len(empty) == 0
        assert empty.descriptors.shape == (0, 432)
