"""Tests for repro.core.bv_matching (stage 1)."""

import dataclasses

import numpy as np
import pytest

from repro.core import bv_matching
from repro.core.bv_matching import BVMatcher
from repro.core.config import BBAlignConfig, BVMatchRansacConfig
from repro.features.descriptors import BvftDescriptorExtractor
from repro.features.fast import Keypoints
from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud


def structured_world(rng):
    """Random walls + blobs (world frame), rich enough to match on."""
    parts = []
    for _ in range(12):
        x0, y0 = rng.uniform(-45, 45, 2)
        ang = rng.uniform(0, np.pi)
        n = 120
        t = np.linspace(0, rng.uniform(10, 25), n)
        xs, ys = x0 + np.cos(ang) * t, y0 + np.sin(ang) * t
        for f in np.linspace(0.3, 1.0, 5):
            parts.append(np.stack([xs, ys, np.full(n, 9 * f)], 1))
    for _ in range(20):
        cx, cy = rng.uniform(-45, 45, 2)
        n = 25
        parts.append(np.stack([cx + rng.normal(0, .7, n),
                               cy + rng.normal(0, .7, n),
                               rng.uniform(2, 5, n)], 1))
    return np.vstack(parts)


@pytest.fixture(scope="module")
def world_points():
    return structured_world(np.random.default_rng(0))


def clouds_for(world, relative: SE2):
    ego = PointCloud(world)
    xy = relative.inverse().apply(world[:, :2])
    other = PointCloud(np.column_stack([xy, world[:, 2]]))
    return ego, other


class TestStage1:
    @pytest.mark.parametrize("theta_deg,tx,ty", [
        (0.0, 10.0, -5.0),
        (30.0, 5.0, 5.0),
        (90.0, -10.0, 3.0),
        (180.0, 0.0, 8.0),
        (-120.0, 6.0, -6.0),
    ])
    def test_recovers_known_transform(self, world_points, theta_deg, tx, ty):
        gt = SE2(np.deg2rad(theta_deg), tx, ty)
        ego, other = clouds_for(world_points, gt)
        matcher = BVMatcher(BBAlignConfig())
        result = matcher.match_clouds(other, ego, rng=0)
        assert result.success
        assert result.transform.translation_distance(gt) < 1.5
        assert np.degrees(result.transform.rotation_distance(gt)) < 1.5

    def test_empty_clouds_fail_gracefully(self):
        matcher = BVMatcher(BBAlignConfig())
        result = matcher.match_clouds(PointCloud.empty(),
                                      PointCloud.empty(), rng=0)
        assert not result.success
        assert result.inliers_bv == 0

    def test_flip_disambiguation_needed_beyond_90_degrees(self, world_points):
        """With pi disambiguation off, a near-180-degree pair must not
        out-perform the disambiguated matcher — demonstrating why the
        second hypothesis exists."""
        gt = SE2(np.deg2rad(175.0), 3.0, -2.0)
        ego, other = clouds_for(world_points, gt)
        on = BVMatcher(BBAlignConfig())
        off = BVMatcher(BBAlignConfig(
            bv_ransac=BVMatchRansacConfig(disambiguate_pi=False)))
        res_on = on.match_clouds(other, ego, rng=0)
        res_off = off.match_clouds(other, ego, rng=0)
        assert res_on.transform.translation_distance(gt) < 1.5
        assert res_on.inliers_bv >= res_off.inliers_bv

    def test_used_flip_flag(self, world_points):
        gt = SE2(np.deg2rad(178.0), 1.0, 1.0)
        ego, other = clouds_for(world_points, gt)
        result = BVMatcher(BBAlignConfig()).match_clouds(other, ego, rng=0)
        assert result.used_flip

    def test_deterministic_given_seed(self, world_points):
        gt = SE2(0.4, 5.0, 2.0)
        ego, other = clouds_for(world_points, gt)
        matcher = BVMatcher(BBAlignConfig())
        r1 = matcher.match_clouds(other, ego, rng=3)
        r2 = matcher.match_clouds(other, ego, rng=3)
        assert r1.transform.is_close(r2.transform)
        assert r1.inliers_bv == r2.inliers_bv


class TestBVFeaturesFlip:
    """The π-flip hypothesis is ``flipped_set`` of the other car's
    descriptors: a cell permutation at mirrored keypoints."""

    @pytest.fixture(scope="class")
    def flip(self, world_points):
        matcher = BVMatcher(BBAlignConfig())
        features = matcher.extract_from_cloud(PointCloud(world_points))
        extractor = BvftDescriptorExtractor(matcher.config.descriptor)
        size = features.bv_image.size
        return features, extractor.flipped_set(features.descriptors,
                                               size), extractor, size

    def test_flip_is_involution_on_positions(self, flip):
        """Flipping the descriptor set twice gives back the original bit
        for bit: cells, mirrored positions, indices and dominant bins."""
        features, flipped, extractor, size = flip
        original = features.descriptors
        assert len(original) > 0
        assert np.array_equal(flipped.keypoint_xy,
                              (size - 1) - original.keypoint_xy)
        twice = extractor.flipped_set(flipped, size)
        for name in ("descriptors", "keypoint_xy", "keypoint_indices",
                     "dominant_bins"):
            got, want = getattr(twice, name), getattr(original, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name

    def test_flip_preserves_mim_values(self, flip):
        """A 180-degree rotation moves MIM pixels without changing their
        values, so each flipped descriptor holds the same histogram
        votes in permuted cells, under the same dominant orientation."""
        features, flipped, _, _ = flip
        original = features.descriptors
        assert np.array_equal(flipped.dominant_bins, original.dominant_bins)
        assert np.array_equal(np.sort(flipped.descriptors, axis=1),
                              np.sort(original.descriptors, axis=1))
        assert not np.array_equal(flipped.descriptors, original.descriptors)

    def test_features_keep_no_mim(self, flip):
        features = flip[0]
        assert [f.name for f in dataclasses.fields(features)] == [
            "bv_image", "num_orientations", "keypoints", "descriptors",
            "roi"]
        assert features.num_orientations == 12


class TestIntegralKeypoints:
    def test_subpixel_keypoint_refused(self, world_points, monkeypatch):
        """The flip hypothesis permutes descriptor cells, which is exact
        only at integral pixels: a detector that returns a .5
        coordinate makes extraction raise."""
        def half_pixel(image, config):
            return Keypoints(np.array([[40.0, 41.0], [60.5, 70.0]]),
                             np.ones(2))

        monkeypatch.setattr(bv_matching, "detect_fast", half_pixel)
        matcher = BVMatcher(BBAlignConfig())
        with pytest.raises(ValueError, match="non-integral"):
            matcher.extract_from_cloud(PointCloud(world_points))
