"""Tests for repro.pointcloud.cloud."""

import numpy as np
import pytest

from repro.geometry.se2 import SE2
from repro.geometry.se3 import SE3
from repro.pointcloud.cloud import PointCloud, PointLabel


class TestConstruction:
    def test_basic(self, rng):
        pts = rng.normal(0, 1, (10, 3))
        cloud = PointCloud(pts)
        assert len(cloud) == 10
        assert cloud.timestamps is None and cloud.labels is None

    def test_empty(self):
        cloud = PointCloud.empty()
        assert len(cloud) == 0
        assert cloud.points.shape == (0, 3)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 2)))

    def test_rejects_mismatched_timestamps(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 3)), timestamps=np.zeros(4))

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 3)), labels=np.zeros(6, dtype=int))

    def test_accessors(self):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        cloud = PointCloud(pts)
        np.testing.assert_allclose(cloud.xy, pts[:, :2])
        np.testing.assert_allclose(cloud.z, pts[:, 2])


class TestSelect:
    def test_select_by_mask_keeps_channels(self, rng):
        pts = rng.normal(0, 1, (6, 3))
        ts = rng.random(6)
        labels = np.arange(6, dtype=np.int32)
        cloud = PointCloud(pts, ts, labels)
        mask = np.array([True, False, True, False, True, False])
        sub = cloud.select(mask)
        assert len(sub) == 3
        np.testing.assert_allclose(sub.timestamps, ts[mask])
        np.testing.assert_array_equal(sub.labels, labels[mask])

    def test_select_by_indices(self, rng):
        cloud = PointCloud(rng.normal(0, 1, (6, 3)))
        sub = cloud.select([0, 5])
        assert len(sub) == 2


class TestTransform:
    def test_se3_transform(self, rng):
        pts = rng.normal(0, 5, (20, 3))
        cloud = PointCloud(pts)
        t = SE3.from_euler(0.3, 0.0, 0.0, (1.0, 2.0, 3.0))
        out = cloud.transform(t)
        np.testing.assert_allclose(out.points, t.apply(pts))

    def test_se2_transform_keeps_z(self, rng):
        pts = rng.normal(0, 5, (20, 3))
        cloud = PointCloud(pts)
        out = cloud.transform(SE2(0.7, 1.0, -1.0))
        np.testing.assert_allclose(out.z, pts[:, 2])

    def test_transform_preserves_channels(self, rng):
        pts = rng.normal(0, 1, (4, 3))
        cloud = PointCloud(pts, rng.random(4),
                           np.full(4, PointLabel.TREE, dtype=np.int32))
        out = cloud.transform(SE2(1.0, 0.0, 0.0))
        assert out.timestamps is cloud.timestamps
        assert out.labels is cloud.labels

    def test_roundtrip(self, rng):
        pts = rng.normal(0, 5, (15, 3))
        cloud = PointCloud(pts)
        t = SE2(0.9, 3.0, -2.0)
        back = cloud.transform(t).transform(t.inverse())
        np.testing.assert_allclose(back.points, pts, atol=1e-9)


class TestLabels:
    def test_point_label_enum_values_distinct(self):
        values = [label.value for label in PointLabel]
        assert len(values) == len(set(values))
