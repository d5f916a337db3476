"""Tests for repro.bev.projection (paper Eq. 4 and coordinate maps)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bev.projection import BVImage, density_map, height_map
from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud


class TestHeightMap:
    def test_single_point_sets_pixel(self):
        cloud = PointCloud(np.array([[0.1, 0.1, 3.0]]))
        bv = height_map(cloud, cell_size=1.0, lidar_range=4.0,
                        max_height=None)
        assert bv.size == 8
        assert bv.image.max() == pytest.approx(3.0)
        # x=0.1 -> col 4, y=0.1 -> row 4
        assert bv.image[4, 4] == pytest.approx(3.0)

    def test_max_per_cell(self):
        pts = np.array([[0.1, 0.1, 1.0], [0.2, 0.2, 5.0], [0.3, 0.1, 2.0]])
        bv = height_map(PointCloud(pts), 1.0, 4.0, max_height=None)
        assert bv.image[4, 4] == pytest.approx(5.0)

    def test_out_of_range_ignored(self):
        pts = np.array([[100.0, 0.0, 3.0]])
        bv = height_map(PointCloud(pts), 1.0, 4.0)
        assert bv.image.max() == 0.0

    def test_min_height_clamps_below(self):
        pts = np.array([[0.1, 0.1, -2.0]])
        bv = height_map(PointCloud(pts), 1.0, 4.0, min_height=0.0)
        assert bv.image.min() == 0.0

    def test_max_height_clamps_above(self):
        pts = np.array([[0.1, 0.1, 50.0]])
        bv = height_map(PointCloud(pts), 1.0, 4.0, max_height=5.0)
        assert bv.image.max() == pytest.approx(5.0)

    def test_rejects_max_below_min(self):
        with pytest.raises(ValueError):
            height_map(PointCloud.empty(), 1.0, 4.0, min_height=2.0,
                       max_height=1.0)

    def test_empty_cloud(self):
        bv = height_map(PointCloud.empty(), 0.4, 10.0)
        assert bv.image.max() == 0.0

    def test_ground_points_invisible(self):
        # Eq. 4 discussion: ground hits (z=0) leave cells at 0 intensity.
        pts = np.array([[1.0, 1.0, 0.0]])
        bv = height_map(PointCloud(pts), 1.0, 4.0)
        assert bv.image.max() == 0.0

    def test_image_size_formula(self):
        bv = height_map(PointCloud.empty(), 0.4, 51.2)
        assert bv.size == 256


class TestDensityMap:
    def test_counts_points(self):
        pts = np.tile([[0.1, 0.1, 1.0]], (7, 1))
        bv = density_map(PointCloud(pts), 1.0, 4.0, log_scale=False)
        assert bv.image[4, 4] == pytest.approx(7.0)

    def test_log_scale(self):
        pts = np.tile([[0.1, 0.1, 1.0]], (7, 1))
        bv = density_map(PointCloud(pts), 1.0, 4.0, log_scale=True)
        assert bv.image[4, 4] == pytest.approx(np.log1p(7.0))


class TestBVImage:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            BVImage(np.zeros((4, 5)), 1.0, 2.0)

    def test_sparsity(self):
        img = np.zeros((10, 10))
        img[0, 0] = 1.0
        assert BVImage(img, 1.0, 5.0).sparsity() == pytest.approx(0.99)

    def test_message_size(self):
        bv = BVImage(np.zeros((192, 192)), 0.8, 76.8)
        assert bv.message_size_bytes(8) == 192 * 192

    @given(st.floats(-3, 3), st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=40, deadline=None)
    def test_pixel_world_transform_conjugation(self, theta, tx, ty):
        """The pixel->world transform conversion must commute with the
        coordinate mapping: world_to_pixel(T_world(p)) ==
        T_pix(world_to_pixel(p))."""
        bv = BVImage(np.zeros((128, 128)), 0.4, 25.6)
        t_pix = SE2(theta, tx, ty)
        t_world = bv.pixel_transform_to_world(t_pix)
        pts = np.array([[1.0, 2.0], [-5.0, 7.0], [0.0, 0.0]])
        lhs = bv.world_to_pixel(t_world.apply(pts))
        rhs = t_pix.apply(bv.world_to_pixel(pts))
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)
