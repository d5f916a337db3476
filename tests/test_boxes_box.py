"""Tests for repro.boxes.box."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boxes.box import Box2D, Box3D
from repro.geometry.polygon import is_counterclockwise
from repro.geometry.se2 import SE2
from repro.geometry.se3 import SE3

YAWS = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


class TestBox2D:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Box2D(0, 0, 0.0, 1.0, 0.0)

    def test_corners_ccw_and_consistent_order(self):
        box = Box2D(0, 0, 4.0, 2.0, 0.0)
        corners = box.corners()
        assert corners.shape == (4, 2)
        assert is_counterclockwise(corners)
        # First corner is front-left: (+l/2, +w/2).
        np.testing.assert_allclose(corners[0], [2.0, 1.0])

    @given(YAWS)
    @settings(max_examples=30, deadline=None)
    def test_corners_rotate_with_yaw(self, yaw):
        box = Box2D(1.0, -2.0, 4.0, 2.0, yaw)
        corners = box.corners()
        # Corner distances from center are yaw-invariant.
        dists = np.linalg.norm(corners - box.center, axis=1)
        np.testing.assert_allclose(dists, box.diagonal / 2, atol=1e-9)

    def test_area_and_diagonal(self):
        box = Box2D(0, 0, 3.0, 4.0, 0.7)
        assert box.area == pytest.approx(12.0)
        assert box.diagonal == pytest.approx(5.0)

    @given(YAWS, st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=30, deadline=None)
    def test_transform_commutes_with_corners(self, theta, tx, ty):
        box = Box2D(2.0, 3.0, 4.5, 1.9, 0.4)
        t = SE2(theta, tx, ty)
        np.testing.assert_allclose(box.transform(t).corners(),
                                   t.apply(box.corners()), atol=1e-9)

    def test_contains(self):
        box = Box2D(0, 0, 4.0, 2.0, np.pi / 2)  # rotated: long axis on y
        inside = box.contains(np.array([[0.0, 1.9], [0.9, 0.0]]))
        outside = box.contains(np.array([[1.1, 0.0], [0.0, 2.1]]))
        assert inside.all()
        assert not outside.any()


class TestBox3D:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 4.0, 2.0, 0.0, 0.0)

    def test_to_bev_projection(self):
        box = Box3D(1, 2, 0.9, 4.0, 2.0, 1.8, 0.3)
        bev = box.to_bev()
        assert (bev.center_x, bev.center_y) == (1, 2)
        assert bev.length == 4.0 and bev.width == 2.0
        assert bev.yaw == pytest.approx(0.3)

    def test_corners_shape_and_heights(self):
        box = Box3D(0, 0, 0.9, 4.0, 2.0, 1.8, 0.0)
        corners = box.corners()
        assert corners.shape == (8, 3)
        np.testing.assert_allclose(corners[:4, 2], 0.0, atol=1e-12)
        np.testing.assert_allclose(corners[4:, 2], 1.8, atol=1e-12)

    def test_transform_se2_keeps_z(self):
        box = Box3D(5, 5, 0.9, 4.0, 2.0, 1.8, 0.0)
        moved = box.transform(SE2(np.pi / 2, 0.0, 0.0))
        assert moved.center_z == pytest.approx(0.9)
        assert moved.center_x == pytest.approx(-5.0)
        assert moved.center_y == pytest.approx(5.0)
        assert moved.yaw == pytest.approx(np.pi / 2)

    def test_transform_matches_corner_transform(self):
        box = Box3D(2, -1, 0.8, 4.5, 1.9, 1.6, 0.5)
        t = SE3.from_se2(SE2(0.9, 3.0, -4.0))
        np.testing.assert_allclose(box.transform(t).corners(),
                                   t.apply(box.corners()), atol=1e-9)

    def test_contains_3d(self):
        box = Box3D(0, 0, 1.0, 4.0, 2.0, 2.0, 0.0)
        assert box.contains(np.array([[0.0, 0.0, 1.0]]))[0]
        assert not box.contains(np.array([[0.0, 0.0, 2.5]]))[0]

    def test_with_center(self):
        box = Box3D(0, 0, 1, 2.0, 3.0, 4.0, 0.5)
        moved = box.with_center(7.0, 8.0)
        assert (moved.center_x, moved.center_y) == (7.0, 8.0)
        assert moved.center_z == 1.0
        assert moved.yaw == box.yaw
