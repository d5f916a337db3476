"""Tests for repro.geometry.se3 (paper Eq. 1-3)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.se2 import SE2
from repro.geometry.se3 import SE3, rotation_matrix_zyx

ANGLES = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestRotationMatrixZyx:
    def test_identity(self):
        np.testing.assert_allclose(rotation_matrix_zyx(0, 0, 0), np.eye(3))

    def test_pure_yaw(self):
        rot = rotation_matrix_zyx(np.pi / 2)
        np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_pure_pitch_tips_x_down(self):
        rot = rotation_matrix_zyx(0.0, np.pi / 2, 0.0)
        np.testing.assert_allclose(rot @ [1, 0, 0], [0, 0, -1], atol=1e-12)

    def test_pure_roll(self):
        rot = rotation_matrix_zyx(0.0, 0.0, np.pi / 2)
        np.testing.assert_allclose(rot @ [0, 1, 0], [0, 0, 1], atol=1e-12)

    @given(ANGLES, ANGLES, ANGLES)
    def test_always_proper_rotation(self, a, b, g):
        rot = rotation_matrix_zyx(a, b, g)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_matches_paper_eq2_corner_terms(self):
        # Spot-check the printed Eq. (2) entries for a generic triple.
        a, b, g = 0.3, -0.4, 0.7
        rot = rotation_matrix_zyx(a, b, g)
        assert rot[0, 0] == pytest.approx(np.cos(a) * np.cos(b))
        assert rot[2, 0] == pytest.approx(-np.sin(b))
        assert rot[2, 1] == pytest.approx(np.cos(b) * np.sin(g))
        assert rot[2, 2] == pytest.approx(np.cos(b) * np.cos(g))
        assert rot[0, 1] == pytest.approx(
            np.cos(a) * np.sin(b) * np.sin(g) - np.sin(a) * np.cos(g))


class TestSE3:
    def test_rejects_non_4x4(self):
        with pytest.raises(ValueError):
            SE3(np.eye(3))

    def test_from_se2_lift_matches_eq1(self):
        planar = SE2(0.5, 2.0, -1.0)
        lifted = SE3.from_se2(planar, tz=1.5)
        assert lifted.yaw == pytest.approx(0.5)
        np.testing.assert_allclose(lifted.translation, [2.0, -1.0, 1.5])

    def test_apply_matches_eq3_homogeneous_form(self):
        t = SE3.from_euler(0.4, 0.1, -0.2, (1.0, 2.0, 3.0))
        point = np.array([4.0, -5.0, 6.0])
        homogeneous = np.append(point, 1.0)
        expected = (t.matrix @ homogeneous)[:3]
        np.testing.assert_allclose(t.apply(point), expected, atol=1e-12)

    def test_apply_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            SE3.identity().apply(np.zeros((3, 2)))

    def test_inverse_cancels(self):
        t = SE3.from_euler(0.9, 0.05, -0.03, (10.0, -4.0, 1.0))
        np.testing.assert_allclose((t @ t.inverse()).matrix, np.eye(4),
                                   atol=1e-9)

    def test_compose_associative_with_apply(self):
        a = SE3.from_euler(0.2, 0, 0, (1, 0, 0))
        b = SE3.from_euler(-0.7, 0, 0, (0, 2, 0))
        pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose((a @ b).apply(pts),
                                   a.apply(b.apply(pts)), atol=1e-9)

    def test_matrix_is_read_only(self):
        t = SE3.identity()
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 5.0

    def test_planar_consistency_with_se2(self):
        # Lifting an SE2 and applying to z=0 points matches SE2.apply.
        planar = SE2(0.8, -2.0, 3.0)
        lifted = SE3.from_se2(planar)
        pts2 = np.array([[1.0, 1.0], [-3.0, 2.0]])
        pts3 = np.column_stack([pts2, np.zeros(2)])
        np.testing.assert_allclose(lifted.apply(pts3)[:, :2],
                                   planar.apply(pts2), atol=1e-12)
