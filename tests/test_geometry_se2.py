"""Tests for repro.geometry.se2."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.se2 import SE2, rotation_matrix_2d

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
COORDS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
TRANSFORMS = st.builds(SE2, ANGLES, COORDS, COORDS)


class TestRotationMatrix:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(rotation_matrix_2d(0.0), np.eye(2))

    def test_quarter_turn(self):
        rot = rotation_matrix_2d(np.pi / 2)
        np.testing.assert_allclose(rot @ [1, 0], [0, 1], atol=1e-12)

    @given(ANGLES)
    def test_orthonormal(self, theta):
        rot = rotation_matrix_2d(theta)
        np.testing.assert_allclose(rot @ rot.T, np.eye(2), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)


class TestSE2Basics:
    def test_theta_wrapped_on_construction(self):
        t = SE2(3 * np.pi, 0, 0)
        assert -np.pi <= t.theta < np.pi

    def test_identity(self):
        ident = SE2.identity()
        pt = np.array([3.0, -2.0])
        np.testing.assert_allclose(ident.apply(pt), pt)

    def test_apply_known_transform(self):
        t = SE2(np.pi / 2, 1.0, 2.0)
        np.testing.assert_allclose(t.apply([1.0, 0.0]), [1.0, 3.0],
                                   atol=1e-12)

    def test_apply_batch_shape(self):
        t = SE2(0.3, 1, 2)
        pts = np.zeros((5, 2))
        assert t.apply(pts).shape == (5, 2)

    def test_apply_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            SE2.identity().apply(np.zeros((4, 3)))

    def test_apply_angle(self):
        t = SE2(np.pi / 4, 0, 0)
        assert t.apply_angle(np.pi / 4) == pytest.approx(np.pi / 2)


class TestSE2Algebra:
    @given(TRANSFORMS, TRANSFORMS)
    def test_compose_matches_matrix_product(self, a, b):
        composed = a @ b
        np.testing.assert_allclose(composed.matrix, a.matrix @ b.matrix,
                                   atol=1e-9)

    @given(TRANSFORMS)
    def test_inverse_cancels(self, t):
        assert (t @ t.inverse()).is_close(SE2.identity(),
                                          atol_translation=1e-6)
        assert (t.inverse() @ t).is_close(SE2.identity(),
                                          atol_translation=1e-6)

    @given(TRANSFORMS, st.lists(st.tuples(COORDS, COORDS),
                                min_size=1, max_size=5))
    def test_compose_then_apply_equals_apply_twice(self, t, pts):
        a = t
        b = SE2(0.4, 1.0, -2.0)
        pts = np.asarray(pts, dtype=float)
        lhs = (a @ b).apply(pts)
        rhs = a.apply(b.apply(pts))
        np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    @given(TRANSFORMS)
    def test_apply_preserves_distances(self, t):
        p, q = np.array([1.0, 2.0]), np.array([-4.0, 0.5])
        before = np.linalg.norm(p - q)
        after = np.linalg.norm(t.apply(p) - t.apply(q))
        assert after == pytest.approx(before, rel=1e-9)

    def test_translation_and_rotation_distance(self):
        a = SE2(0.0, 0.0, 0.0)
        b = SE2(np.deg2rad(10), 3.0, 4.0)
        assert a.translation_distance(b) == pytest.approx(5.0)
        assert a.rotation_distance(b) == pytest.approx(np.deg2rad(10))
