"""Planar rigid transforms (SE(2)).

The output of BB-Align's two matching stages is a 3-degree-of-freedom
transform ``(alpha, t_x, t_y)`` — a rotation about the vertical axis plus a
translation on the ground plane.  :class:`SE2` is the canonical
representation used across the codebase; it converts to/from 3x3
homogeneous matrices, composes, inverts and applies to point arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.angles import wrap_to_pi

__all__ = ["SE2", "rotation_matrix_2d"]


def rotation_matrix_2d(theta: float) -> np.ndarray:
    """Return the 2x2 rotation matrix for angle ``theta`` (radians)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class SE2:
    """A planar rigid transform: rotate by ``theta`` then translate.

    Applying the transform maps a point ``p`` to ``R(theta) @ p + t``.

    Attributes:
        theta: rotation angle in radians, wrapped to [-pi, pi).
        tx: translation along x in meters.
        ty: translation along y in meters.
    """

    theta: float
    tx: float
    ty: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(wrap_to_pi(self.theta)))
        object.__setattr__(self, "tx", float(self.tx))
        object.__setattr__(self, "ty", float(self.ty))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity() -> "SE2":
        """The identity transform."""
        return SE2(0.0, 0.0, 0.0)

    @staticmethod
    def from_rotation_translation(rotation: np.ndarray, translation: np.ndarray) -> "SE2":
        """Build from a 2x2 rotation matrix and a length-2 translation."""
        rotation = np.asarray(rotation, dtype=float)
        translation = np.asarray(translation, dtype=float)
        theta = float(np.arctan2(rotation[1, 0], rotation[0, 0]))
        return SE2(theta, float(translation[0]), float(translation[1]))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def rotation(self) -> np.ndarray:
        """The 2x2 rotation block."""
        return rotation_matrix_2d(self.theta)

    @property
    def translation(self) -> np.ndarray:
        """The length-2 translation vector."""
        return np.array([self.tx, self.ty])

    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 homogeneous matrix."""
        m = np.eye(3)
        m[:2, :2] = self.rotation
        m[0, 2] = self.tx
        m[1, 2] = self.ty
        return m

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def compose(self, other: "SE2") -> "SE2":
        """Return ``self @ other`` — first apply ``other``, then ``self``.

        Matches matrix composition: ``(a.compose(b)).apply(p) ==
        a.apply(b.apply(p))``.
        """
        rotation = self.rotation @ other.rotation
        translation = self.rotation @ other.translation + self.translation
        return SE2.from_rotation_translation(rotation, translation)

    def __matmul__(self, other: "SE2") -> "SE2":
        return self.compose(other)

    def inverse(self) -> "SE2":
        """Return the inverse transform."""
        inv_rot = self.rotation.T
        inv_t = -inv_rot @ self.translation
        return SE2.from_rotation_translation(inv_rot, inv_t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (N, 2) (or a single (2,) point)."""
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if pts.shape[1] != 2:
            raise ValueError(f"expected (N, 2) points, got shape {points.shape}")
        out = pts @ self.rotation.T + self.translation
        return out[0] if single else out

    def apply_angle(self, angle):
        """Rotate a heading angle by this transform's rotation."""
        return wrap_to_pi(np.asarray(angle, dtype=float) + self.theta)

    # ------------------------------------------------------------------
    # Comparison helpers
    # ------------------------------------------------------------------
    def translation_distance(self, other: "SE2") -> float:
        """Euclidean distance between the two translations."""
        return float(np.hypot(self.tx - other.tx, self.ty - other.ty))

    def rotation_distance(self, other: "SE2") -> float:
        """Absolute angular difference in radians."""
        return float(abs(wrap_to_pi(self.theta - other.theta)))

    def is_close(self, other: "SE2", atol_translation: float = 1e-6,
                 atol_rotation: float = 1e-8) -> bool:
        """True when both transforms are numerically indistinguishable."""
        return (self.translation_distance(other) <= atol_translation
                and self.rotation_distance(other) <= atol_rotation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SE2(theta={np.degrees(self.theta):.3f}deg, "
                f"tx={self.tx:.3f}, ty={self.ty:.3f})")
