"""3-D homogeneous transforms and the paper's SE(2) -> SE(3) lift.

Section III of the paper recovers the planar pose ``(alpha, t_x, t_y)`` and
then constructs the full 3-D transform ``T`` of Eq. (1) by combining the
estimated parameters with the (assumed constant) pitch, roll and z-shift.
:func:`rotation_matrix_zyx` is exactly the paper's Eq. (2) with
``alpha`` = yaw, ``beta`` = pitch, ``gamma`` = roll; :meth:`SE3.from_se2`
is Eq. (1); :meth:`SE3.apply` is Eq. (3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.se2 import SE2

__all__ = ["SE3", "rotation_matrix_zyx"]


def rotation_matrix_zyx(alpha: float, beta: float = 0.0, gamma: float = 0.0) -> np.ndarray:
    """Rotation matrix R(alpha, beta, gamma) of the paper's Eq. (2).

    Composed as ``Rz(yaw) @ Ry(pitch) @ Rx(roll)`` from the canonical axis
    rotations, which expands to exactly the matrix printed in Eq. (2).

    Args:
        alpha: yaw (rotation about z), radians.
        beta: pitch (rotation about y), radians.
        gamma: roll (rotation about x), radians.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
    return rz @ ry @ rx


@dataclass(frozen=True)
class SE3:
    """A 3-D rigid transform stored as a 4x4 homogeneous matrix."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {matrix.shape}")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity() -> "SE3":
        return SE3(np.eye(4))

    @staticmethod
    def from_rotation_translation(rotation: np.ndarray,
                                  translation: np.ndarray) -> "SE3":
        """Build from a 3x3 rotation matrix and a length-3 translation."""
        m = np.eye(4)
        m[:3, :3] = np.asarray(rotation, dtype=float)
        m[:3, 3] = np.asarray(translation, dtype=float)
        return SE3(m)

    @staticmethod
    def from_euler(alpha: float, beta: float = 0.0, gamma: float = 0.0,
                   translation=(0.0, 0.0, 0.0)) -> "SE3":
        """Build from yaw/pitch/roll (paper Eq. 2) and a translation."""
        return SE3.from_rotation_translation(
            rotation_matrix_zyx(alpha, beta, gamma), np.asarray(translation))

    @staticmethod
    def from_se2(planar: SE2, tz: float = 0.0, beta: float = 0.0,
                 gamma: float = 0.0) -> "SE3":
        """Lift a planar transform to 3-D — the paper's Eq. (1).

        ``alpha, t_x, t_y`` come from the estimated planar transform while
        pitch ``beta``, roll ``gamma`` and ``t_z`` are the pre-defined
        constants of the ground-vehicle assumption.
        """
        return SE3.from_euler(planar.theta, beta, gamma,
                              (planar.tx, planar.ty, tz))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:3, 3]

    @property
    def yaw(self) -> float:
        """Extract the yaw angle (alpha) from the rotation block."""
        return float(np.arctan2(self.matrix[1, 0], self.matrix[0, 0]))

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def compose(self, other: "SE3") -> "SE3":
        """Return ``self @ other`` — apply ``other`` first, then ``self``."""
        return SE3(self.matrix @ other.matrix)

    def __matmul__(self, other: "SE3") -> "SE3":
        return self.compose(other)

    def inverse(self) -> "SE3":
        rot_t = self.rotation.T
        m = np.eye(4)
        m[:3, :3] = rot_t
        m[:3, 3] = -rot_t @ self.translation
        return SE3(m)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (N, 3) — the paper's Eq. (3).

        Equivalent to appending a homogeneous 1, multiplying by ``T`` and
        keeping the first three components.
        """
        points = np.asarray(points, dtype=float)
        single = points.ndim == 1
        pts = np.atleast_2d(points)
        if pts.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got shape {points.shape}")
        out = pts @ self.rotation.T + self.translation
        return out[0] if single else out

    def is_close(self, other: "SE3", atol: float = 1e-8) -> bool:
        return bool(np.allclose(self.matrix, other.matrix, atol=atol))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        t = self.translation
        return (f"SE3(yaw={np.degrees(self.yaw):.3f}deg, "
                f"t=({t[0]:.3f}, {t[1]:.3f}, {t[2]:.3f}))")
