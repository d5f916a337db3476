"""Oriented bounding boxes.

:class:`Box3D` is what an object detector outputs (center, dimensions,
yaw); :class:`Box2D` is its bird's-eye-view projection — the rotated
rectangle stage 2 of BB-Align aligns.  Corner ordering follows the paper's
requirement of a *consistent* sequence: corners are emitted in
counter-clockwise local order starting from (+length/2, +width/2), so two
views of the same box produce the same sequence up to a cyclic shift,
which :func:`repro.boxes.matching.pair_corners` resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.geometry.angles import wrap_to_pi
from repro.geometry.se2 import SE2
from repro.geometry.se3 import SE3

__all__ = ["Box2D", "Box3D"]

# Local-frame unit corners, CCW starting at front-left: the order every
# corner sequence in this codebase follows.
_UNIT_CORNERS = np.array([
    [0.5, 0.5],
    [-0.5, 0.5],
    [-0.5, -0.5],
    [0.5, -0.5],
])


@dataclass(frozen=True)
class Box2D:
    """A rotated rectangle on the ground plane.

    Attributes:
        center_x, center_y: BEV center in meters.
        length: extent along the heading axis.
        width: extent across the heading axis.
        yaw: heading angle in radians.
    """

    center_x: float
    center_y: float
    length: float
    width: float
    yaw: float

    def __post_init__(self) -> None:
        if self.length <= 0 or self.width <= 0:
            raise ValueError("box dimensions must be positive")
        object.__setattr__(self, "yaw", float(wrap_to_pi(self.yaw)))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.center_x, self.center_y])

    @property
    def area(self) -> float:
        return self.length * self.width

    @property
    def diagonal(self) -> float:
        """Corner-to-corner distance; a cheap IoU prefilter radius."""
        return float(np.hypot(self.length, self.width))

    def corners(self) -> np.ndarray:
        """(4, 2) corner coordinates in the consistent CCW order."""
        local = _UNIT_CORNERS * np.array([self.length, self.width])
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + self.center

    def transform(self, transform: SE2) -> "Box2D":
        """Express the box in a new frame."""
        new_center = transform.apply(self.center)
        return Box2D(float(new_center[0]), float(new_center[1]),
                     self.length, self.width,
                     float(transform.apply_angle(self.yaw)))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of (N, 2) points inside the rectangle."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        rel = points - self.center
        c, s = np.cos(-self.yaw), np.sin(-self.yaw)
        local_x = c * rel[:, 0] - s * rel[:, 1]
        local_y = s * rel[:, 0] + c * rel[:, 1]
        return ((np.abs(local_x) <= self.length / 2.0)
                & (np.abs(local_y) <= self.width / 2.0))


@dataclass(frozen=True)
class Box3D:
    """A 3-D oriented box (ground-vehicle convention: yaw only).

    Attributes:
        center_x, center_y, center_z: box center in meters.
        length, width, height: extents along heading / across / vertical.
        yaw: heading angle in radians.
    """

    center_x: float
    center_y: float
    center_z: float
    length: float
    width: float
    height: float
    yaw: float

    def __post_init__(self) -> None:
        if min(self.length, self.width, self.height) <= 0:
            raise ValueError("box dimensions must be positive")
        object.__setattr__(self, "yaw", float(wrap_to_pi(self.yaw)))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.center_x, self.center_y, self.center_z])

    def to_bev(self) -> Box2D:
        """Project to the BEV rotated rectangle (paper Algorithm 1, l.2)."""
        return Box2D(self.center_x, self.center_y, self.length, self.width,
                     self.yaw)

    def corners(self) -> np.ndarray:
        """(8, 3) corners: bottom face CCW then top face CCW, each
        following the consistent 2-D order."""
        bev = self.to_bev().corners()
        z_lo = self.center_z - self.height / 2.0
        z_hi = self.center_z + self.height / 2.0
        bottom = np.column_stack([bev, np.full(4, z_lo)])
        top = np.column_stack([bev, np.full(4, z_hi)])
        return np.vstack([bottom, top])

    def transform(self, transform: SE3 | SE2) -> "Box3D":
        """Express the box in a new frame (planar transforms keep z)."""
        if isinstance(transform, SE2):
            transform = SE3.from_se2(transform)
        new_center = transform.apply(self.center)
        new_yaw = wrap_to_pi(self.yaw + transform.yaw)
        return Box3D(float(new_center[0]), float(new_center[1]),
                     float(new_center[2]), self.length, self.width,
                     self.height, float(new_yaw))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of (N, 3) points inside the box."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        in_bev = self.to_bev().contains(points[:, :2])
        in_z = np.abs(points[:, 2] - self.center_z) <= self.height / 2.0
        return in_bev & in_z

    def with_center(self, x: float, y: float, z: float | None = None) -> "Box3D":
        """Copy with a new center (z unchanged when omitted)."""
        return replace(self, center_x=float(x), center_y=float(y),
                       center_z=self.center_z if z is None else float(z))
