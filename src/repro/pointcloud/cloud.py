"""The :class:`PointCloud` container.

A thin, immutable-by-convention wrapper around a ``(N, 3)`` coordinate
array plus two optional per-point channels used throughout the simulator
and pipeline:

* ``timestamps`` — capture time of each point as a fraction of the scan
  period ``[0, 1)``; drives the self-motion-distortion model.
* ``labels`` — integer semantic tag (see :class:`PointLabel`) used by the
  simulator for diagnostics and by tests to verify the BV projection keeps
  the right structure.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.geometry.se2 import SE2
from repro.geometry.se3 import SE3

__all__ = ["PointCloud", "PointLabel"]


class PointLabel(enum.IntEnum):
    """Semantic origin of a simulated lidar return."""

    UNKNOWN = 0
    GROUND = 1
    BUILDING = 2
    TREE = 3
    VEHICLE = 4
    POLE = 5


class PointCloud:
    """N lidar returns with optional timestamps and semantic labels.

    Attributes:
        points: (N, 3) float64 xyz coordinates in the sensor (or any
            caller-chosen) frame.
        timestamps: optional (N,) floats in [0, 1) — fraction of the scan
            sweep at which each point was captured.
        labels: optional (N,) int labels (:class:`PointLabel` values).
    """

    __slots__ = ("points", "timestamps", "labels")

    def __init__(self, points: np.ndarray,
                 timestamps: np.ndarray | None = None,
                 labels: np.ndarray | None = None) -> None:
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            points = points.reshape(0, 3)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        n = len(points)
        if timestamps is not None:
            timestamps = np.asarray(timestamps, dtype=float)
            if timestamps.shape != (n,):
                raise ValueError("timestamps must be one scalar per point")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int32)
            if labels.shape != (n,):
                raise ValueError("labels must be one scalar per point")
        self.points = points
        self.timestamps = timestamps
        self.labels = labels

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    @property
    def xy(self) -> np.ndarray:
        """Ground-plane coordinates, shape (N, 2)."""
        return self.points[:, :2]

    @property
    def z(self) -> np.ndarray:
        """Heights, shape (N,)."""
        return self.points[:, 2]

    def select(self, mask_or_indices) -> "PointCloud":
        """Return a new cloud containing the selected points."""
        return PointCloud(
            self.points[mask_or_indices],
            None if self.timestamps is None else self.timestamps[mask_or_indices],
            None if self.labels is None else self.labels[mask_or_indices],
        )

    def transform(self, transform: SE3 | SE2) -> "PointCloud":
        """Return the cloud expressed in a new frame.

        Accepts either a full :class:`SE3` or a planar :class:`SE2` (which
        leaves z untouched), matching how the pipeline moves data between
        vehicle viewpoints.
        """
        if isinstance(transform, SE2):
            transform = SE3.from_se2(transform)
        new_points = transform.apply(self.points)
        return PointCloud(new_points, self.timestamps, self.labels)

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.empty((0, 3)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extras = []
        if self.timestamps is not None:
            extras.append("timestamps")
        if self.labels is not None:
            extras.append("labels")
        suffix = f" +{'+'.join(extras)}" if extras else ""
        return f"PointCloud({len(self)} points{suffix})"
