"""Pre-optimization BV projection, the twin of ``repro.bev.height_map``.

The original binning: an elementwise finite reduction and an ``(N, 2)``
xy copy before the range mask.  The fused projection must stay
byte-identical to it, non-finite rejection count included.
"""

from __future__ import annotations

import numpy as np

from repro.bev.projection import BVImage
from repro.pointcloud.cloud import PointCloud


def reference_cell_indices(cloud: PointCloud, cell_size: float,
                           lidar_range: float,
                           ) -> tuple[np.ndarray, np.ndarray, int,
                                      np.ndarray, int]:
    if cell_size <= 0 or lidar_range <= 0:
        raise ValueError("cell_size and lidar_range must be positive")
    size = int(round(2.0 * lidar_range / cell_size))
    if size < 1:
        raise ValueError("lidar_range/cell_size too small for a 1x1 image")
    finite = np.isfinite(cloud.points).all(axis=1)
    num_nonfinite = int(len(finite) - np.count_nonzero(finite))
    xy = cloud.xy
    in_range = (finite
                & (xy[:, 0] >= -lidar_range) & (xy[:, 0] < lidar_range)
                & (xy[:, 1] >= -lidar_range) & (xy[:, 1] < lidar_range))
    xy = xy[in_range]
    cols = np.floor((xy[:, 0] + lidar_range) / cell_size).astype(np.int64)
    rows = np.floor((xy[:, 1] + lidar_range) / cell_size).astype(np.int64)
    np.clip(cols, 0, size - 1, out=cols)
    np.clip(rows, 0, size - 1, out=rows)
    return rows, cols, size, in_range, num_nonfinite


def reference_height_map(cloud: PointCloud, cell_size: float = 0.4,
                         lidar_range: float = 50.0,
                         min_height: float = 0.0,
                         max_height: float | None = 5.0) -> BVImage:
    """Pre-optimization :func:`height_map`; must stay byte-identical."""
    if max_height is not None and max_height <= min_height:
        raise ValueError("max_height must exceed min_height")
    rows, cols, size, in_range, nonfinite = reference_cell_indices(
        cloud, cell_size, lidar_range)
    image = np.zeros((size, size))
    if len(rows):
        z = np.maximum(cloud.z[in_range], min_height)
        if max_height is not None:
            z = np.minimum(z, max_height)
        flat = rows * size + cols
        flat_img = image.reshape(-1)
        np.maximum.at(flat_img, flat, z)
    return BVImage(image, cell_size, lidar_range, num_nonfinite=nonfinite)
