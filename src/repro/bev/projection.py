"""BV image generation from point clouds (paper Eq. 4).

The paper partitions points into 2-D ground-plane cells of size ``c``
inside the square ``[-R, R]^2`` and uses the **maximum height** per cell as
the pixel intensity (the *height map*), preferring tall static structure
(buildings, trees) as landmarks and implicitly suppressing ground returns.
The *density map* alternative (point count per cell) is provided as the
baseline the paper argues against.

Pixel convention: ``row = floor((y + R) / c)``, ``col = floor((x + R) /
c)``.  This mapping is a pure scale + translation of the world frame (no
axis flip), so a rigid transform estimated between two BV images in pixel
coordinates converts to a world-frame transform by scaling the translation
by ``c`` and keeping the rotation angle — see :meth:`BVImage.pixel_transform_to_world`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud

__all__ = ["BVImage", "height_map", "density_map"]


@dataclass(frozen=True)
class BVImage:
    """A BV image plus the metadata needed to map pixels back to meters.

    Attributes:
        image: (H, H) float array; intensity per Eq. (4) (or point count
            for density maps).  Empty cells are 0.
        cell_size: ground-plane cell edge length ``c`` in meters.
        lidar_range: half-extent ``R`` in meters; image spans [-R, R]^2.
        num_nonfinite: input points rejected at the projection boundary
            for carrying NaN/inf coordinates — a single NaN admitted
            into a cell would otherwise propagate through the whole
            Log-Gabor bank and poison every downstream descriptor.
    """

    image: np.ndarray
    cell_size: float
    lidar_range: float
    num_nonfinite: int = 0

    def __post_init__(self) -> None:
        image = np.asarray(self.image, dtype=float)
        if image.ndim != 2 or image.shape[0] != image.shape[1]:
            raise ValueError(f"expected a square image, got {image.shape}")
        object.__setattr__(self, "image", image)

    @property
    def size(self) -> int:
        """Image side length ``H = 2R / c`` in pixels."""
        return self.image.shape[0]

    # ------------------------------------------------------------------
    # Coordinate mapping
    # ------------------------------------------------------------------
    def world_to_pixel(self, xy: np.ndarray) -> np.ndarray:
        """Map world (x, y) meters to continuous (col, row) pixel coords.

        The returned coordinates place a point at the *center* of its cell
        when it lies at the cell center in the world.
        """
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        return (xy + self.lidar_range) / self.cell_size - 0.5

    def pixel_transform_to_world(self, pixel_transform: SE2) -> SE2:
        """Convert a rigid transform between two same-config BV images
        (in (col, row) pixel coordinates) into a world-frame transform.

        With ``p_pix = (p_world + R) / c - 0.5`` the conjugation works out
        to: same rotation, translation scaled by ``c`` plus a term from the
        rotated offset of the image origin.
        """
        theta = pixel_transform.theta
        # With p_pix = p_world / c + o (o = R/c - 0.5 on both axes):
        #   p'_world = Rot p_world + c (Rot o - o + t_pix)
        offset = self.lidar_range / self.cell_size - 0.5
        o = np.array([offset, offset])
        rot = pixel_transform.rotation
        t_pix = pixel_transform.translation
        t_world = self.cell_size * (rot @ o - o + t_pix)
        return SE2(theta, float(t_world[0]), float(t_world[1]))

    # ------------------------------------------------------------------
    def sparsity(self) -> float:
        """Fraction of empty pixels — the paper's central difficulty."""
        return float(np.mean(self.image == 0))

    def message_size_bytes(self, bits_per_pixel: int = 8) -> int:
        """Approximate transmission cost of this image (paper's bandwidth
        argument); assumes simple fixed-point quantization, no entropy
        coding."""
        return int(np.ceil(self.image.size * bits_per_pixel / 8))


_ONES3 = np.ones(3)


def _cell_indices(cloud: PointCloud, cell_size: float, lidar_range: float,
                  ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, int]:
    """Common binning: returns (rows, cols, H, in_range_mask, nonfinite).

    Points with any non-finite coordinate are rejected here — the
    projection is the validation boundary between raw sensor data and
    the numeric pipeline, and a NaN height written into one cell would
    spread through the Log-Gabor bank products to the entire MIM.  The
    rejected count is surfaced on the returned image so callers can
    report it in recovery diagnostics.

    The finite screen rides one BLAS row-sum: a row sum is finite iff
    every coordinate is (a NaN propagates, a lone inf survives, and an
    inf pair cancels to NaN).  The only false *negatives* are finite
    rows whose sum overflows to inf, so exactly those flagged rows get
    the elementwise re-check — the mask is bit-identical to
    ``np.isfinite(points).all(axis=1)`` at a third of the cost.
    """
    if cell_size <= 0 or lidar_range <= 0:
        raise ValueError("cell_size and lidar_range must be positive")
    size = int(round(2.0 * lidar_range / cell_size))
    if size < 1:
        raise ValueError("lidar_range/cell_size too small for a 1x1 image")
    points = cloud.points
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(points @ _ONES3)
    if not finite.all():
        flagged = np.flatnonzero(~finite)
        finite[flagged] = np.isfinite(points[flagged]).all(axis=1)
    num_nonfinite = int(len(finite) - np.count_nonzero(finite))
    x = points[:, 0]
    y = points[:, 1]
    # NaN coordinates fail every comparison and infs fail one bound, so
    # chaining in-place &= over the column views reproduces the original
    # mask without materializing four intermediate bool arrays (or the
    # (N, 2) fancy-indexed copy of xy the old code sliced from).
    in_range = finite
    in_range &= x >= -lidar_range
    in_range &= x < lidar_range
    in_range &= y >= -lidar_range
    in_range &= y < lidar_range
    cols = np.floor((x[in_range] + lidar_range) / cell_size).astype(np.int64)
    rows = np.floor((y[in_range] + lidar_range) / cell_size).astype(np.int64)
    np.clip(cols, 0, size - 1, out=cols)
    np.clip(rows, 0, size - 1, out=rows)
    return rows, cols, size, in_range, num_nonfinite


def height_map(cloud: PointCloud, cell_size: float = 0.4,
               lidar_range: float = 50.0,
               min_height: float = 0.0,
               max_height: float | None = 5.0) -> BVImage:
    """Height-map BV image: per-cell maximum z (paper Eq. 4).

    Args:
        cloud: input scan in the sensor frame.
        cell_size: cell edge ``c`` in meters.
        lidar_range: half-extent ``R``; image covers [-R, R]^2.
        min_height: heights are clamped below at this value so that
            below-sensor returns cannot produce negative intensities; empty
            cells stay exactly 0.
        max_height: heights are clamped above at this value.  Two sensors
            at different distances from a tall wall see the wall up to
            different heights, so the raw per-cell maximum is viewpoint-
            dependent; clamping makes wall intensities agree between
            viewpoints wherever the structure exceeds the clamp, which
            measurably improves cross-view descriptor repeatability.
            None disables.

    Returns:
        A :class:`BVImage` of side ``H = 2R / c``.
    """
    if max_height is not None and max_height <= min_height:
        raise ValueError("max_height must exceed min_height")
    rows, cols, size, in_range, nonfinite = _cell_indices(
        cloud, cell_size, lidar_range)
    image = np.zeros((size, size))
    if len(rows):
        z = np.maximum(cloud.z[in_range], min_height)
        if max_height is not None:
            z = np.minimum(z, max_height)
        # Scatter-max via np.maximum.at on flattened indices.
        flat = rows * size + cols
        flat_img = image.reshape(-1)
        np.maximum.at(flat_img, flat, z)
    return BVImage(image, cell_size, lidar_range, num_nonfinite=nonfinite)


def density_map(cloud: PointCloud, cell_size: float = 0.4,
                lidar_range: float = 50.0,
                log_scale: bool = True) -> BVImage:
    """Density-map BV image: per-cell point count (the [31] alternative).

    ``log_scale`` applies ``log1p`` to compress the dynamic range, the
    usual practice for density BV images.
    """
    rows, cols, size, _, nonfinite = _cell_indices(cloud, cell_size,
                                                   lidar_range)
    image = np.zeros((size, size))
    if len(rows):
        np.add.at(image.reshape(-1), rows * size + cols, 1.0)
    if log_scale:
        image = np.log1p(image)
    return BVImage(image, cell_size, lidar_range, num_nonfinite=nonfinite)
