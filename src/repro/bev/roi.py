"""Overlap-ROI culling for stage-1 feature extraction.

Keypoints can only match across vehicles where both lidars actually see
the same structure: a landmark useful to matching lies within the useful
sensing range ``u`` of *both* cars.  With the other car at translation
``t`` (in the ego frame), that region is the lens-shaped intersection of
two radius-``u`` discs centered at the origin and at ``t`` — which fits
inside a square of half-extent ``sqrt(u^2 - (d/2)^2)`` centered at
``t / 2`` (``d = |t|``).  Cropping the BV image to that window before the
Log-Gabor bank cuts the dominant stage-1 cost roughly by the area ratio,
and the paper's own accuracy band (reliable recovery below ~70 m
separation) plus the submap study justify discarding the periphery.

The window is computed from a *coarse prior* of the relative translation
(in deployment: GPS, a track, or the last recovered pose; in the
simulated sweeps: the pair's ground truth standing in for it).  Two
properties matter for correctness downstream:

* **Symmetric sizing** — the window *size* depends only on the quantized
  scalar distance ``d_q``, which is identical from either car's
  viewpoint, so both cars of a pair share one window size and hence one
  cached Log-Gabor bank.
* **Quantized distance** — ``d`` is snapped to ``quantize``-meter steps
  before sizing, and ``margin`` covers the worst-case quantization error
  plus prior noise, so a slightly-off prior moves the window but never
  excludes genuinely co-visible structure near its edge.

Culling is opt-in (``RoiCullConfig.enabled``, default off) and falls
back to the uncropped image whenever no prior is available or the
window would not actually shrink the image.  When the prior predicts
*no* overlap at all the window collapses to ``min_size`` at the
closest-approach point instead (``cap_empty_overlap``) — hopeless pairs
should be the cheapest in a sweep, not the most expensive.  Cropping
changes which keypoints exist, so enabling it is a behavior change
relative to the uncropped reference — see DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RoiCullConfig", "RoiWindow", "roi_window"]


@dataclass(frozen=True)
class RoiCullConfig:
    """Overlap-ROI culling parameters.

    Attributes:
        enabled: master switch; off by default (the uncropped path is
            the byte-identical reference behavior).
        useful_range: assumed useful sensing radius ``u`` in meters —
            structure beyond this distance from either car is treated as
            unusable for matching.  The default sits inside the paper's
            <70 m reliable-recovery band.
        margin: extra window half-extent in meters, absorbing distance
            quantization (up to ``quantize / 2``) and coarse-prior noise.
        quantize: snap the prior distance to multiples of this (meters)
            before sizing the window, so near-identical priors produce
            identical window sizes.
        min_size: smallest window edge in pixels (descriptor patches
            need context; tiny windows are not worth the bookkeeping).
        align: round window sizes up to multiples of this, keeping the
            set of distinct FFT sizes (and bank scratch shapes) small.
        cap_empty_overlap: when the prior predicts *no* overlap at all
            (``d_q >= 2 u``), extract on a ``min_size`` window at the
            closest-approach point ``t / 2`` instead of falling back to
            the full image.  Those pairs cannot recover a pose from
            co-visible structure either way, and the full-image fallback
            would make exactly the hopeless pairs the most expensive
            ones in a sweep.  Disable to restore full-frame behavior
            beyond the overlap horizon.
    """

    enabled: bool = False
    useful_range: float = 40.0
    margin: float = 6.0
    quantize: float = 5.0
    min_size: int = 64
    align: int = 16
    cap_empty_overlap: bool = True

    def __post_init__(self) -> None:
        if self.useful_range <= 0:
            raise ValueError("useful_range must be positive")
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        if self.quantize <= 0:
            raise ValueError("quantize must be positive")
        if self.min_size < 16:
            raise ValueError("min_size must be >= 16")
        if self.align < 1:
            raise ValueError("align must be >= 1")


@dataclass(frozen=True)
class RoiWindow:
    """A square crop window in BV pixel coordinates.

    ``image[row0:row0 + size, col0:col0 + size]`` is the cropped view;
    local keypoint coordinates map back to the full frame by adding
    ``(col0, row0)`` to their (col, row) positions.
    """

    row0: int
    col0: int
    size: int

    @property
    def offset_xy(self) -> np.ndarray:
        """(col, row) offset that maps window-local xy to full-frame xy."""
        return np.array([self.col0, self.row0], dtype=float)


def roi_window(prior_xy, *, cell_size: float, lidar_range: float,
               image_size: int,
               config: RoiCullConfig | None = None) -> RoiWindow | None:
    """The overlap window predicted by a coarse translation prior.

    Args:
        prior_xy: approximate (x, y) translation of the *other* sensor in
            this image's frame, meters.  ``None`` disables culling.
        cell_size: BV cell edge ``c`` in meters.
        lidar_range: BV half-extent ``R`` in meters.
        image_size: BV image edge ``H`` in pixels.
        config: culling parameters (an *enabled* default when omitted —
            callers gate on their own config's ``enabled`` flag).

    Returns:
        A :class:`RoiWindow`, or ``None`` when culling should fall back
        to the full image: no/invalid prior, the window would not
        shrink the image, or an empty predicted overlap
        (``d_q >= 2 u``) with ``cap_empty_overlap`` disabled.

    The window *size* is a function of the quantized scalar distance
    only, so the two cars of a pair (whose priors are exact inverses)
    always receive equal sizes — see the module docstring for why that
    matters.
    """
    config = config or RoiCullConfig(enabled=True)
    if not config.enabled or prior_xy is None:
        return None
    prior = np.asarray(prior_xy, dtype=float).reshape(-1)
    if prior.shape[0] < 2 or not np.all(np.isfinite(prior[:2])):
        return None
    u = config.useful_range
    distance = math.hypot(prior[0], prior[1])
    d_q = round(distance / config.quantize) * config.quantize
    if d_q >= 2.0 * u:
        if not config.cap_empty_overlap:
            return None  # no predicted overlap; match on the full image
        # Degenerate lens: a minimum window at the closest-approach
        # point t/2 (the size formula below bottoms out at min_size).
        half_m = config.margin
    else:
        half_m = (math.sqrt(max(u * u - 0.25 * d_q * d_q, 0.0))
                  + config.margin)
    size = int(math.ceil(2.0 * half_m / cell_size / config.align)) \
        * config.align
    size = max(size, config.min_size)
    if size >= image_size:
        return None  # cropping would not shrink the transform
    # Window center: the overlap-lens center t/2, in pixel coordinates
    # (the world_to_pixel mapping of repro.bev.projection).
    center_col = (prior[0] / 2.0 + lidar_range) / cell_size - 0.5
    center_row = (prior[1] / 2.0 + lidar_range) / cell_size - 0.5
    col0 = int(round(center_col - (size - 1) / 2.0))
    row0 = int(round(center_row - (size - 1) / 2.0))
    col0 = min(max(col0, 0), image_size - size)
    row0 = min(max(row0, 0), image_size - size)
    return RoiWindow(row0=row0, col0=col0, size=size)
