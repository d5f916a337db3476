"""FAST keypoint detection (Rosten & Drummond), NumPy-vectorized.

The paper detects keypoints on the BV height image with FAST [33].  A
pixel is a corner when ``arc_length`` contiguous pixels on the radius-3
Bresenham circle are all brighter than the center by more than
``threshold``, or all darker.  On sparse BV images, thin bright wall
traces trigger the *darker-arc* test along their entire length, which is
exactly the behaviour the paper relies on ("capture the thin lines as
keypoints").

The whole-image segment test packs the 16 brighter/darker circle flags of
every pixel into one ``uint16`` and resolves the contiguous-arc test with
a precomputed 65536-entry lookup table (one table per ``arc_length``,
built once per process).  FAST scores are then evaluated only at the
surviving corner pixels — with the same subtraction/threshold/summation
order as the dense reference, so scores and keypoint ordering stay
bit-identical.  The pre-rework dense implementation is the test twin in
``tests/_reference/fast.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["FastConfig", "Keypoints", "detect_fast", "CIRCLE_OFFSETS"]

# Radius-3 Bresenham circle, 16 pixels, in (d_row, d_col), clockwise from
# 12 o'clock (matching the original FAST ordering).
CIRCLE_OFFSETS: tuple[tuple[int, int], ...] = (
    (-3, 0), (-3, 1), (-2, 2), (-1, 3),
    (0, 3), (1, 3), (2, 2), (3, 1),
    (3, 0), (3, -1), (2, -2), (1, -3),
    (0, -3), (-1, -3), (-2, -2), (-3, -1),
)


@dataclass(frozen=True)
class FastConfig:
    """FAST detector parameters.

    Attributes:
        threshold: minimum absolute intensity difference between the center
            and a circle pixel to count it as brighter/darker.  BV height
            images are in meters, so the default 0.2 means "20 cm of
            height contrast".
        arc_length: required contiguous run on the 16-pixel circle
            (9 = FAST-9, the standard choice).
        nms_radius: half-width of the square non-max-suppression window.
        max_keypoints: keep at most this many keypoints, strongest first
            (0 = unlimited).
    """

    threshold: float = 0.2
    arc_length: int = 9
    nms_radius: int = 0
    max_keypoints: int = 1500

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not (1 <= self.arc_length <= 16):
            raise ValueError("arc_length must be in [1, 16]")
        if self.nms_radius < 0:
            raise ValueError("nms_radius must be >= 0")
        if self.max_keypoints < 0:
            raise ValueError("max_keypoints must be >= 0")


@dataclass(frozen=True)
class Keypoints:
    """Detected keypoints.

    Attributes:
        xy: (N, 2) float array of (col, row) pixel coordinates.
        scores: (N,) FAST scores (sum of circle contrast beyond threshold).
    """

    xy: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.xy)

    @staticmethod
    def empty() -> "Keypoints":
        return Keypoints(np.empty((0, 2)), np.empty(0))


# Arc lookup tables keyed by arc_length: table[b] is True when the
# 16-bit circular flag pattern ``b`` contains >= arc_length contiguous
# set bits.  65536 bools per table, built once per process.
_ARC_LUTS: dict[int, np.ndarray] = {}


def _arc_lut(arc_length: int) -> np.ndarray:
    lut = _ARC_LUTS.get(arc_length)
    if lut is None:
        patterns = np.arange(65536, dtype=np.uint32)
        flags = ((patterns[:, None] >> np.arange(16)) & 1).astype(bool)
        doubled = np.concatenate([flags, flags[:, :arc_length - 1]], axis=1)
        lut = np.zeros(65536, dtype=bool)
        for start in range(16):
            lut |= doubled[:, start:start + arc_length].all(axis=1)
        _ARC_LUTS[arc_length] = lut
    return lut


def detect_fast(image: np.ndarray,
                config: FastConfig | None = None) -> Keypoints:
    """Run the FAST segment test over a whole image.

    Args:
        image: 2-D float array (any intensity scale; the threshold is in
            the same units).
        config: detector parameters.

    Returns:
        :class:`Keypoints` sorted by decreasing score.
    """
    config = config or FastConfig()
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    h, w = image.shape
    if min(h, w) < 8:
        return Keypoints.empty()

    padded = np.pad(image, 3, mode="constant", constant_values=0.0)
    # Pack the 16 brighter/darker flags per pixel into uint16 patterns.
    # Masked in-place bitwise ORs keep the loop allocation-free (no
    # per-offset bool->uint16 casts or shifted temporaries).
    packed_b = np.zeros((h, w), dtype=np.uint16)
    packed_d = np.zeros((h, w), dtype=np.uint16)
    diff = np.empty((h, w))
    mask = np.empty((h, w), dtype=bool)
    for k, (dr, dc) in enumerate(CIRCLE_OFFSETS):
        np.subtract(padded[3 + dr:3 + dr + h, 3 + dc:3 + dc + w], image,
                    out=diff)
        bit = np.uint16(1 << k)
        np.greater(diff, config.threshold, out=mask)
        np.bitwise_or(packed_b, bit, out=packed_b, where=mask)
        np.less(diff, -config.threshold, out=mask)
        np.bitwise_or(packed_d, bit, out=packed_d, where=mask)
    lut = _arc_lut(config.arc_length)
    corners = lut.take(packed_b) | lut.take(packed_d)
    # Pixels whose circle leaves the image were compared against zero
    # padding; suppress the 3-pixel border to avoid phantom corners.
    corners[:3, :] = corners[-3:, :] = False
    corners[:, :3] = corners[:, -3:] = False
    if not corners.any():
        return Keypoints.empty()

    # FAST score: total circle contrast beyond the threshold, evaluated
    # only at corner pixels (the dense reference zeroes non-corners, so
    # the sparse gather is equivalent; subtraction and axis-0 summation
    # order match the reference, keeping scores bit-identical).
    rows, cols = np.nonzero(corners)
    circle = np.empty((16, len(rows)))
    for k, (dr, dc) in enumerate(CIRCLE_OFFSETS):
        circle[k] = padded[rows + (3 + dr), cols + (3 + dc)]
    excess = np.abs(circle - image[rows, cols])
    excess -= config.threshold
    np.maximum(excess, 0.0, out=excess)
    scores = excess.sum(axis=0)

    if config.nms_radius > 0:
        score = np.zeros((h, w))
        score[rows, cols] = scores
        size = 2 * config.nms_radius + 1
        local_max = ndimage.maximum_filter(score, size=size, mode="constant")
        keep = (scores >= local_max[rows, cols]) & (scores > 0)
        rows, cols, scores = rows[keep], cols[keep], scores[keep]
        if not len(rows):
            return Keypoints.empty()

    order = np.argsort(-scores, kind="stable")
    if config.max_keypoints:
        order = order[:config.max_keypoints]
    xy = np.stack([cols[order], rows[order]], axis=1).astype(float)
    return Keypoints(xy=xy, scores=scores[order])
