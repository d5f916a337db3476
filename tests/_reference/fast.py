"""Dense FAST segment test, the twin of ``repro.features.detect_fast``.

The pre-rework implementation: 16 shifted whole-image comparisons and
dense score maps.  The LUT detector must reproduce its keypoints and
scores bit-for-bit.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.features.fast import CIRCLE_OFFSETS, FastConfig, Keypoints


def circle_views(padded: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Stack of the 16 circle-shifted images, shape (16, H, W)."""
    h, w = shape
    views = np.empty((16, h, w), dtype=padded.dtype)
    for k, (dr, dc) in enumerate(CIRCLE_OFFSETS):
        views[k] = padded[3 + dr:3 + dr + h, 3 + dc:3 + dc + w]
    return views


def has_contiguous_arc(flags: np.ndarray, arc_length: int) -> np.ndarray:
    """Whether each pixel has >= arc_length contiguous True circle flags.

    ``flags`` has shape (16, H, W); the circle is circular, so the stack is
    doubled before scanning runs.
    """
    doubled = np.concatenate([flags, flags[:arc_length - 1]], axis=0)
    result = np.zeros(flags.shape[1:], dtype=bool)
    # run[k] := all(doubled[k : k + arc_length]); computed incrementally.
    for start in range(16):
        window = doubled[start:start + arc_length]
        result |= np.logical_and.reduce(window, axis=0)
    return result


def reference_detect_fast(image: np.ndarray,
                          config: FastConfig | None = None) -> Keypoints:
    """The pre-rework dense implementation (the behavioral spec).

    Evaluates the segment test with 16 shifted whole-image comparisons
    and dense score maps.  :func:`detect_fast` must reproduce its
    keypoints and scores bit-for-bit.
    """
    config = config or FastConfig()
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    h, w = image.shape
    if min(h, w) < 8:
        return Keypoints.empty()

    padded = np.pad(image, 3, mode="constant", constant_values=0.0)
    circle = circle_views(padded, (h, w))
    diff = circle - image[None]

    brighter = diff > config.threshold
    darker = diff < -config.threshold
    corners = (has_contiguous_arc(brighter, config.arc_length)
               | has_contiguous_arc(darker, config.arc_length))
    # Pixels whose circle leaves the image were compared against zero
    # padding; suppress the 3-pixel border to avoid phantom corners.
    corners[:3, :] = corners[-3:, :] = False
    corners[:, :3] = corners[:, -3:] = False
    if not corners.any():
        return Keypoints.empty()

    # FAST score: total circle contrast beyond the threshold.
    excess = np.abs(diff) - config.threshold
    np.maximum(excess, 0.0, out=excess)
    score = excess.sum(axis=0)
    score[~corners] = 0.0

    if config.nms_radius > 0:
        size = 2 * config.nms_radius + 1
        local_max = ndimage.maximum_filter(score, size=size, mode="constant")
        corners &= score >= local_max
        corners &= score > 0

    rows, cols = np.nonzero(corners)
    scores = score[rows, cols]
    order = np.argsort(-scores, kind="stable")
    if config.max_keypoints:
        order = order[:config.max_keypoints]
    xy = np.stack([cols[order], rows[order]], axis=1).astype(float)
    return Keypoints(xy=xy, scores=scores[order])
