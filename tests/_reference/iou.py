"""Scalar-loop IoU matrix, the twin of ``repro.boxes.iou_matrix``.

The pre-rework implementation: the same center-distance prefilter, then
one :func:`bev_iou` per candidate pair.  The batched-clip matrix must be
bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.boxes.box import Box2D
from repro.boxes.iou import bev_iou


def reference_iou_matrix(boxes_a: list[Box2D],
                         boxes_b: list[Box2D]) -> np.ndarray:
    """Pre-rework :func:`iou_matrix`: scalar ``bev_iou`` per candidate.

    Kept as the behavioral specification for the batched fast path
    (bit-identical contract).
    """
    if not boxes_a or not boxes_b:
        return np.zeros((len(boxes_a), len(boxes_b)))
    centers_a = np.array([b.center for b in boxes_a])
    centers_b = np.array([b.center for b in boxes_b])
    radius_a = np.array([b.diagonal / 2.0 for b in boxes_a])
    radius_b = np.array([b.diagonal / 2.0 for b in boxes_b])
    dists = np.linalg.norm(centers_a[:, None] - centers_b[None, :], axis=2)
    candidates = dists <= radius_a[:, None] + radius_b[None, :]

    result = np.zeros((len(boxes_a), len(boxes_b)))
    for i, j in zip(*np.nonzero(candidates)):
        result[i, j] = bev_iou(boxes_a[i], boxes_b[j])
    return result
