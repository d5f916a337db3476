"""Rotated-rectangle IoU.

Used twice: stage-2 overlap matching identifies "the same physical car
seen by both vehicles" through BEV IoU, and the Table I evaluation scores
detections against ground truth at IoU 0.5 / 0.7.

:func:`iou_matrix` batches the exact geometry: candidate pairs survive a
vectorized center-distance prefilter, their rectangle intersections are
clipped together by
:func:`repro.geometry.polygon.convex_polygon_clip_batch`, and only the
per-polygon shoelace area stays scalar (its ``np.dot`` bits cannot be
reproduced by a batched reduction).  The matrix is bit-identical to a
``bev_iou``-per-candidate loop (the twin in ``tests/_reference/iou.py``)
— ``tests/test_sim_equivalence.py`` enforces this.
"""

from __future__ import annotations

import numpy as np

from repro.boxes.box import Box2D
from repro.geometry.polygon import (
    convex_polygon_area,
    convex_polygon_clip,
    convex_polygon_clip_batch,
)

__all__ = ["bev_iou", "iou_matrix"]


def bev_iou(box_a: Box2D, box_b: Box2D) -> float:
    """Intersection-over-union of two rotated rectangles."""
    # Cheap reject: centers farther apart than the sum of half-diagonals
    # cannot intersect.
    center_dist = float(np.linalg.norm(box_a.center - box_b.center))
    if center_dist > (box_a.diagonal + box_b.diagonal) / 2.0:
        return 0.0
    inter_poly = convex_polygon_clip(box_a.corners(), box_b.corners())
    if len(inter_poly) < 3:
        return 0.0
    intersection = convex_polygon_area(inter_poly)
    union = box_a.area + box_b.area - intersection
    if union <= 0:
        return 0.0
    return float(np.clip(intersection / union, 0.0, 1.0))


def iou_matrix(boxes_a: list[Box2D], boxes_b: list[Box2D]) -> np.ndarray:
    """(len(a), len(b)) matrix of pairwise BEV IoUs.

    Applies the center-distance prefilter in one vectorized pass, clips
    every candidate pair's rectangles in one batched Sutherland-Hodgman
    call, and evaluates :func:`bev_iou`'s remaining arithmetic on the
    gathered pair arrays — producing the same bytes as calling
    :func:`bev_iou` per candidate.

    The one intentional difference from the scalar formulas: candidate
    center distances come from the prefilter's batched norm rather than
    per-pair ``np.linalg.norm`` calls.  The two can disagree by an ulp,
    which only matters when a pair sits exactly on ``bev_iou``'s reject
    threshold — where the rectangles touch in at most a point and the
    IoU is 0.0 on both sides of the branch.
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
    cand_i, cand_j = np.nonzero(candidates)
    if len(cand_i) == 0:
        return result

    # bev_iou's own reject, on the gathered pair values.
    diag_a = np.array([b.diagonal for b in boxes_a])
    diag_b = np.array([b.diagonal for b in boxes_b])
    keep = ~(dists[cand_i, cand_j]
             > (diag_a[cand_i] + diag_b[cand_j]) / 2.0)
    cand_i, cand_j = cand_i[keep], cand_j[keep]
    if len(cand_i) == 0:
        return result

    corners_a = np.stack([b.corners() for b in boxes_a])
    corners_b = np.stack([b.corners() for b in boxes_b])
    verts, counts = convex_polygon_clip_batch(corners_a[cand_i],
                                              corners_b[cand_j])

    area_a = np.array([b.area for b in boxes_a])
    area_b = np.array([b.area for b in boxes_b])
    for p in range(len(cand_i)):
        if counts[p] < 3:
            continue
        intersection = convex_polygon_area(verts[p, :counts[p]])
        union = area_a[cand_i[p]] + area_b[cand_j[p]] - intersection
        if union <= 0:
            continue
        result[cand_i[p], cand_j[p]] = float(
            np.clip(intersection / union, 0.0, 1.0))
    return result
