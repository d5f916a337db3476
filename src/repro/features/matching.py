"""Descriptor matching (paper: Euclidean nearest neighbor).

High-dimensional descriptors (432-D for the default BVFT configuration)
make KD-trees useless; a dense distance matrix via the
``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b`` expansion is both faster and
simpler at the few-hundred-keypoint scale of BV images.  Lowe's ratio test
and a mutual-consistency check prune ambiguous matches before RANSAC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.descriptors import DescriptorSet

__all__ = ["MatchResult", "match_descriptors"]


@dataclass(frozen=True)
class MatchResult:
    """Matched descriptor pairs.

    Attributes:
        src_indices: indices into the source :class:`DescriptorSet` rows.
        dst_indices: indices into the destination set rows.
        distances: Euclidean descriptor distances of the kept pairs.
        src_xy: (M, 2) source keypoint pixel coordinates.
        dst_xy: (M, 2) destination keypoint pixel coordinates.
    """

    src_indices: np.ndarray
    dst_indices: np.ndarray
    distances: np.ndarray
    src_xy: np.ndarray
    dst_xy: np.ndarray

    def __len__(self) -> int:
        return len(self.src_indices)

    @staticmethod
    def empty() -> "MatchResult":
        return MatchResult(np.empty(0, dtype=int), np.empty(0, dtype=int),
                           np.empty(0), np.empty((0, 2)), np.empty((0, 2)))


def _distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between row sets ``a`` and ``b``.

    Runs in the operands' dtype: callers pass float32 views for speed
    (sgemm is ~2x dgemm); distances are only *compared* — argmin, ratio
    test, mutual check — and descriptor margins sit far above
    single-precision rounding, so the kept match sets are unchanged
    (verified pairwise against the float64 path on the seeded dataset).
    """
    sq = (np.sum(a ** 2, axis=1)[:, None]
          + np.sum(b ** 2, axis=1)[None, :]
          - 2.0 * (a @ b.T))
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


# Source rows are processed in fixed blocks of this size, bounding peak
# memory at (block, M) floats instead of (N, M).  The granularity is
# *fixed* rather than derived from a memory budget: BLAS matrix products
# round differently for different operand shapes, so a data-dependent
# block size would make results depend on problem size.  With a fixed
# grid, any problem with N <= block runs as the single full-matrix
# product (bit-identical to the unblocked implementation), and larger
# problems are deterministic for their size.
_ROW_BLOCK = 1024


def _nn_statistics(a: np.ndarray, b: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-neighbor statistics of the ``a`` rows against the ``b`` rows.

    Returns ``(nearest, best, second, reverse)``: per-``a``-row index and
    distance of its nearest ``b`` row, the second-best distance (inf when
    ``len(b) < 2``), and per-``b``-row index of its nearest ``a`` row.
    Rows are processed in :data:`_ROW_BLOCK` blocks; per-row statistics
    see their full distance row either way, and the blockwise
    reverse-argmin update uses a strict ``<`` so first-occurrence
    tie-breaking matches ``np.argmin`` over the full matrix.
    """
    n, m = len(a), len(b)
    if a.dtype == np.float64:
        a = a.astype(np.float32)
    if b.dtype == np.float64:
        b = b.astype(np.float32)
    nearest = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    second = np.full(n, np.inf)
    reverse = np.zeros(m, dtype=np.intp)
    reverse_best = np.full(m, np.inf)
    for start in range(0, n, _ROW_BLOCK):
        stop = min(n, start + _ROW_BLOCK)
        dist = _distance_matrix(a[start:stop], b)
        rows = np.arange(stop - start)
        row_arg = np.argmin(dist, axis=1)
        nearest[start:stop] = row_arg
        best[start:stop] = dist[rows, row_arg]
        block_arg = np.argmin(dist, axis=0)
        block_min = dist[block_arg, np.arange(m)]
        better = block_min < reverse_best
        reverse[better] = block_arg[better] + start
        reverse_best[better] = block_min[better]
        if m >= 2:
            # Second best = row minimum once the nearest entry is masked:
            # the same value a partition gives, duplicates included, in
            # one pass instead of a selection per row.  The reverse
            # statistics above have already read this block.
            dist[rows, row_arg] = np.inf
            second[start:stop] = dist.min(axis=1)
    return nearest, best, second, reverse


def match_descriptors(src: DescriptorSet, dst: DescriptorSet,
                      ratio: float = 0.95,
                      mutual: bool = True,
                      max_distance: float | None = None) -> MatchResult:
    """Match two descriptor sets by Euclidean nearest neighbor.

    Args:
        src: descriptors of the *other* car's BV image.
        dst: descriptors of the ego car's BV image.
        ratio: Lowe's ratio-test threshold — keep a match only when the
            best distance is below ``ratio`` times the second best
            (1.0 disables the test).  BVFT histograms are less distinctive
            than SIFT, so the default is looser than SIFT's 0.7–0.8;
            RANSAC downstream tolerates the extra outliers.
        mutual: additionally require the match to be each side's nearest
            neighbor of the other (cross-check).
        max_distance: optional absolute distance cutoff.

    Returns:
        A :class:`MatchResult`; positions are pixel coordinates taken from
        the descriptor sets.
    """
    if not (0 < ratio <= 1.0):
        raise ValueError("ratio must be in (0, 1]")
    if len(src) == 0 or len(dst) == 0:
        return MatchResult.empty()

    nearest, best, second, reverse = _nn_statistics(src.descriptors,
                                                    dst.descriptors)

    keep = np.ones(len(src), dtype=bool)
    if ratio < 1.0 and len(dst) >= 2:
        # Guard second == 0 (duplicate descriptors): keep only exact ties.
        with np.errstate(divide="ignore", invalid="ignore"):
            keep &= np.where(second > 0, best < ratio * second, best == 0)
    if mutual:
        keep &= reverse[nearest] == np.arange(len(src))
    if max_distance is not None:
        keep &= best <= max_distance

    src_idx = np.nonzero(keep)[0]
    dst_idx = nearest[keep]
    # The float32 block distances only drove *decisions*; report the kept
    # pairs' distances from the exact difference norm (few rows, and the
    # direct formula has none of the ||a||^2 - 2ab cancellation error).
    diff = src.descriptors[src_idx] - dst.descriptors[dst_idx]
    return MatchResult(
        src_indices=src_idx,
        dst_indices=dst_idx,
        distances=np.linalg.norm(diff, axis=1),
        src_xy=src.keypoint_xy[src_idx],
        dst_xy=dst.keypoint_xy[dst_idx],
    )
