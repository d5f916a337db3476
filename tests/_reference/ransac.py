"""Sequential RANSAC loop, the twin of ``repro.geometry.ransac_rigid_2d``.

One ``rng.choice`` call and one :func:`kabsch_2d` solve per trial, the
pre-vectorization implementation.  The equivalence tests and the stage-1
kernel benchmark hold the chunked kernel to it: identical result and
identical generator position afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.ransac import (
    RansacResult,
    _adaptive_trials,
    _refine,
    _validate,
)
from repro.geometry.rigid import kabsch_2d
from repro.geometry.se2 import SE2


def reference_ransac_rigid_2d(src: np.ndarray, dst: np.ndarray,
                              threshold: float = 1.0,
                              max_iterations: int = 2000,
                              confidence: float = 0.999,
                              min_inliers: int = 2,
                              rng: np.random.Generator | int | None = None
                              ) -> RansacResult:
    """Pre-vectorization sequential loop (equivalence/benchmark twin)."""
    src, dst = _validate(src, dst, threshold, min_inliers)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    n = len(src)
    if n < 2:
        return RansacResult(SE2.identity(), np.zeros(n, dtype=bool), 0, 0,
                            False, float("nan"))

    sample_size = 2
    best_mask = None
    best_count = 0
    trials_needed = max_iterations
    iteration = 0
    while iteration < min(trials_needed, max_iterations):
        iteration += 1
        idx = rng.choice(n, size=sample_size, replace=False)
        a, b = src[idx]
        # Degenerate sample: coincident points give no rotation constraint.
        if np.hypot(*(a - b)) < 1e-9:
            continue
        model = kabsch_2d(src[idx], dst[idx])
        residuals = np.linalg.norm(model.apply(src) - dst, axis=1)
        mask = residuals <= threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            trials_needed = _adaptive_trials(count / n, sample_size,
                                             confidence, max_iterations)

    if best_mask is None or best_count < min_inliers:
        return RansacResult(SE2.identity(), np.zeros(n, dtype=bool), 0,
                            iteration, False, float("nan"))
    return _refine(src, dst, threshold, best_mask, best_count, iteration)
