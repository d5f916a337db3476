"""RANSAC estimation of a planar rigid transform from noisy correspondences.

Both matching stages of BB-Align end in the same operation: given matched
source/destination 2-D points (keypoint matches in stage 1, box-corner
pairs in stage 2), robustly estimate the rigid transform and report the
inlier count.  The paper uses the inlier count as the confidence signal
that drives the success criterion (``Inliers_bv > 25 and Inliers_box > 6``)
and the Fig. 9 analysis, so the result type carries full diagnostics.

The determinism contract is the stream: trials sample the pairs that
``rng.choice(n, size=2, replace=False)`` returns, and the generator ends
where those calls leave it (stage 2 draws from it next).  On PCG64 a chunk
of trials replays ``Generator.choice`` over one ``random_raw`` call
(:func:`_draw_pairs`; DESIGN.md 4b says why it is exact); other generators
keep the per-trial ``choice`` loop.  Solves and residuals are array ops.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.geometry.angles import wrap_to_pi
from repro.geometry.rigid import kabsch_2d
from repro.geometry.se2 import SE2

__all__ = ["RansacResult", "ransac_rigid_2d"]

# Hypotheses drawn, solved and scored per batch ((chunk, N) residuals).
# With batched draws 128 still times fastest per 8-vehicle fleet frame:
# 64 and 96 run 1-9 % slower, 256 4 %, 32 12 % (CPU time, 2-vCPU host).
_HYPOTHESIS_CHUNK = 128

_REPLAY_MAX_N = 10000  # Generator.choice's Floyd path, which is replayed
_LOW32 = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class RansacResult:
    """Outcome of a RANSAC run.

    Attributes:
        transform: the refined rigid transform (identity when no model was
            found).
        inlier_mask: boolean array over the input correspondences.
        num_inliers: convenience count of ``inlier_mask``.
        iterations: number of hypothesis samples actually drawn.
        success: whether any model with >= ``min_samples`` inliers was found.
        rmse: root-mean-square residual of the inliers under ``transform``
            (NaN when unsuccessful).
    """

    transform: SE2
    inlier_mask: np.ndarray
    num_inliers: int
    iterations: int
    success: bool
    rmse: float


def _adaptive_trials(inlier_ratio: float, sample_size: int,
                     confidence: float, current_max: int) -> int:
    """Classic adaptive stopping rule: trials needed to hit an
    uncontaminated sample with the given confidence."""
    inlier_ratio = min(max(inlier_ratio, 1e-9), 1.0 - 1e-12)
    prob_good = inlier_ratio ** sample_size
    if prob_good <= 1e-12:
        return current_max
    trials = int(np.ceil(np.log(1.0 - confidence) / np.log(1.0 - prob_good)))
    return max(1, min(current_max, trials))


def _validate(src: np.ndarray, dst: np.ndarray, threshold: float,
              min_inliers: int) -> tuple[np.ndarray, np.ndarray]:
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError(
            f"expected matching (N, 2) arrays, got {src.shape} and {dst.shape}")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if min_inliers < 2:
        raise ValueError("min_inliers must be >= 2")
    return src, dst


def _refine(src: np.ndarray, dst: np.ndarray, threshold: float,
            best_mask: np.ndarray, best_count: int,
            iteration: int) -> RansacResult:
    """Shared tail: refit on the inlier set, then recompute the consensus
    once — a cheap local-optimization step that tightens the estimate."""
    refined = kabsch_2d(src[best_mask], dst[best_mask])
    residuals = np.linalg.norm(refined.apply(src) - dst, axis=1)
    final_mask = residuals <= threshold
    if int(final_mask.sum()) >= best_count:
        best_mask = final_mask
        refined = kabsch_2d(src[best_mask], dst[best_mask])
        residuals = np.linalg.norm(refined.apply(src) - dst, axis=1)

    inlier_res = residuals[best_mask]
    rmse = float(np.sqrt(np.mean(inlier_res ** 2))) if inlier_res.size else float("nan")
    return RansacResult(refined, best_mask, int(best_mask.sum()), iteration,
                        True, rmse)


def _solve_and_score(src: np.ndarray, dst: np.ndarray,
                     idx: np.ndarray, threshold: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form 2-point rigid solve + residual test for a whole chunk.

    Replicates :func:`kabsch_2d` (uniform weights, 2 points) and
    ``SE2.apply`` arithmetic operation-for-operation so each trial's
    inlier mask matches the sequential per-trial path.

    Returns:
        ``(masks, counts)``: (C, N) inlier masks and (C,) counts, zeroed on
        degenerate (coincident-point) samples so those never win.
    """
    a, b = src[idx[:, 0]], src[idx[:, 1]]
    diff = a - b
    # Degenerate sample: coincident points give no rotation constraint.
    degenerate = np.hypot(diff[:, 0], diff[:, 1]) < 1e-9

    da, db = dst[idx[:, 0]], dst[idx[:, 1]]
    # kabsch_2d with w = [0.5, 0.5]: means, centering, atan2 rotation.
    src_mean = 0.5 * a + 0.5 * b
    dst_mean = 0.5 * da + 0.5 * db
    sa, sb = a - src_mean, b - src_mean
    ta, tb = da - dst_mean, db - dst_mean
    cross = (0.5 * (sa[:, 0] * ta[:, 1] - sa[:, 1] * ta[:, 0])
             + 0.5 * (sb[:, 0] * tb[:, 1] - sb[:, 1] * tb[:, 0]))
    dot = (0.5 * (sa[:, 0] * ta[:, 0] + sa[:, 1] * ta[:, 1])
           + 0.5 * (sb[:, 0] * tb[:, 0] + sb[:, 1] * tb[:, 1]))
    with np.errstate(invalid="ignore"):
        theta = np.where((cross == 0.0) & (dot == 0.0), 0.0,
                         np.arctan2(cross, dot))
    # Translation uses the *unwrapped* angle (kabsch_2d builds the
    # rotation before SE2 wraps theta); the residual rotation uses the
    # wrapped angle (SE2.apply rebuilds it from the stored theta).
    c_r, s_r = np.cos(theta), np.sin(theta)
    tx = dst_mean[:, 0] - (c_r * src_mean[:, 0] + (-s_r) * src_mean[:, 1])
    ty = dst_mean[:, 1] - (s_r * src_mean[:, 0] + c_r * src_mean[:, 1])
    theta_w = wrap_to_pi(theta)
    cw, sw = np.cos(theta_w), np.sin(theta_w)

    # Residuals for every (trial, point) pair at once.
    x, y = src[:, 0], src[:, 1]
    rx = (cw[:, None] * x - sw[:, None] * y + tx[:, None]) - dst[:, 0]
    ry = (sw[:, None] * x + cw[:, None] * y + ty[:, None]) - dst[:, 1]
    masks = np.sqrt(rx * rx + ry * ry) <= threshold
    masks[degenerate] = False
    return masks, masks.sum(axis=1)


def _choice2_from_uint32(words: np.ndarray, n: int, trials: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Replay ``trials`` calls of ``Generator.choice(n, 2, replace=False)``
    (``n <= 10000``) over a ``next_uint32`` stream, as (T, 2) pairs and
    the words consumed through each trial (``T < trials`` if the stream
    runs out).  Each call is Floyd's draws in ``[0, n-2]`` and ``[0, n-1]``
    (a repeat becomes ``n - 1``), then a swap on a 0 in ``[0, 1]``; each
    draw is Lemire's, ``word * bound >> 32``, skipping a word whose low
    half is below ``2**32 % bound``.  A range of 0 takes no word."""
    bounds = np.array([b for b in (n - 1, n, 2) if b > 1], dtype=np.uint64)
    width = len(bounds)
    words = np.asarray(words, dtype=np.uint64)
    skipped = np.zeros(trials, dtype=np.intp)
    while True:
        rows = min(trials, len(words) // width)
        scaled = words[:rows * width].reshape(rows, width) * bounds
        rejected = np.flatnonzero((scaled & _LOW32) < (1 << 32) % bounds)
        if not rejected.size:
            break
        # Rejections are rare (p < n / 2**32): drop the word and replay.
        words = np.delete(words, rejected[0])
        skipped[rejected[0] // width] += 1
    drawn = scaled >> np.uint64(32)
    first = drawn[:, 0] if n > 2 else np.zeros(rows, dtype=np.uint64)
    second = np.where(drawn[:, -2] == first, np.uint64(n - 1), drawn[:, -2])
    pairs = np.stack([first, second], axis=1).astype(np.intp)
    swap = drawn[:, -1] == 0
    pairs[swap] = pairs[swap, ::-1]
    return pairs, width * np.arange(1, rows + 1) + np.cumsum(skipped[:rows])


def _draw_pairs(rng: np.random.Generator, n: int, trials: int
                ) -> tuple[np.ndarray, Callable[[int], None]]:
    """The pairs ``trials`` calls of ``rng.choice(n, size=2, replace=False)``
    return, and ``settle(consumed)``, which must run once: it leaves
    ``rng`` exactly where ``consumed`` such calls would."""
    bitgen = rng.bit_generator
    start = bitgen.state
    if type(bitgen) is np.random.PCG64 and n <= _REPLAY_MAX_N:
        # PCG64's next_uint32 hands out a raw word's low half, then
        # buffers the high half (has_uint32/uinteger) for the next call.
        buffered = start["has_uint32"]
        raw = bitgen.random_raw(3 * trials // 2 + 8)
        words = np.stack([raw & _LOW32, raw >> np.uint64(32)], axis=1)
        idx, ends = _choice2_from_uint32(np.concatenate(
            [np.full(buffered, start["uinteger"], np.uint64), words.ravel()]),
            n, trials)

        def settle(consumed: int) -> None:
            used = int(ends[consumed - 1]) - buffered
            bitgen.state = start
            bitgen.random_raw((used + 1) // 2, output=False)
            bitgen.state = {**bitgen.state, "has_uint32": used % 2,
                            "uinteger": int(words[(used - 1) // 2, 1])}
        if len(idx) == trials:  # else over 15 rejections: take the loop
            return idx, settle
        bitgen.state = start

    idx = np.array([rng.choice(n, size=2, replace=False)
                    for _ in range(trials)])

    def rewind(consumed: int) -> None:
        if consumed < trials:
            bitgen.state = start
            for _ in range(consumed):
                rng.choice(n, size=2, replace=False)
    return idx, rewind


def ransac_rigid_2d(src: np.ndarray, dst: np.ndarray,
                    threshold: float = 1.0,
                    max_iterations: int = 2000,
                    confidence: float = 0.999,
                    min_inliers: int = 2,
                    rng: np.random.Generator | int | None = None) -> RansacResult:
    """Estimate a rigid SE(2) transform from matched points with RANSAC.

    Args:
        src: (N, 2) source points.
        dst: (N, 2) destination points (``dst[i]`` matches ``src[i]``).
        threshold: inlier residual threshold in the destination frame
            (same unit as the points — meters for BEV coordinates, pixels
            for image coordinates).
        max_iterations: upper bound on hypothesis samples.
        confidence: adaptive-termination confidence.
        min_inliers: a model needs at least this many inliers to count as a
            success (>= 2; two points determine a rigid 2-D transform).
        rng: a :class:`numpy.random.Generator`, a seed, or None for a fresh
            default generator.

    Returns:
        A :class:`RansacResult`.  On failure the transform is identity, the
        mask all-false.
    """
    src, dst = _validate(src, dst, threshold, min_inliers)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    n = len(src)
    sample_size = 2
    best_mask = None
    best_count = 0
    # Fewer than two points give no hypothesis: the run fails at once.
    trials_needed = max_iterations if n >= sample_size else 0
    iteration = 0
    while iteration < trials_needed:
        chunk = min(_HYPOTHESIS_CHUNK, trials_needed - iteration)
        idx, settle = _draw_pairs(rng, n, chunk)
        masks, counts = _solve_and_score(src, dst, idx, threshold)

        # Replay the sequential adaptive stop over the chunk.  If no trial
        # beats the best, no stop can fire: the while-condition capped it.
        consumed = chunk
        if int(counts.max(initial=0)) > best_count:
            for t in range(chunk):
                count = int(counts[t])
                if count > best_count:
                    best_count = count
                    best_mask = masks[t]
                    trials_needed = _adaptive_trials(
                        count / n, sample_size, confidence, max_iterations)
                if iteration + t + 1 >= trials_needed:
                    consumed = t + 1
                    break
        iteration += consumed
        settle(consumed)

    if best_mask is None or best_count < min_inliers:
        return RansacResult(SE2.identity(), np.zeros(n, dtype=bool), 0,
                            iteration, False, float("nan"))
    return _refine(src, dst, threshold, best_mask, best_count, iteration)
