"""Per-keypoint BVFT descriptor loop, the twin of
``BvftDescriptorExtractor.compute``.

The pre-vectorization implementation: one patch gather, one dominant
orientation vote and one histogram per keypoint.  The blocked extractor
must keep the same keypoints and dominant bins, with descriptor values
within 1e-9.
"""

from __future__ import annotations

import numpy as np

from repro.bev.mim import MIMResult
from repro.features.descriptors import BvftDescriptorExtractor, DescriptorSet
from repro.features.fast import Keypoints

_INVALID = -1  # marker for out-of-image pixels in patches


def reference_compute(extractor: BvftDescriptorExtractor,
                      mim_result: MIMResult,
                      keypoints: Keypoints) -> DescriptorSet:
    """Descriptors for ``keypoints``, one keypoint at a time."""
    cfg = extractor.config
    n_orient = mim_result.num_orientations
    dim = cfg.descriptor_length(n_orient)
    if len(keypoints) == 0:
        return DescriptorSet.empty(dim)

    patch = cfg.patch_size
    pad = int(np.ceil(patch * np.sqrt(2) / 2)) + 2
    mim = np.pad(mim_result.mim, pad, mode="constant",
                 constant_values=_INVALID)
    valid = mim_result.valid_mask()
    if cfg.amplitude_weighting:
        weights_img = mim_result.max_amplitude * valid
    else:
        weights_img = valid.astype(float)
    weights = np.pad(weights_img, pad, mode="constant",
                     constant_values=0.0)

    grid_cells = cfg.grid_size
    cell = patch // grid_cells
    out_idx = np.arange(patch) // cell
    cell_index = (out_idx[:, None] * grid_cells + out_idx[None, :])

    descriptors = []
    kept_xy = []
    kept_idx = []
    kept_bins = []
    rows_all = np.rint(keypoints.xy[:, 1]).astype(np.int64) + pad
    cols_all = np.rint(keypoints.xy[:, 0]).astype(np.int64) + pad
    identity_grid = extractor._rotation_grid(n_orient, 0, patch)

    for i in range(len(keypoints)):
        r0, c0 = rows_all[i], cols_all[i]
        if cfg.rotation_invariant:
            patch_vals = mim[identity_grid[0] + r0, identity_grid[1] + c0]
            patch_w = weights[identity_grid[0] + r0,
                              identity_grid[1] + c0]
            votes = np.bincount(
                patch_vals[patch_vals >= 0],
                weights=patch_w[patch_vals >= 0],
                minlength=n_orient)
            if votes.sum() <= 0:
                continue
            dom = int(np.argmax(votes))
        else:
            dom = 0
        grid = extractor._rotation_grid(n_orient, dom, patch)
        vals = mim[grid[0] + r0, grid[1] + c0]
        w = weights[grid[0] + r0, grid[1] + c0]
        valid_mask = vals >= 0
        if not valid_mask.any():
            continue
        shifted = np.where(valid_mask, (vals - dom) % n_orient, 0)
        flat_bins = cell_index * n_orient + shifted
        hist = np.bincount(flat_bins[valid_mask],
                           weights=w[valid_mask],
                           minlength=dim).astype(float)
        norm = np.linalg.norm(hist)
        if norm <= 0:
            continue
        hist /= norm
        if cfg.clip_value > 0:
            np.minimum(hist, cfg.clip_value, out=hist)
            norm = np.linalg.norm(hist)
            if norm <= 0:
                continue
            hist /= norm
        descriptors.append(hist)
        kept_xy.append(keypoints.xy[i])
        kept_idx.append(i)
        kept_bins.append(dom)

    if not descriptors:
        return DescriptorSet.empty(dim)
    return DescriptorSet(
        descriptors=np.asarray(descriptors),
        keypoint_xy=np.asarray(kept_xy, dtype=float),
        keypoint_indices=np.asarray(kept_idx, dtype=int),
        dominant_bins=np.asarray(kept_bins, dtype=int),
    )
