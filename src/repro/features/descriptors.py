"""BVFT-style descriptors computed from the Maximum Index Map.

For each keypoint the paper (following BVMatch [27] / RIFT [25]):

1. takes a ``J x J`` patch of the MIM centered on the keypoint,
2. estimates the patch's *dominant orientation* from the amplitude-weighted
   histogram of MIM values and rotates the patch so the dominant
   orientation lands on a fixed reference (the ORB trick, giving rotation
   invariance),
3. splits the patch into ``l x l`` grid cells and builds one ``N_o``-bin
   orientation histogram per cell (Eq. in Sec. IV-A), yielding an
   ``l * l * N_o`` vector, which is L2-normalized.

Rotating an orientation *map* needs two coupled actions: resampling pixel
positions by the rotation, and shifting the orientation *values* by the
same angle (an orientation index is itself a direction).  MIM orientations
live on ``[0, pi)`` in steps of ``pi / N_o``, so rotation by a dominant-bin
angle is an exact circular shift of the value space.

The extractor is loop-free within a block of keypoints and makes few
passes over memory per block:

- Dominant-orientation votes read only the *distinct* pixels of the
  identity grid, each weighted by how often the grid reads it (see
  :meth:`BvftDescriptorExtractor._rotation_grid` for why there are only
  625 of them at ``J = 48``), in one offset-flattened ``np.bincount`` per
  block.  Each keypoint's bins receive its votes in the same order
  whatever the block, so the block size changes no bit.  A weight times
  its read count may differ from repeated adds in the last bit, which
  can move a dominant bin only when two orientations' votes agree to
  within that bit.
- Each keypoint's patch is gathered once, through its dominant bin's
  rotation grid, and every pixel is binned by its *unshifted* MIM value.
  Rotating content by ``-dom`` shifts orientation values by ``-dom``, and
  that shift is applied afterwards as a relabel of each cell's ``N_o``
  bins: every bin receives the same weights in the same order as a
  shift-then-bin pass would give it, so the sums are bit-identical.
- One offset-flattened ``np.bincount`` per block accumulates every
  histogram of the block (each keypoint owns a disjoint bin range) and
  its relabel is written straight into the output rows; normalize, clip
  and drop then run once over all rows, in place.
- Index tensors, grids and bins are ``np.intp``: ``take`` and
  ``bincount`` convert narrower indices to ``intp`` on every call, which
  measures slower than reading the wider ones.

The pre-vectorization per-keypoint loop is the test twin in
``tests/_reference/descriptors.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bev.mim import MIMResult
from repro.features.fast import Keypoints

__all__ = ["BvftConfig", "DescriptorSet", "BvftDescriptorExtractor"]

# Keypoints are processed in blocks of this size: large enough to amortize
# the per-block numpy calls, small enough that the three (block, J, J)
# gather tensors (0.6 MB each at J=48) stay cache-resident and bound
# extraction's peak.  Re-measured on a 2-vCPU Xeon host at 192 px, two
# extractions through fan_out, median per pair over 8 runs of 24 pairs:
# 64 -> 43.3 ms, 32 -> 43.4 ms, 24 -> 44.3 ms, 16 -> 46.3 ms.  One
# extraction's traced peak, worst of 20 scans: 7.2 MB at 64, 5.2 MB at
# 32, 4.2 MB at 16.  (512 measured ~2x slower than 64.)
_KEYPOINT_BLOCK = 32


@dataclass(frozen=True)
class BvftConfig:
    """Descriptor hyperparameters (paper: J = 96, l = 6; the default
    J = 48 is the simulated-substrate calibration, see DESIGN.md).

    Attributes:
        patch_size: side length ``J`` of the square descriptor patch, in
            pixels.
        grid_size: ``l``; the patch is divided into ``l x l`` cells.
        rotation_invariant: when False, skips the dominant-orientation
            normalization (useful for ablations; the paper notes MIM alone
            is not rotation invariant).
        clip_value: SIFT-style histogram clipping fraction applied after
            the first normalization (0 disables).
        amplitude_weighting: weight histogram votes by Log-Gabor amplitude
            rather than counting pixels.
    """

    patch_size: int = 48
    grid_size: int = 6
    rotation_invariant: bool = True
    clip_value: float = 0.25
    amplitude_weighting: bool = True

    def __post_init__(self) -> None:
        if self.patch_size < 4:
            raise ValueError("patch_size must be >= 4")
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        if self.patch_size % self.grid_size != 0:
            raise ValueError("patch_size must be divisible by grid_size")
        if not (0 <= self.clip_value <= 1):
            raise ValueError("clip_value must be in [0, 1]")

    def descriptor_length(self, num_orientations: int) -> int:
        return self.grid_size * self.grid_size * num_orientations


@dataclass(frozen=True)
class DescriptorSet:
    """Descriptors for the keypoints that could be described.

    Attributes:
        descriptors: (M, D) float array, rows L2-normalized.
        keypoint_xy: (M, 2) pixel (col, row) positions, aligned with rows.
        keypoint_indices: (M,) indices into the original keypoint list.
        dominant_bins: (M,) dominant-orientation bin used for rotation
            normalization (0 when rotation invariance is off).
    """

    descriptors: np.ndarray
    keypoint_xy: np.ndarray
    keypoint_indices: np.ndarray
    dominant_bins: np.ndarray

    def __len__(self) -> int:
        return len(self.descriptors)

    @staticmethod
    def empty(dim: int) -> "DescriptorSet":
        return DescriptorSet(np.empty((0, dim)), np.empty((0, 2)),
                             np.empty(0, dtype=int), np.empty(0, dtype=int))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(rows, axis=1)`` bit for bit, with one temporary
    the size of ``rows`` where numpy's ``x.conj() * x`` makes two."""
    return np.sqrt(np.add.reduce(np.square(rows), axis=1))


class BvftDescriptorExtractor:
    """Computes BVFT descriptors for FAST keypoints on a MIM.

    The rotation resampling grids are precomputed once per dominant bin
    (there are only ``N_o`` possible rotation angles), so per-block work
    is one rotated gather and one bincount.
    """

    def __init__(self, config: BvftConfig | None = None) -> None:
        self.config = config or BvftConfig()
        self._rotation_grids: dict[tuple[int, int], np.ndarray] = {}
        self._linear_grids: dict[tuple[int, int, int],
                                 tuple[np.ndarray, np.ndarray,
                                       np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _rotation_grid(self, num_orientations: int, bin_index: int,
                       patch: int) -> np.ndarray:
        """(2, J, J) integer source offsets implementing rotation by the
        bin's angle about the patch center (inverse mapping, nearest
        neighbor).

        ``np.rint`` rounds half to even, and the output offsets of an
        even ``J`` are all half-integers, so the identity grid reads only
        even offsets: at ``J = 48`` it reads 625 distinct pixels of the
        48 x 48 patch, 529 of them four times, and the 90-degree grid
        reads 1,113.  Dominant orientations and bin-0 descriptors
        therefore see a stride-2 subsample of the patch.
        """
        key = (num_orientations, bin_index)
        grid = self._rotation_grids.get(key)
        if grid is not None:
            return grid
        angle = bin_index * np.pi / num_orientations
        half = (patch - 1) / 2.0
        out = np.arange(patch) - half
        oc, orr = np.meshgrid(out, out)  # output col/row offsets
        # Inverse map: source = R(+angle) @ output (rotating the patch
        # content by -angle aligns the dominant orientation to bin 0).
        cos_a, sin_a = np.cos(angle), np.sin(angle)
        src_c = cos_a * oc - sin_a * orr
        src_r = sin_a * oc + cos_a * orr
        grid = np.stack([np.rint(src_r).astype(np.intp),
                         np.rint(src_c).astype(np.intp)])
        self._rotation_grids[key] = grid
        return grid

    def _linear_grids_for(self, num_orientations: int, patch: int,
                          stride: int
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened rotation grids for a padded image of row stride
        ``stride``.

        Returns ``(stack, vote_offsets, vote_counts)``: the (N_o, J, J)
        stack whose entry ``[b, i, j]`` is the linear offset
        ``row * stride + col`` of the source pixel (one ``take`` plus a
        per-keypoint base offset gathers a whole block), and the distinct
        offsets of the identity grid with how often it reads each.
        """
        key = (num_orientations, patch, stride)
        grids = self._linear_grids.get(key)
        if grids is None:
            stack = np.stack([
                g[0] * stride + g[1] for g in
                (self._rotation_grid(num_orientations, b, patch)
                 for b in range(num_orientations))])
            offsets, counts = np.unique(stack[0], return_counts=True)
            grids = self._linear_grids[key] = (
                stack, offsets, counts.astype(np.float64))
        return grids

    # ------------------------------------------------------------------
    def compute(self, mim_result: MIMResult,
                keypoints: Keypoints) -> DescriptorSet:
        """Describe every keypoint far enough from the border.

        Keypoints whose (rotated) patch would leave the image read
        zero-weight padding, which contributes nothing to any histogram;
        keypoints with an entirely zero-weight patch are dropped.
        """
        dim = self.config.descriptor_length(mim_result.num_orientations)
        if len(keypoints) == 0:
            return DescriptorSet.empty(dim)
        hist, dom = self._histograms(mim_result, keypoints)

        # Drop all-zero rows, normalize, clip, renormalize, in place.  A
        # clipped unit row keeps its positive entries, so its norm stays
        # > 0.
        norms = _row_norms(hist)
        keep = norms > 0
        if not keep.all():
            hist, norms = hist[keep], norms[keep]
            if len(hist) == 0:
                return DescriptorSet.empty(dim)
        hist /= norms[:, None]
        if self.config.clip_value > 0:
            np.minimum(hist, self.config.clip_value, out=hist)
            hist /= _row_norms(hist)[:, None]
        kept_idx = np.flatnonzero(keep)
        return DescriptorSet(
            descriptors=hist,
            keypoint_xy=np.asarray(keypoints.xy[kept_idx], dtype=float),
            keypoint_indices=kept_idx.astype(int),
            dominant_bins=dom[keep].astype(int),
        )

    @staticmethod
    def _dominant_bins(mim_flat: np.ndarray, weights_flat: np.ndarray,
                       base: np.ndarray, vote_offsets: np.ndarray,
                       vote_counts: np.ndarray, n_orient: int) -> np.ndarray:
        """Dominant orientation of each keypoint at linear offset
        ``base``, from its *unrotated* patch: one vote per distinct
        pixel, weighted by its read count.  A keypoint with no votes gets
        bin 0, whose histogram reads the same zero-weight pixels, so the
        norm test drops it."""
        lin0 = vote_offsets + base[:, None]
        bins = mim_flat.take(lin0)
        bins += (np.arange(len(base)) * n_orient)[:, None]
        votes = weights_flat.take(lin0)
        votes *= vote_counts
        return np.argmax(np.bincount(
            bins.ravel(), weights=votes.ravel(),
            minlength=len(base) * n_orient).reshape(-1, n_orient), axis=1)

    def _histograms(self, mim_result: MIMResult, keypoints: Keypoints
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Every keypoint's rotation-normalized cell histograms, as
        ``(n_kp, l * l * N_o)`` float64 rows, and its dominant bin."""
        cfg = self.config
        n_orient = mim_result.num_orientations
        dim = cfg.descriptor_length(n_orient)
        n_kp = len(keypoints)
        patch = cfg.patch_size
        # Pad by the patch diagonal so any rotation stays in bounds.
        # Padding pixels need no masking at all: their weight is exactly
        # 0.0, so letting them vote (into bin 0) changes no histogram sum
        # bit (x + 0.0 == x for the non-negative partial sums here).
        # Each map is written straight into its padded frame.
        pad = int(np.ceil(patch * np.sqrt(2) / 2)) + 2
        inner = tuple(slice(pad, pad + n) for n in mim_result.mim.shape)
        mim = np.zeros([n + 2 * pad for n in mim_result.mim.shape],
                       dtype=np.intp)
        mim[inner] = mim_result.mim
        weights = np.zeros(mim.shape)
        valid = mim_result.valid_mask()
        if cfg.amplitude_weighting:
            np.multiply(mim_result.max_amplitude, valid, out=weights[inner])
        else:
            weights[inner] = valid

        # Flattened views + linear indices: one `take` per gather, and mim
        # and weights share each index tensor.
        stride = mim.shape[1]
        mim_flat = mim.ravel()
        weights_flat = weights.ravel()
        base_all = ((np.rint(keypoints.xy[:, 1]).astype(np.intp) + pad)
                    * stride
                    + np.rint(keypoints.xy[:, 0]).astype(np.intp) + pad)
        lin_grids, vote_offsets, vote_counts = self._linear_grids_for(
            n_orient, patch, stride)

        # Per-patch-pixel cell base bin (row-major over the l x l grid),
        # plus each block keypoint's own histogram base.
        grid_cells = cfg.grid_size
        out_idx = np.arange(patch) // (patch // grid_cells)
        cell_bins = (out_idx[:, None] * grid_cells + out_idx[None, :]
                     ) * n_orient
        hist_base = (np.arange(min(n_kp, _KEYPOINT_BLOCK)) * dim
                     )[:, None, None]
        # rolled[d, j] = (j + d) % N_o: rotating content by -d shifts
        # orientation values by -d, so output bin j of each cell is
        # unshifted bin (j + d) % N_o.
        orientation = np.arange(n_orient)
        rolled = (orientation + orientation[:, None]) % n_orient

        dom = np.zeros(n_kp, dtype=np.intp)
        hist = np.empty((n_kp, dim))
        for start in range(0, n_kp, _KEYPOINT_BLOCK):
            stop = min(n_kp, start + _KEYPOINT_BLOCK)
            nb = stop - start
            base = base_all[start:stop]
            if cfg.rotation_invariant:
                dom[start:stop] = self._dominant_bins(
                    mim_flat, weights_flat, base, vote_offsets, vote_counts,
                    n_orient)

            # Rotated gather (each keypoint through its dominant bin's
            # grid), binned by the unshifted MIM value, then relabeled.
            lin = lin_grids.take(dom[start:stop], axis=0)
            lin += base[:, None, None]
            bins = mim_flat.take(lin)
            bins += cell_bins
            bins += hist_base[:nb]
            counts = np.bincount(
                bins.ravel(), weights=weights_flat.take(lin).ravel(),
                minlength=nb * dim).reshape(nb, -1, n_orient)
            if cfg.rotation_invariant:
                counts = np.take_along_axis(
                    counts, rolled[dom[start:stop], None, :], axis=2)
            hist[start:stop] = counts.reshape(nb, dim)

        return hist, dom

    # ------------------------------------------------------------------
    def flipped_set(self, descriptors: DescriptorSet,
                    image_size: int) -> DescriptorSet:
        """Descriptors of the 180-degree-rotated MIM, without recompute.

        A 180-degree rotation maps the patch around keypoint ``p`` onto
        the patch around ``(H - 1) - p`` with every sample offset
        negated.  The rotation-grid offset set is symmetric under
        negation, MIM values and amplitudes travel with their pixels
        (orientations are mod pi, so the values themselves are
        unchanged), and histogram votes are position-free within a cell —
        so the dominant orientation is preserved and grid cell
        ``(i, j)`` of the flipped patch receives exactly the votes cell
        ``(l-1-i, l-1-j)`` received in the original.  The flipped
        descriptor is therefore the original with its cell blocks
        reversed, and the keep/drop decisions are identical.

        Only valid when the keypoint coordinates are integral: rounding
        commutes with the mirror ``p -> (H-1) - p`` for integers, but
        not for exact .5 fractions.  ``BVMatcher.extract`` refuses
        non-integral keypoints, so every feature set qualifies.
        """
        cells = self.config.grid_size ** 2
        d = descriptors.descriptors
        n_orient = d.shape[1] // cells
        flipped = np.ascontiguousarray(
            d.reshape(len(d), cells, n_orient)[:, ::-1, :]
        ).reshape(len(d), cells * n_orient)
        return DescriptorSet(
            descriptors=flipped,
            keypoint_xy=(image_size - 1) - descriptors.keypoint_xy,
            keypoint_indices=descriptors.keypoint_indices.copy(),
            dominant_bins=descriptors.dominant_bins.copy(),
        )
