"""Equivalence properties of the vectorized stage-1 kernels.

Every stage-1 hot path keeps its pre-vectorization implementation as a
reference twin under ``tests/_reference/`` (see CONTRIBUTING.md).  These
tests pin the equivalence contracts down:

- BV projection: the fused binning (BLAS finite screen, in-place range
  mask) is bit-identical to the reference height map, including the
  non-finite rejection count.
- Log-Gabor bank: the single-precision bank matches the float64
  reference to float32 rounding, and the per-pixel orientation argmax —
  the only thing the MIM consumes — is *identical* on valid
  (non-negligible-energy) pixels.
- FAST: the LUT detector is bit-identical to the dense reference.
- BVFT descriptors: identical kept keypoints and dominant bins (also
  with unweighted votes, where orientation ties are exact), descriptor
  values within 1e-9; ``flipped_set`` equals recomputing on the flipped
  MIM.
- RANSAC: identical result *and* identical generator stream position for
  the same ``rng`` — the stream is shared with stage 2, so consuming it
  differently would change pipeline outputs.
- Matching: the blockwise NN statistics are independent of block
  granularity.
"""

import numpy as np
import pytest

from repro.bev.log_gabor import LogGaborBank, LogGaborConfig
from repro.bev.mim import compute_mim
from repro.bev.projection import height_map
from repro.features import matching as matching_module
from repro.features.descriptors import BvftConfig, BvftDescriptorExtractor
from repro.features.fast import FastConfig, Keypoints, detect_fast
from repro.features.matching import match_descriptors
from repro.geometry.ransac import ransac_rigid_2d
from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud

from tests._reference.descriptors import reference_compute
from tests._reference.fast import reference_detect_fast
from tests._reference.log_gabor import (
    reference_amplitudes_by_orientation,
    reference_orientation_amplitude_sum,
)
from tests._reference.projection import reference_height_map
from tests._reference.ransac import reference_ransac_rigid_2d


def structured_cloud(rng: np.random.Generator) -> PointCloud:
    """Walls plus scattered blobs — enough oriented structure for MIM,
    FAST and descriptors to produce realistic intermediate data."""
    t = np.linspace(-28, 28, 420)
    parts = []
    for f in np.linspace(0.25, 1.0, 5):
        z = np.full_like(t, 7.5 * f)
        parts.append(np.stack([t, np.full_like(t, 6.0), z], 1))
        parts.append(np.stack([np.full_like(t, -9.0), t, z], 1))
        parts.append(np.stack([t, 0.55 * t - 14.0, z], 1))
    for _ in range(10):
        cx, cy = rng.uniform(-22, 22, 2)
        n = 30
        parts.append(np.stack([cx + rng.normal(0, 0.5, n),
                               cy + rng.normal(0, 0.5, n),
                               rng.uniform(1.5, 5.0, n)], 1))
    return PointCloud(np.vstack(parts))


@pytest.fixture(scope="module")
def bv_image():
    return height_map(structured_cloud(np.random.default_rng(17)), 0.4, 51.2)


@pytest.fixture(scope="module")
def mim_result(bv_image):
    return compute_mim(bv_image)


@pytest.fixture(scope="module")
def keypoints(bv_image):
    return detect_fast(bv_image.image, FastConfig())


class TestProjectionEquivalence:
    def assert_identical(self, cloud, **kwargs):
        new = height_map(cloud, **kwargs)
        ref = reference_height_map(cloud, **kwargs)
        assert np.array_equal(new.image, ref.image)
        assert new.num_nonfinite == ref.num_nonfinite
        assert new.cell_size == ref.cell_size
        assert new.lidar_range == ref.lidar_range

    def test_structured_cloud(self):
        cloud = structured_cloud(np.random.default_rng(17))
        self.assert_identical(cloud, cell_size=0.4, lidar_range=51.2)

    def test_random_clouds(self):
        rng = np.random.default_rng(29)
        for _ in range(4):
            pts = rng.uniform(-80, 80, (3000, 3))
            self.assert_identical(PointCloud(pts), cell_size=0.8,
                                  lidar_range=60.0)

    def test_nonfinite_and_overflow_rows(self):
        """NaN/inf coordinates and a finite row whose coordinate sum
        overflows to inf — the exact cases where the BLAS finite screen
        could diverge from the elementwise reference."""
        rng = np.random.default_rng(31)
        pts = rng.uniform(-40, 40, (200, 3))
        pts[3, 0] = np.nan
        pts[7, 2] = np.inf
        pts[11, 1] = -np.inf
        pts[20] = [np.inf, -np.inf, 0.0]
        pts[25] = [1e308, 1e308, 1.0]   # finite, sum overflows
        pts[26] = [-1e308, -1e308, 2.0]
        self.assert_identical(PointCloud(pts), cell_size=0.8,
                              lidar_range=60.0)

    def test_height_clamps(self):
        cloud = structured_cloud(np.random.default_rng(5))
        self.assert_identical(cloud, cell_size=0.4, lidar_range=51.2,
                              min_height=0.5, max_height=None)
        self.assert_identical(cloud, cell_size=0.4, lidar_range=51.2,
                              max_height=3.0)


class TestLogGaborBankEquivalence:
    def assert_bank_equivalent(self, bank, image):
        new = bank.orientation_amplitude_sum(image)
        ref = reference_orientation_amplitude_sum(bank, image)
        assert new.dtype == np.float32
        # Amplitudes agree to single-precision rounding...
        np.testing.assert_allclose(new, ref, atol=1e-4 * float(ref.max()))
        # ...and the orientation winner is identical wherever the MIM is
        # meaningful (argmax on zero-energy pixels is argmax-of-noise and
        # is masked out downstream by valid_mask).
        peak = ref.max(axis=0)
        valid = peak >= 0.05 * float(peak.max())
        assert np.array_equal(np.argmax(new, axis=0)[valid],
                              np.argmax(ref, axis=0)[valid])

    def test_default_bank_matches_reference(self, bv_image):
        bank = LogGaborBank(bv_image.size, LogGaborConfig())
        self.assert_bank_equivalent(bank, bv_image.image)

    def test_single_scale_bank(self, bv_image):
        bank = LogGaborBank(bv_image.size, LogGaborConfig(num_scales=1))
        self.assert_bank_equivalent(bank, bv_image.image)

    def test_random_image(self):
        image = np.random.default_rng(3).random((64, 64)) * 4.0
        bank = LogGaborBank(64, LogGaborConfig())
        self.assert_bank_equivalent(bank, image)

    def test_per_filter_responses_match_reference(self, bv_image):
        bank = LogGaborBank(bv_image.size, LogGaborConfig())
        new = bank.amplitudes_by_orientation(bv_image.image)
        ref = reference_amplitudes_by_orientation(bank, bv_image.image)
        peak = max(float(r.max()) for row in ref for r in row)
        for o in range(bank.config.num_orientations):
            for s in range(bank.config.num_scales):
                np.testing.assert_allclose(new[o][s], ref[o][s],
                                           atol=1e-4 * peak)

    def test_mim_winner_sweep_matches_argmax(self, bv_image):
        """compute_mim's manual maximum sweep must reproduce np.argmax
        first-occurrence tie-breaking exactly (zero-energy pixels tie at
        0 across all orientations, so ties are exercised for real)."""
        bank = LogGaborBank(bv_image.size, LogGaborConfig())
        amplitude = bank.orientation_amplitude_sum(bv_image.image)
        result = compute_mim(bv_image)
        assert np.array_equal(result.mim,
                              np.argmax(amplitude, axis=0).astype(np.int32))
        np.testing.assert_array_equal(
            result.max_amplitude, amplitude.max(axis=0).astype(np.float64))


class TestFastEquivalence:
    def assert_identical(self, image, config):
        new = detect_fast(image, config)
        ref = reference_detect_fast(image, config)
        assert np.array_equal(new.xy, ref.xy)
        assert np.array_equal(new.scores, ref.scores)

    def test_bv_image(self, bv_image):
        self.assert_identical(bv_image.image, FastConfig())

    def test_no_nms(self, bv_image):
        self.assert_identical(bv_image.image, FastConfig(nms_radius=0))

    def test_random_images(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            image = rng.random((73, 91)) * 3.0
            self.assert_identical(image, FastConfig(threshold=0.4))

    def test_max_keypoints_cap(self, bv_image):
        self.assert_identical(bv_image.image, FastConfig(max_keypoints=25))


class TestDescriptorEquivalence:
    def assert_equivalent(self, extractor, mim_result, keypoints):
        new = extractor.compute(mim_result, keypoints)
        ref = reference_compute(extractor, mim_result, keypoints)
        assert np.array_equal(new.keypoint_indices, ref.keypoint_indices)
        assert np.array_equal(new.dominant_bins, ref.dominant_bins)
        assert np.array_equal(new.keypoint_xy, ref.keypoint_xy)
        np.testing.assert_allclose(new.descriptors, ref.descriptors,
                                   atol=1e-9)

    def test_default_config(self, mim_result, keypoints):
        self.assert_equivalent(BvftDescriptorExtractor(), mim_result,
                               keypoints)

    def test_non_default_grid_size(self, mim_result, keypoints):
        self.assert_equivalent(
            BvftDescriptorExtractor(BvftConfig(patch_size=32, grid_size=4)),
            mim_result, keypoints)

    def test_rotation_invariance_off(self, mim_result, keypoints):
        self.assert_equivalent(
            BvftDescriptorExtractor(BvftConfig(rotation_invariant=False)),
            mim_result, keypoints)

    def test_unweighted_votes(self, mim_result, keypoints):
        """0/1 weights make every vote an exact integer, so ties between
        orientations are real: the distinct-pixel votes (weight times
        read count) must break them as the per-pixel reference does."""
        self.assert_equivalent(
            BvftDescriptorExtractor(BvftConfig(amplitude_weighting=False)),
            mim_result, keypoints)

    def test_zero_keypoints(self, mim_result):
        extractor = BvftDescriptorExtractor()
        out = extractor.compute(mim_result, Keypoints.empty())
        ref = reference_compute(extractor, mim_result, Keypoints.empty())
        assert len(out) == len(ref) == 0
        assert out.descriptors.shape == ref.descriptors.shape

    def test_border_keypoints_match_reference(self, mim_result):
        """Patches hanging off the image edge exercise the padded-pixel
        (zero-weight vote) path in both implementations."""
        h = mim_result.mim.shape[0]
        xy = np.array([[1.0, 1.0], [h - 2.0, 1.0], [2.0, h - 2.0],
                       [h / 2.0, 0.0]])
        kp = Keypoints(xy=xy, scores=np.ones(len(xy)))
        self.assert_equivalent(BvftDescriptorExtractor(), mim_result, kp)

    def test_flipped_set_matches_recompute(self, bv_image, mim_result,
                                           keypoints):
        """Deriving flip descriptors by cell-block reversal must equal
        recomputing them on the 180-degree-rotated MIM."""
        from repro.bev.mim import MIMResult

        extractor = BvftDescriptorExtractor()
        base = extractor.compute(mim_result, keypoints)
        derived = extractor.flipped_set(base, bv_image.size)

        flipped_mim = MIMResult(
            mim=mim_result.mim[::-1, ::-1],
            max_amplitude=mim_result.max_amplitude[::-1, ::-1],
            num_orientations=mim_result.num_orientations)
        flipped_kp = Keypoints(xy=(bv_image.size - 1) - keypoints.xy,
                               scores=keypoints.scores)
        recomputed = extractor.compute(flipped_mim, flipped_kp)

        assert np.array_equal(derived.keypoint_indices,
                              recomputed.keypoint_indices)
        assert np.array_equal(derived.dominant_bins,
                              recomputed.dominant_bins)
        assert np.array_equal(derived.keypoint_xy, recomputed.keypoint_xy)
        np.testing.assert_allclose(derived.descriptors,
                                   recomputed.descriptors, atol=1e-12)


def _correspondences(n=120, outlier_fraction=0.35, seed=5):
    rng = np.random.default_rng(seed)
    src = rng.uniform(-30, 30, (n, 2))
    true = SE2(0.4, 3.0, -1.5)
    dst = true.apply(src) + rng.normal(0, 0.05, (n, 2))
    n_out = int(outlier_fraction * n)
    dst[:n_out] = rng.uniform(-30, 30, (n_out, 2))
    return src, dst


class TestRansacEquivalence:
    def assert_identical_runs(self, src, dst, seed, **kwargs):
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        new = ransac_rigid_2d(src, dst, rng=rng_new, **kwargs)
        ref = reference_ransac_rigid_2d(src, dst, rng=rng_ref, **kwargs)
        assert new.success == ref.success
        assert new.num_inliers == ref.num_inliers
        assert new.iterations == ref.iterations
        assert np.array_equal(new.inlier_mask, ref.inlier_mask)
        assert new.transform.theta == ref.transform.theta
        assert new.transform.tx == ref.transform.tx
        assert new.transform.ty == ref.transform.ty
        if not np.isnan(ref.rmse):
            assert new.rmse == ref.rmse
        # The stream position after the call must also match: stage 2
        # reuses the same generator, so an off-by-one draw would change
        # pipeline outputs downstream.
        assert np.array_equal(rng_new.random(8), rng_ref.random(8))

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 19])
    def test_matches_reference_across_seeds(self, seed):
        src, dst = _correspondences(seed=seed)
        self.assert_identical_runs(src, dst, seed, threshold=0.5)

    def test_high_outlier_long_run(self):
        """Many adaptive iterations: exercises multiple chunks, the
        no-new-best fast path, and the mid-chunk stop/rewind."""
        src, dst = _correspondences(n=60, outlier_fraction=0.85, seed=23)
        self.assert_identical_runs(src, dst, 23, threshold=0.3,
                                   max_iterations=1500)

    def test_all_degenerate_samples(self):
        """Every minimal sample coincident: no model, identical failure."""
        src = np.zeros((10, 2))
        dst = np.zeros((10, 2))
        self.assert_identical_runs(src, dst, 4, threshold=0.5,
                                   max_iterations=50)

    def test_fewer_points_than_sample(self):
        src = np.array([[0.0, 0.0]])
        dst = np.array([[1.0, 1.0]])
        self.assert_identical_runs(src, dst, 0)

    def test_stop_on_first_chunk(self):
        """Clean data terminates adaptively within the first chunk; the
        rewind must leave the stream exactly where the sequential loop
        would."""
        src, dst = _correspondences(n=40, outlier_fraction=0.0, seed=2)
        self.assert_identical_runs(src, dst, 2, threshold=1.0)


class TestMatchingBlockwise:
    def test_block_granularity_invariant(self, mim_result, keypoints,
                                         monkeypatch):
        """NN decisions must not depend on the row-block size (ties break
        identically; distances on kept pairs are recomputed exactly)."""
        extractor = BvftDescriptorExtractor()
        desc = extractor.compute(mim_result, keypoints)
        assert len(desc) > 8
        half = len(desc) // 2
        from repro.features.descriptors import DescriptorSet
        a = DescriptorSet(desc.descriptors[:half], desc.keypoint_xy[:half],
                          desc.keypoint_indices[:half],
                          desc.dominant_bins[:half])
        b = DescriptorSet(desc.descriptors[half:], desc.keypoint_xy[half:],
                          desc.keypoint_indices[half:],
                          desc.dominant_bins[half:])
        full = match_descriptors(a, b)
        monkeypatch.setattr(matching_module, "_ROW_BLOCK", 7)
        blocked = match_descriptors(a, b)
        assert np.array_equal(full.src_indices, blocked.src_indices)
        assert np.array_equal(full.dst_indices, blocked.dst_indices)
        np.testing.assert_array_equal(full.distances, blocked.distances)
