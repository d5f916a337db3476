"""Tests for repro.bev.mim (paper Eq. 9-10)."""

import numpy as np
import pytest

from repro.bev.log_gabor import LogGaborBank, LogGaborConfig
from repro.bev.mim import compute_mim
from repro.bev.projection import height_map
from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud


def wall_cloud(alpha_deg: float) -> PointCloud:
    """A single long wall rotated by alpha about the origin."""
    t = np.linspace(-30, 30, 400)
    layers = [np.stack([t, np.full_like(t, 5.0), np.full_like(t, 8 * f)], 1)
              for f in np.linspace(0.2, 1, 6)]
    pts = np.vstack(layers)
    xy = SE2(np.deg2rad(alpha_deg), 0, 0).apply(pts[:, :2])
    return PointCloud(np.column_stack([xy, pts[:, 2]]))


class TestComputeMim:
    def test_output_shapes(self):
        bv = height_map(wall_cloud(0.0), 0.4, 51.2)
        result = compute_mim(bv)
        assert result.mim.shape == bv.image.shape
        assert result.max_amplitude.shape == bv.image.shape
        assert result.num_orientations == 12

    def test_values_in_orientation_range(self):
        bv = height_map(wall_cloud(20.0), 0.4, 51.2)
        result = compute_mim(bv)
        assert result.mim.min() >= 0
        assert result.mim.max() < 12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            compute_mim(np.zeros((10, 20)))

    def test_accepts_raw_array(self):
        result = compute_mim(np.random.default_rng(0).random((32, 32)),
                             LogGaborConfig(num_scales=2,
                                            num_orientations=4))
        assert result.num_orientations == 4

    def test_wall_orientation_dominates_mim(self):
        """The MIM value at wall pixels must track the wall direction:
        rotating the world by one orientation bin shifts the dominant MIM
        value by one bin (+alpha convention — what the descriptor's
        rotation normalization relies on)."""
        bin_width_deg = 180 / 12

        def dominant(alpha_deg):
            bv = height_map(wall_cloud(alpha_deg), 0.4, 51.2)
            result = compute_mim(bv)
            mask = result.valid_mask(0.2)
            values, counts = np.unique(result.mim[mask], return_counts=True)
            return int(values[np.argmax(counts)])

        base = dominant(0.0)
        plus_one = dominant(bin_width_deg)
        assert (plus_one - base) % 12 == 1

    def test_valid_mask_excludes_empty_regions(self):
        bv = height_map(wall_cloud(0.0), 0.4, 51.2)
        result = compute_mim(bv)
        mask = result.valid_mask(0.1)
        # Valid pixels concentrate near the wall; far corners are invalid.
        assert not mask[:20, :20].any()
        assert 0 < mask.sum() < mask.size

    def test_valid_mask_empty_image(self):
        result = compute_mim(np.zeros((32, 32)))
        assert not result.valid_mask().any()

    def test_max_amplitude_matches_argmax(self):
        bv = height_map(wall_cloud(33.0), 0.4, 51.2)
        result = compute_mim(bv)
        amplitude = LogGaborBank(bv.size).orientation_amplitude_sum(bv.image)
        np.testing.assert_array_equal(result.max_amplitude,
                                      amplitude.max(axis=0))
        assert np.all(result.max_amplitude >= 0)

    def test_deterministic(self):
        bv = height_map(wall_cloud(10.0), 0.4, 51.2)
        a = compute_mim(bv)
        b = compute_mim(bv)
        np.testing.assert_array_equal(a.mim, b.mim)
