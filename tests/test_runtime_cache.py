"""Tests for the stage-1 feature cache and its one key
(repro.runtime.cache)."""

import contextlib
from dataclasses import replace

import numpy as np

from repro.bev.mim import compute_mim
from repro.bev.projection import BVImage
from repro.bev.roi import RoiCullConfig
from repro.core.config import BBAlignConfig
from repro.core.multi import MultiVehicleAligner
from repro.core.pipeline import BBAlign
from repro.detection.simulated import SimulatedDetector
from repro.obs import use_registry
from repro.experiments.common import (
    _features_for,
    default_dataset,
    evaluate_pair,
    run_pose_recovery_sweep,
)
from repro.pointcloud.cloud import PointCloud
from repro.runtime.cache import (
    FeatureCache,
    extraction_fingerprint,
    scan_key,
)
from repro.runtime.timings import SweepTimings

FP = extraction_fingerprint(BBAlignConfig())


class TestFeatureCache:
    def test_round_trip_and_counters(self):
        cache = FeatureCache(max_entries=4)
        assert cache.get("k") is None
        cache.put("k", "features")
        assert cache.get("k") == "features"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = FeatureCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"; "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert len(cache) == 2

    def test_zero_entries_disables_storage(self):
        cache = FeatureCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear(self):
        cache = FeatureCache(max_entries=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0


class TestFingerprints:
    def test_extraction_fingerprint_ignores_non_extraction_params(self):
        base = BBAlignConfig()
        # RANSAC / stage-2 settings don't affect extracted features:
        # ablation variants differing only there share cache entries.
        ransac_variant = replace(
            base, bv_ransac=replace(base.bv_ransac, disambiguate_pi=False))
        assert extraction_fingerprint(base) \
            == extraction_fingerprint(ransac_variant)

    def test_extraction_fingerprint_tracks_extraction_params(self):
        base = BBAlignConfig()
        cell_variant = replace(
            base, bv_image=replace(base.bv_image, cell_size=0.4))
        assert extraction_fingerprint(base) \
            != extraction_fingerprint(cell_variant)
        detector_variant = replace(base, keypoint_detector="harris")
        assert extraction_fingerprint(base) \
            != extraction_fingerprint(detector_variant)

    def test_datasets_differing_in_length_share_entries(self):
        """Records generate per index, so a 1-pair and a 2-pair dataset
        share their first pair's scans — and their cache entries."""
        cache = FeatureCache(max_entries=16)
        run_pose_recovery_sweep(default_dataset(1, seed=5),
                                include_vips=False, cache=cache)
        timings = SweepTimings()
        run_pose_recovery_sweep(default_dataset(2, seed=5),
                                include_vips=False, cache=cache,
                                timings=timings)
        assert timings.cache_hits == 2 and timings.cache_misses == 2
        other_seed = SweepTimings()
        run_pose_recovery_sweep(default_dataset(1, seed=6),
                                include_vips=False, cache=cache,
                                timings=other_seed)
        assert other_seed.cache_hits == 0

    def test_scan_key_separates_scans(self):
        """Each role of each pair is its own scan, so its own key."""
        dataset = default_dataset(2, seed=5)
        keys = {scan_key(cloud, FP) for record in dataset
                for cloud in (record.pair.ego_cloud, record.pair.other_cloud)}
        assert len(keys) == 4


class TestScanKey:
    """What the key covers: only what extraction reads."""

    def cloud(self, n: int = 40, seed: int = 0) -> PointCloud:
        rng = np.random.default_rng(seed)
        return PointCloud(rng.normal(size=(n, 3)) * 10.0,
                          timestamps=rng.uniform(0.0, 1.0, n),
                          labels=rng.integers(0, 3, n))

    def test_scan_key_separates_content_and_shape(self):
        cloud = self.cloud()
        assert scan_key(cloud, FP) == scan_key(
            PointCloud(cloud.points.copy()), FP)
        moved = cloud.points.copy()
        moved[0, 0] += 1.0
        assert scan_key(cloud, FP) != scan_key(PointCloud(moved), FP)
        assert scan_key(cloud, FP) != scan_key(
            PointCloud(cloud.points[:-1]), FP)
        assert scan_key(PointCloud.empty(), FP) \
            != scan_key(BVImage(np.zeros((0, 0)), 0.2, 0.0), FP)
        bv = BVImage(np.arange(16.0).reshape(4, 4), 0.2, 0.4)
        assert scan_key(bv, FP) == scan_key(
            BVImage(bv.image.copy(), 0.2, 0.4), FP)
        assert scan_key(bv, FP) != scan_key(
            BVImage(bv.image.T, 0.2, 0.4), FP)

    def test_timestamps_and_labels_do_not_count(self):
        """Extraction reads a cloud's points only."""
        cloud = self.cloud()
        assert scan_key(cloud, FP) == scan_key(
            PointCloud(cloud.points), FP)

    def test_bv_metadata_counts(self):
        image = np.ones((4, 4))
        base = scan_key(BVImage(image, 0.2, 0.4), FP)
        assert base != scan_key(BVImage(image, 0.25, 0.4), FP)
        assert base != scan_key(BVImage(image, 0.2, 0.5), FP)
        assert base != scan_key(BVImage(image, 0.2, 0.4, 3), FP)

    def test_prior_and_fingerprint_count(self):
        cloud = self.cloud()
        assert scan_key(cloud, FP) != scan_key(cloud, FP, (1.0, 2.0))
        assert scan_key(cloud, FP, (1.0, 2.0)) \
            == scan_key(cloud, FP, np.array([1.0, 2.0]))
        assert scan_key(cloud, FP, (1.0, 2.0)) \
            != scan_key(cloud, FP, (1.0, 2.5))
        harris = extraction_fingerprint(
            BBAlignConfig(keypoint_detector="harris"))
        assert scan_key(cloud, FP) != scan_key(cloud, harris)


class TestCachedSweep:
    def test_warm_sweep_matches_cold_and_hits(self):
        """A cache-hit sweep must be byte-identical to the cold sweep."""
        dataset = default_dataset(3, seed=21)
        cache = FeatureCache(max_entries=16)
        timings = SweepTimings()
        cold = run_pose_recovery_sweep(dataset, include_vips=False,
                                       cache=cache, timings=timings)
        assert timings.cache_misses == 6      # 3 pairs x 2 roles
        assert timings.cache_hits == 0
        warm = run_pose_recovery_sweep(dataset, include_vips=False,
                                       cache=cache, timings=timings)
        assert warm == cold
        assert timings.cache_hits == 6

    def test_record_list_sweep_hits(self):
        """A sweep over a list of records caches as a dataset sweep
        does: its second run is all hits and byte-identical."""
        records = list(default_dataset(2, seed=23))
        cache = FeatureCache(max_entries=16)
        cold_timings, warm_timings = SweepTimings(), SweepTimings()
        cold = run_pose_recovery_sweep(records, include_vips=False,
                                       cache=cache, timings=cold_timings)
        warm = run_pose_recovery_sweep(records, include_vips=False,
                                       cache=cache, timings=warm_timings)
        assert cold_timings.cache_misses == 4
        assert warm_timings.cache_hits == 4
        assert warm_timings.cache_misses == 0
        assert warm == cold

    def test_sweep_entries_serve_fleet_alignment(self):
        """Features a sweep cached are hits for
        ``MultiVehicleAligner.align`` on the same clouds, and the
        alignment equals an uncached one."""
        record = next(iter(default_dataset(1, seed=24)))
        cache = FeatureCache(max_entries=16)
        run_pose_recovery_sweep([record], include_vips=False, cache=cache)
        clouds = [record.pair.ego_cloud, record.pair.other_cloud]
        hits, misses = cache.hits, cache.misses
        multi = MultiVehicleAligner()
        cached = multi.align(clouds, [[], []], rng=0, cache=cache)
        assert cache.hits == hits + 2 and cache.misses == misses
        assert MultiVehicleAligner().align(clouds, [[], []],
                                           rng=0).poses == cached.poses

    def test_cache_false_disables(self):
        dataset = default_dataset(2, seed=22)
        timings = SweepTimings()
        run_pose_recovery_sweep(dataset, include_vips=False,
                                cache=False, timings=timings)
        assert timings.cache_hits == 0
        assert timings.cache_misses == 0


def _roi_crop(features):
    """The window of the features' BV image extraction ran on."""
    roi = features.roi
    return np.ascontiguousarray(features.bv_image.image[
        roi.row0:roi.row0 + roi.size, roi.col0:roi.col0 + roi.size])


def _same_features(a, b):
    return (np.array_equal(a.keypoints.xy, b.keypoints.xy)
            and np.array_equal(a.descriptors.descriptors,
                               b.descriptors.descriptors)
            and np.array_equal(a.descriptors.keypoint_indices,
                               b.descriptors.keypoint_indices))


class TestPairBatchedCache:
    """Per-role cache accounting for one pair: `evaluate_pair` looks up
    and extracts each role on its own, so each role's hit or miss is
    counted exactly once and a missing role is backfilled."""

    def setup_method(self):
        self.record = next(iter(default_dataset(1, seed=31)))
        self.aligner = BBAlign()
        self.detector = SimulatedDetector()

    def _key(self, role):
        return scan_key(getattr(self.record.pair, f"{role}_cloud"),
                        extraction_fingerprint(self.aligner.config))

    def _evaluate(self, cache, timings=None):
        with (use_registry(timings.registry) if timings is not None
              else contextlib.nullcontext()):
            return evaluate_pair(self.record, self.aligner, self.detector,
                                 include_vips=False, cache=cache)

    def _single(self, role):
        return self.aligner.extract_features(
            getattr(self.record.pair, f"{role}_cloud"))

    def test_both_miss_then_both_hit(self):
        cache = FeatureCache(max_entries=8)
        timings = SweepTimings()
        cold = self._evaluate(cache, timings)
        assert timings.cache_misses == 2 and timings.cache_hits == 0
        assert len(cache) == 2
        ego, other = cache.get(self._key("ego")), cache.get(self._key("other"))
        warm = SweepTimings()
        assert self._evaluate(cache, warm) == cold
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert cache.get(self._key("ego")) is ego
        assert cache.get(self._key("other")) is other

    def test_mixed_hit_miss(self):
        """One role cached, the other not: exactly one hit and one
        miss, and the missing role is backfilled with the same bits a
        cold extraction produces."""
        cold = self._evaluate(None)
        for present, absent in (("ego", "other"), ("other", "ego")):
            cache = FeatureCache(max_entries=8)
            cache.put(self._key(present), self._single(present))
            timings = SweepTimings()
            assert self._evaluate(cache, timings) == cold
            assert timings.cache_hits == 1
            assert timings.cache_misses == 1
            assert len(cache) == 2  # the miss was backfilled
            assert _same_features(cache.get(self._key(absent)),
                                  self._single(absent))

    def test_pair_and_single_entries_interchangeable(self):
        """Entries written by direct per-role `_features_for` calls serve
        `evaluate_pair` bit-for-bit, and vice versa."""
        single_cache = FeatureCache(max_entries=8)
        ego_single = _features_for(
            self.aligner, self.record.pair.ego_cloud, single_cache)
        other_single = _features_for(
            self.aligner, self.record.pair.other_cloud, single_cache)
        timings = SweepTimings()
        from_single = self._evaluate(single_cache, timings)
        assert timings.cache_hits == 2
        assert single_cache.get(self._key("ego")) is ego_single
        assert single_cache.get(self._key("other")) is other_single
        pair_cache = FeatureCache(max_entries=8)
        assert self._evaluate(pair_cache) == from_single
        assert _same_features(pair_cache.get(self._key("ego")), ego_single)
        assert _same_features(pair_cache.get(self._key("other")),
                              other_single)

    def test_eviction_bounds_memory_during_sweep(self):
        """A sweep over more pairs than the cache holds stays bounded
        and still produces the exact uncached outcomes."""
        dataset = default_dataset(4, seed=32)
        cache = FeatureCache(max_entries=3)
        timings = SweepTimings()
        bounded = run_pose_recovery_sweep(dataset, include_vips=False,
                                          cache=cache, timings=timings)
        assert len(cache) == 3  # 8 entries written, LRU kept 3
        assert timings.cache_misses == 8
        uncached = run_pose_recovery_sweep(dataset, include_vips=False,
                                           cache=False)
        assert bounded == uncached


class TestRoiSweepExtraction:
    def test_both_roles_extract_with_their_priors(self):
        """With ROI culling on, a sweep extracts each role with its own
        prior: both roles' features are cropped, and they equal a direct
        `extract_features(cloud, prior=...)` bit for bit."""
        config = BBAlignConfig(roi=RoiCullConfig(enabled=True))
        dataset = default_dataset(2, seed=33)
        cache = FeatureCache(max_entries=16)
        run_pose_recovery_sweep(dataset, config=config, include_vips=False,
                                workers=1, cache=cache)
        aligner = BBAlign(config)
        fingerprint = extraction_fingerprint(config)
        for record in dataset:
            gt = record.pair.gt_relative  # other -> ego
            for cloud, prior in (
                    (record.pair.ego_cloud, gt.translation),
                    (record.pair.other_cloud, gt.inverse().translation)):
                got = cache.get(scan_key(cloud, fingerprint, prior))
                assert got is not None
                assert got.roi is not None
                want = aligner.extract_features(cloud, prior=prior)
                assert got.roi == want.roi
                assert _same_features(got, want)
                # Features keep no MIM: the one the cached entry was
                # described from is recomputed on its ROI crop.
                got_mim, want_mim = (
                    compute_mim(_roi_crop(f), config.log_gabor)
                    for f in (got, want))
                assert np.array_equal(got_mim.mim, want_mim.mim)
                assert np.array_equal(got_mim.max_amplitude,
                                      want_mim.max_amplitude)

    def test_one_cloud_two_priors_two_entries(self):
        """Under ROI culling the prior picks the crop, so one cloud
        extracted for two priors is two entries, each equal to its own
        direct extraction."""
        config = BBAlignConfig(roi=RoiCullConfig(enabled=True))
        aligner = BBAlign(config)
        cloud = next(iter(default_dataset(1, seed=34))).pair.ego_cloud
        cache = FeatureCache(max_entries=16)
        priors = ((20.0, 0.0), (-20.0, 5.0))
        got = [_features_for(aligner, cloud, cache, prior)
               for prior in priors]
        assert len(cache) == 2 and cache.misses == 2
        assert got[0].roi != got[1].roi
        for features, prior in zip(got, priors):
            assert _features_for(aligner, cloud, cache, prior) is features
            assert _same_features(
                features, aligner.extract_features(cloud, prior=prior))
        assert cache.hits == 2
