"""Tests for the stage-1 feature cache (repro.runtime.cache)."""

from dataclasses import replace

import numpy as np

from repro.bev.roi import RoiCullConfig
from repro.core.config import BBAlignConfig
from repro.core.pipeline import BBAlign
from repro.detection.simulated import SimulatedDetector
from repro.experiments.common import (
    _features_for,
    default_dataset,
    evaluate_pair,
    run_pose_recovery_sweep,
)
from repro.runtime.cache import (
    FeatureCache,
    dataset_fingerprint,
    extraction_fingerprint,
    feature_key,
)
from repro.runtime.timings import SweepTimings
from repro.simulation.dataset import DatasetConfig


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

    def test_dataset_fingerprint_ignores_num_pairs(self):
        a = DatasetConfig(num_pairs=10, seed=5)
        b = DatasetConfig(num_pairs=40, seed=5)
        # Records are generated per index, so a 10-pair and a 40-pair
        # dataset share their first 10 records — and their cache entries.
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        assert dataset_fingerprint(a) != dataset_fingerprint(
            DatasetConfig(num_pairs=10, seed=6))

    def test_feature_key_separates_roles_and_indices(self):
        ds = dataset_fingerprint(DatasetConfig())
        ext = extraction_fingerprint(BBAlignConfig())
        keys = {feature_key(ds, 0, "ego", ext),
                feature_key(ds, 0, "other", ext),
                feature_key(ds, 1, "ego", ext)}
        assert len(keys) == 3


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

    def test_cache_false_disables(self):
        dataset = default_dataset(2, seed=22)
        timings = SweepTimings()
        run_pose_recovery_sweep(dataset, include_vips=False,
                                cache=False, timings=timings)
        assert timings.cache_hits == 0
        assert timings.cache_misses == 0


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
        self.ds_fp = dataset_fingerprint(DatasetConfig(seed=31))
        self.ext_fp = extraction_fingerprint(self.aligner.config)

    def _key(self, role):
        return feature_key(self.ds_fp, self.record.index, role, self.ext_fp)

    def _evaluate(self, cache, timings=None):
        return evaluate_pair(self.record, self.aligner, self.detector,
                             include_vips=False, cache=cache,
                             dataset_fp=self.ds_fp, extraction_fp=self.ext_fp,
                             timings=timings)

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
            self.aligner, self.record.pair.ego_cloud, "ego",
            self.record.index, single_cache, self.ds_fp, self.ext_fp, None)
        other_single = _features_for(
            self.aligner, self.record.pair.other_cloud, "other",
            self.record.index, single_cache, self.ds_fp, self.ext_fp, None)
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
        ds_fp = dataset_fingerprint(dataset.config)
        ext_fp = extraction_fingerprint(config)
        for record in dataset:
            gt = record.pair.gt_relative  # other -> ego
            for role, cloud, prior in (
                    ("ego", record.pair.ego_cloud, gt.translation),
                    ("other", record.pair.other_cloud,
                     gt.inverse().translation)):
                got = cache.get(feature_key(ds_fp, record.index, role,
                                            ext_fp))
                assert got is not None
                assert got.roi is not None
                want = aligner.extract_features(cloud, prior=prior)
                assert got.roi == want.roi
                assert _same_features(got, want)
                assert np.array_equal(got.mim.mim, want.mim.mim)
                assert np.array_equal(got.mim.max_amplitude,
                                      want.mim.max_amplitude)
