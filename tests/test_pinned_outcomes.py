"""Pinned outcomes of the seeded sweep and the paper-scale stage-1 pair.

Deterministic facts of two fixed inputs, held exactly:

- the serial 40-pair sweep at data seed 2024 (``include_vips=False``,
  feature cache off) at the default configuration: per-pair discrete
  fields;
- one 320 x 320 stage-1 pair (cell 0.48 m, first record of the same
  dataset, RANSAC seed 7): point, keypoint, match and inlier counts;
- the bits of stage 1: SHA-256 digests of the MIM and winning-amplitude
  map (``compute_mim`` on the extracted BV image), keypoints,
  descriptors and dominant bins of that pair and of one default
  192 x 192 scan, and of the pair's match index arrays.  A
  kernel rework that claims bit-identical outputs must leave these
  unchanged.  They hold for one numpy/SciPy build on one SIMD level;
  on another platform, re-record them at a commit known to be good
  (``stage1_digests`` below computes them).

Every field is seeded, so a change here means behavior changed.  Timing
lives in ``perfbench``'s per-layer table, not here.
"""

import hashlib

import numpy as np
import pytest

from repro.bev.mim import compute_mim
from repro.core.bv_matching import BVMatcher
from repro.core.config import BBAlignConfig, BVImageConfig
from repro.experiments.common import default_dataset, run_pose_recovery_sweep

SWEEP_PAIRS = 40
DATA_SEED = 2024

#: (index, success, num_matches, inliers_bv, inliers_box, message_bytes)
#: per pair at the default configuration.
DEFAULT_OUTCOMES = (
    (0, True, 37, 21, 8, 36924), (1, True, 86, 72, 20, 37064),
    (2, True, 52, 30, 8, 36984), (3, True, 67, 35, 16, 37044),
    (4, True, 75, 73, 12, 37004), (5, True, 91, 76, 8, 36964),
    (6, True, 68, 59, 8, 36924), (7, False, 48, 41, 4, 36924),
    (8, False, 41, 19, 4, 36884), (9, True, 78, 67, 8, 36944),
    (10, False, 31, 5, 0, 37104), (11, True, 75, 73, 16, 37004),
    (12, True, 54, 35, 12, 36984), (13, False, 42, 31, 0, 36924),
    (14, True, 65, 56, 8, 36964), (15, True, 37, 18, 16, 36944),
    (16, True, 67, 49, 8, 36984), (17, False, 16, 6, 8, 36904),
    (18, True, 26, 19, 12, 36964), (19, True, 23, 14, 8, 36964),
    (20, True, 41, 30, 12, 36964), (21, False, 28, 5, 0, 36884),
    (22, True, 67, 51, 8, 36944), (23, False, 49, 11, 0, 36964),
    (24, False, 13, 9, 0, 36924), (25, True, 51, 41, 16, 37024),
    (26, False, 57, 10, 4, 37024), (27, True, 60, 53, 8, 36964),
    (28, True, 59, 35, 16, 37004), (29, False, 21, 5, 0, 36984),
    (30, False, 78, 67, 4, 36944), (31, True, 72, 56, 16, 36944),
    (32, True, 36, 15, 8, 37004), (33, True, 37, 30, 8, 37044),
    (34, False, 61, 47, 4, 36964), (35, True, 68, 49, 16, 37004),
    (36, False, 43, 12, 12, 37024), (37, True, 64, 43, 16, 37004),
    (38, True, 61, 50, 8, 36964), (39, False, 29, 11, 0, 36944),
)

def _fields(outcome) -> tuple:
    return (outcome.index, outcome.success, outcome.num_matches,
            outcome.inliers_bv, outcome.inliers_box, outcome.message_bytes)


@pytest.fixture(scope="module")
def sweeps():
    """The default-configuration sweep over the pinned records."""
    records = list(default_dataset(SWEEP_PAIRS, DATA_SEED))
    return [_fields(o) for o in run_pose_recovery_sweep(
        records, include_vips=False, workers=1, cache=False)]


class TestSeededSweep:
    def test_default_outcomes_per_pair(self, sweeps):
        assert tuple(sweeps) == DEFAULT_OUTCOMES


class TestPaperScaleStage1Pair:
    @pytest.fixture(scope="class")
    def pair(self):
        config = BBAlignConfig(bv_image=BVImageConfig(cell_size=0.48))
        matcher = BVMatcher(config)
        record = default_dataset(1, DATA_SEED)[0]
        ego_bv = matcher.make_bv_image(record.pair.ego_cloud)
        other_bv = matcher.make_bv_image(record.pair.other_cloud)
        return matcher, record, ego_bv, other_bv

    def test_stage1_counts(self, pair):
        matcher, record, ego_bv, other_bv = pair
        assert ego_bv.size == 320
        assert len(record.pair.ego_cloud.points) == 41451
        other = matcher.extract(other_bv)
        ego = matcher.extract(ego_bv)
        assert len(ego.keypoints) == 232
        result = matcher.match(other, ego, rng=np.random.default_rng(7))
        assert result.num_matches == 47
        assert result.inliers_bv == 23
        assert result.success


def _digest(array) -> str:
    """SHA-256 over an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def stage1_digests(features, log_gabor) -> dict:
    """Digests of the MIM (recomputed from the features' BV image with
    the ``log_gabor`` bank they were extracted with), keypoint and
    descriptor arrays of a :class:`BVFeatures`."""
    desc = features.descriptors
    mim = compute_mim(features.bv_image, log_gabor)
    return {
        "mim": _digest(mim.mim),
        "max_amplitude": _digest(mim.max_amplitude),
        "keypoints": _digest(np.concatenate(
            [features.keypoints.xy.ravel(), features.keypoints.scores])),
        "descriptors": _digest(desc.descriptors),
        "keypoint_indices": _digest(desc.keypoint_indices),
        "dominant_bins": _digest(desc.dominant_bins),
    }


#: Recorded before the descriptor, Log-Gabor and matching kernels were
#: reworked for speed; the rework must reproduce every bit.
PAIR_OTHER_DIGESTS = {
    "mim":
        "1837bb2d7a7d5c4dcc7e8a688884b844b4441641f0c1d82646e5b4a9589ceaff",
    "max_amplitude":
        "e771a62904220062f113cabf0bda808e1a529ec9dcc3738cc86fa7c5b3c2d7c8",
    "keypoints":
        "d752b78a51f5e6c0d805649107c89dcb29125f0eba230d6b8fe96813962dbf64",
    "descriptors":
        "afd8e8ef5f708a55d53e1adc77fe9c92fe0fb6732db431e899af329970270b08",
    "keypoint_indices":
        "339274f076e140c1e7f78d62883543bc70b9657d4ca6e2509f512ddbe2c3b739",
    "dominant_bins":
        "5c9e2a9ec6b1982b615ea6e5c9dd28adadc4d4739c4a59fb403c3e5b1ce38370",
}
PAIR_EGO_DIGESTS = {
    "mim":
        "3b804a8d8dbc72a3b4ae5b2235f526eec07fae89ba5628b09adaec696e27f1a6",
    "max_amplitude":
        "9b70517788dbf07c58af1b078ff8286555951e1b6fff021a06faa08cda631ce4",
    "keypoints":
        "5588c9e0dd0a7be7ba09584f88c6983e200c594be78a62b692d4e2870aba1385",
    "descriptors":
        "960931b753f0900dfb3856361026344ca46e88884c899453151e114b2f6bd6e3",
    "keypoint_indices":
        "12483682b8f6deacf151119ef4706e3063b64b2c530468ed18be06058fb34725",
    "dominant_bins":
        "b33794710225eef28cc151dd279620d5c084d7046aae298603223d4f455ec52e",
}
PAIR_MATCH_DIGEST = (
    "de985efa1f90f3f6bcdd548b1d49f1edeaf8665621b655435c628436685cfc6b")
SCAN_192_DIGESTS = {
    "mim":
        "cce7d32d0b715010128eadded30b4033682133795eabba487c6114db57517ea5",
    "max_amplitude":
        "29886ac0f4816f28b6a4b3f9b8a16dbb997a4dce0f85a46331770790bc8eb288",
    "keypoints":
        "8043ab26c44a1af1e6b7a6c739fd89213d0785f2b4e15b0635b6fa2ac675c112",
    "descriptors":
        "dd41ddcaa8b8c4516ae5fb888e1aa5d6a6151fc02eab989bfea00ae749b4ffcd",
    "keypoint_indices":
        "616fd21a708b0aecf22fe27c49c2b512e00e04cf8f2e32728c66918e0327cfff",
    "dominant_bins":
        "37f7553f9e000bcafe2ab9b761075123f4e048b4547013626a688a7d8372d224",
}


class TestStage1Bits:
    @pytest.fixture(scope="class")
    def pair(self):
        matcher = BVMatcher(BBAlignConfig(
            bv_image=BVImageConfig(cell_size=0.48)))
        record = default_dataset(1, DATA_SEED)[0]
        other = matcher.extract(
            matcher.make_bv_image(record.pair.other_cloud))
        ego = matcher.extract(matcher.make_bv_image(record.pair.ego_cloud))
        result = matcher.match(other, ego, rng=np.random.default_rng(7))
        return other, ego, result, matcher.config.log_gabor

    def test_pair_features(self, pair):
        other, ego, _, log_gabor = pair
        assert stage1_digests(other, log_gabor) == PAIR_OTHER_DIGESTS
        assert stage1_digests(ego, log_gabor) == PAIR_EGO_DIGESTS

    def test_pair_match_indices(self, pair):
        matches = pair[2].matches
        assert _digest(np.stack([matches.src_indices, matches.dst_indices])
                       ) == PAIR_MATCH_DIGEST

    def test_default_scan(self):
        matcher = BVMatcher()
        record = default_dataset(1, DATA_SEED)[0]
        bv = matcher.make_bv_image(record.pair.ego_cloud)
        assert bv.size == 192
        assert stage1_digests(matcher.extract(bv), matcher.config.log_gabor
                              ) == SCAN_192_DIGESTS
