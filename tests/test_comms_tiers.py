"""Tiered codec: per-tier round trips, construction, and accounting."""

import zlib

import numpy as np
import pytest

from repro.boxes.box import Box2D
from repro.comms import (
    CodecError,
    Tier,
    TierCodecConfig,
    TieredMessage,
    build_message,
    decode_message,
    encode_message,
)
from repro.comms.tiers import (
    KeypointPayload,
    dense_payload_bytes,
    pool_descriptors,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.pointcloud.cloud import PointCloud


def some_boxes(seed=0, n=4):
    rng = np.random.default_rng(seed)
    return [Box2D(*rng.uniform(-30, 30, 2), 4.5, 1.9,
                  rng.uniform(-3, 3)) for _ in range(n)]


def small_cloud(seed=0, n=200):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-40, 40, (n, 3)))


def keypoint_payload(seed=0, n=12, grid=3, n_orient=6, size=48):
    rng = np.random.default_rng(seed)
    xy = np.sort(rng.integers(0, size, (n, 2)), axis=0)
    desc = rng.random((n, grid * grid * n_orient))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    return KeypointPayload(
        xy=xy.astype(np.int64), scores=rng.random(n).astype(np.float64),
        descriptors=desc, image_size=size, cell_size=0.4,
        lidar_range=size * 0.4 / 2, grid_size=grid,
        num_orientations=n_orient)


class TestRoundTrips:
    def test_full_scan_lossless(self):
        cloud = small_cloud()
        message = TieredMessage(Tier.FULL_SCAN, some_boxes(), cloud=cloud)
        decoded = decode_message(encode_message(message, record=False))
        assert decoded.tier is Tier.FULL_SCAN
        # Byte-exact: the control tier must reproduce the sender's scan.
        np.testing.assert_array_equal(decoded.cloud.points, cloud.points)
        for a, b in zip(decoded.boxes, message.boxes):
            assert (a.center_x, a.center_y, a.yaw) \
                == (b.center_x, b.center_y, b.yaw)

    def test_bv_image_round_trip(self):
        rng = np.random.default_rng(3)
        from repro.bev.projection import BVImage
        image = np.zeros((16, 16))
        mask = rng.random((16, 16)) < 0.3
        image[mask] = rng.uniform(0.5, 4.0, mask.sum())
        bv = BVImage(image, cell_size=0.4, lidar_range=3.2)
        message = TieredMessage(Tier.BV_IMAGE, some_boxes(), bv_image=bv)
        decoded = decode_message(encode_message(message, record=False))
        assert decoded.tier is Tier.BV_IMAGE
        assert decoded.bv_image.size == 16
        assert np.max(np.abs(decoded.bv_image.image - image)) \
            < image.max() / 255.0 + 1e-9

    @pytest.mark.parametrize("bits", [4, 8])
    def test_keypoints_round_trip(self, bits):
        kp = keypoint_payload()
        config = TierCodecConfig(descriptor_bits=bits)
        message = TieredMessage(Tier.KEYPOINTS, some_boxes(),
                                keypoints=kp)
        decoded = decode_message(encode_message(message, config,
                                                record=False))
        out = decoded.keypoints
        np.testing.assert_array_equal(out.xy, kp.xy)  # delta coding exact
        assert out.grid_size == kp.grid_size
        assert out.num_orientations == kp.num_orientations
        assert out.image_size == kp.image_size
        np.testing.assert_allclose(out.scores, kp.scores, atol=1e-3)
        # Quantized but direction-preserving: rows stay unit-norm and
        # close in cosine similarity.
        cosines = np.sum(out.descriptors * kp.descriptors, axis=1)
        tolerance = 0.9 if bits == 4 else 0.99
        assert np.all(cosines > tolerance)

    def test_keypoints_empty_payload(self):
        kp = keypoint_payload(n=0)
        message = TieredMessage(Tier.KEYPOINTS, [], keypoints=kp)
        decoded = decode_message(encode_message(message, record=False))
        assert len(decoded.keypoints.xy) == 0
        assert decoded.keypoints.descriptors.shape[0] == 0

    def test_boxes_only_round_trip(self):
        message = TieredMessage(Tier.BOXES_ONLY, some_boxes())
        data = encode_message(message, record=False)
        decoded = decode_message(data)
        assert decoded.tier is Tier.BOXES_ONLY
        assert decoded.cloud is None and decoded.bv_image is None
        assert len(decoded.boxes) == 4
        assert len(data) < 300  # the cheap rung stays cheap

    def test_size_ordering_on_synthetic_content(self):
        cloud = small_cloud(n=2000)
        from repro.bev.projection import BVImage
        rng = np.random.default_rng(1)
        image = np.zeros((48, 48))
        mask = rng.random((48, 48)) < 0.25
        image[mask] = rng.uniform(0.5, 4.0, mask.sum())
        boxes = some_boxes()
        sizes = [
            TieredMessage(Tier.FULL_SCAN, boxes, cloud=cloud).size_bytes,
            TieredMessage(Tier.BV_IMAGE, boxes, bv_image=BVImage(
                image, cell_size=0.4, lidar_range=9.6)).size_bytes,
            TieredMessage(Tier.KEYPOINTS, boxes,
                          keypoints=keypoint_payload()).size_bytes,
            TieredMessage(Tier.BOXES_ONLY, boxes).size_bytes,
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert len(set(sizes)) == len(sizes)  # strictly decreasing


class TestFullScanStored:
    """The full-scan block is ``<I count> + zlib(rows)`` written stored
    (level 0); blocks deflated at the old level 6 still decode."""

    @staticmethod
    def frame(sense: bytes, boxes: list[Box2D]) -> bytes:
        from repro.comms.codec import _frame
        from repro.comms.tiers import _TIER_HEAD, _encode_boxes64
        box_block = _encode_boxes64(boxes)
        header = _TIER_HEAD.pack(b"TF01", len(sense), len(box_block))
        return _frame(header, sense + box_block)

    def test_level6_block_still_decodes(self):
        from repro.comms.tiers import _SCAN_HEAD
        cloud = small_cloud(n=300)
        sense = (_SCAN_HEAD.pack(len(cloud))
                 + zlib.compress(cloud.points.tobytes(), 6))
        decoded = decode_message(self.frame(sense, some_boxes()))
        assert decoded.cloud.points.tobytes() == cloud.points.tobytes()

    def test_block_is_a_stored_zlib_stream(self):
        from repro.comms.tiers import _encode_cloud
        cloud = small_cloud(n=5000)
        block = _encode_cloud(cloud)
        assert int.from_bytes(block[:4], "little") == 5000
        # What any TF01 decoder does with the block: inflate it.
        raw = zlib.decompress(block[4:])
        assert len(raw) == 5000 * 24
        assert raw == cloud.points.tobytes()
        # Stored, not deflated: the rows plus zlib's framing only.
        assert len(raw) < len(block) - 4 <= len(raw) + len(raw) // 1000 + 16

    def test_round_trip_bit_identical(self):
        points = small_cloud(n=64).points.copy()
        points[0] = [np.nan, np.inf, -np.inf]
        points[1] = [-0.0, 5e-324, -1.7976931348623157e308]
        cloud = PointCloud(points)
        message = TieredMessage(Tier.FULL_SCAN, some_boxes(), cloud=cloud)
        decoded = decode_message(encode_message(message, record=False))
        assert decoded.cloud.points.tobytes() == points.tobytes()


class TestEnvelope:
    def test_unknown_magic_raises_codec_error(self):
        data = bytearray(encode_message(
            TieredMessage(Tier.BOXES_ONLY, some_boxes()), record=False))
        data[:4] = b"TZ99"
        with pytest.raises(CodecError, match="unknown message tier"):
            decode_message(bytes(data))

    def test_boxes_only_rejects_sense_bytes(self):
        # Hand-build a TX01 frame that smuggles sense bytes.
        from repro.comms.codec import _frame
        from repro.comms.tiers import _TIER_HEAD, encode_boxes
        sense = b"contraband"
        boxes = encode_boxes([])
        header = _TIER_HEAD.pack(b"TX01", len(sense), len(boxes))
        with pytest.raises(CodecError, match="unexpected sense"):
            decode_message(_frame(header, sense + boxes))

    def test_non_finite_box64_rejected(self):
        message = TieredMessage(
            Tier.FULL_SCAN, [Box2D(0.0, 0.0, 4.0, 2.0, 0.0)],
            cloud=small_cloud(n=5))
        data = bytearray(encode_message(message, record=False))
        # Recompute a frame with NaN center by corrupting via re-encode:
        # easier to assert through the public decoder on a crafted frame.
        from repro.comms.codec import _frame
        from repro.comms.tiers import (
            _BOX64_HEAD,
            _BOX64_RECORD,
            _TIER_HEAD,
            _encode_cloud,
        )
        sense = _encode_cloud(small_cloud(n=5))
        boxes = _BOX64_HEAD.pack(1) + _BOX64_RECORD.pack(
            float("nan"), 0.0, 4.0, 2.0, 0.0)
        header = _TIER_HEAD.pack(b"TF01", len(sense), len(boxes))
        with pytest.raises(CodecError, match="non-finite"):
            decode_message(_frame(header, sense + boxes))
        del data


class TestBuildMessage:
    def test_full_scan_requires_cloud(self):
        with pytest.raises(ValueError, match="point cloud"):
            build_message(Tier.FULL_SCAN, [])

    def test_bv_image_requires_features(self):
        with pytest.raises(ValueError, match="BVFeatures"):
            build_message(Tier.BV_IMAGE, [])

    def test_keypoints_requires_features(self):
        with pytest.raises(ValueError, match="BVFeatures"):
            build_message(Tier.KEYPOINTS, [])

    def test_boxes_only_needs_nothing(self):
        message = build_message(Tier.BOXES_ONLY, some_boxes())
        assert message.tier is Tier.BOXES_ONLY

    def test_keypoint_budget_enforced(self, pair_features):
        ego, _ = pair_features
        config = TierCodecConfig(max_keypoints=10)
        message = build_message(Tier.KEYPOINTS, [], features=ego,
                                config=config)
        assert len(message.keypoints.xy) <= 10
        round_tripped = decode_message(
            encode_message(message, config, record=False))
        np.testing.assert_array_equal(round_tripped.keypoints.xy,
                                      message.keypoints.xy)


class TestPooling:
    def test_pool_reduces_dimension(self):
        desc = np.random.default_rng(0).random((7, 6 * 6 * 12))
        pooled = pool_descriptors(desc, 6, 12, 2, 2)
        assert pooled.shape == (7, 3 * 3 * 6)
        np.testing.assert_allclose(np.linalg.norm(pooled, axis=1), 1.0)

    def test_pool_identity_factors(self):
        rng = np.random.default_rng(1)
        desc = rng.random((3, 2 * 2 * 4))
        desc /= np.linalg.norm(desc, axis=1, keepdims=True)
        pooled = pool_descriptors(desc, 2, 4, 1, 1)
        np.testing.assert_allclose(pooled, desc)

    def test_pool_sums_blocks(self):
        # One keypoint, all-ones descriptor: every pooled bin sums
        # grid_pool^2 * orientation_pool ones, then L2-normalizes.
        pooled = pool_descriptors(np.ones((1, 4 * 4 * 2)), 4, 2, 2, 2)
        assert pooled.shape == (1, 2 * 2 * 1)
        np.testing.assert_allclose(pooled, 0.5)

    def test_indivisible_factors_raise(self):
        with pytest.raises(ValueError, match="does not divide"):
            pool_descriptors(np.ones((1, 6 * 6 * 12)), 6, 12, 4, 2)


class TestConfigValidation:
    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            TierCodecConfig(descriptor_bits=3)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            TierCodecConfig(max_keypoints=0)

    def test_rejects_bad_compression(self):
        with pytest.raises(ValueError):
            TierCodecConfig(compress_level=11)


class TestAccounting:
    def test_encode_records_into_registry(self):
        registry = MetricsRegistry()
        message = TieredMessage(Tier.BOXES_ONLY, some_boxes())
        with use_registry(registry):
            data = encode_message(message)
        assert registry.counter("comms/messages_sent").value == 1
        assert registry.counter("comms/bytes/encoded").value == len(data)
        assert registry.counter(
            "comms/tier/boxes-only/messages").value == 1
        assert registry.counter("comms/bytes/payload").value \
            == dense_payload_bytes(message)

    def test_size_bytes_does_not_record(self):
        registry = MetricsRegistry()
        message = TieredMessage(Tier.BOXES_ONLY, some_boxes())
        with use_registry(registry):
            message.size_bytes
        assert "comms/messages_sent" not in registry.counters

    def test_dense_payload_bytes_by_tier(self):
        cloud = small_cloud(n=10)
        assert dense_payload_bytes(TieredMessage(
            Tier.FULL_SCAN, some_boxes(n=2), cloud=cloud)) \
            == 12 * 10 + 40
        kp = keypoint_payload(n=5)
        dim = kp.descriptors.shape[1]
        assert dense_payload_bytes(TieredMessage(
            Tier.KEYPOINTS, [], keypoints=kp)) == 5 * (12 + 4 * dim)
        assert dense_payload_bytes(
            TieredMessage(Tier.BOXES_ONLY, some_boxes(n=3))) == 60
