"""Tests for repro.comms (wire codecs and the V2V message)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bev.projection import BVImage, height_map
from repro.boxes.box import Box2D
from repro.comms import (
    CodecError,
    Tier,
    TieredMessage,
    decode_boxes,
    decode_bv_image,
    decode_message,
    encode_boxes,
    encode_bv_image,
    encode_message,
)


class TestBVCodec:
    def test_roundtrip_structure(self, small_scan):
        bv = height_map(small_scan, 0.8, 76.8)
        decoded = decode_bv_image(encode_bv_image(bv))
        assert decoded.size == bv.size
        assert decoded.cell_size == bv.cell_size
        assert decoded.lidar_range == bv.lidar_range
        # Occupancy is preserved exactly.
        np.testing.assert_array_equal(decoded.image > 0, bv.image > 0)

    def test_quantization_error_bounded(self, small_scan):
        bv = height_map(small_scan, 0.8, 76.8)
        decoded = decode_bv_image(encode_bv_image(bv))
        scale = bv.image.max()
        error = np.abs(decoded.image - bv.image)
        assert error.max() <= scale / 255.0 + 1e-9

    def test_compression_beats_dense(self, small_scan):
        bv = height_map(small_scan, 0.8, 76.8)
        encoded = encode_bv_image(bv)
        dense = bv.image.size  # one byte per pixel
        assert len(encoded) < dense / 2  # sparse images compress well

    def test_empty_image(self):
        bv = BVImage(np.zeros((64, 64)), 0.5, 16.0)
        decoded = decode_bv_image(encode_bv_image(bv))
        assert decoded.image.max() == 0.0

    def test_full_image(self):
        bv = BVImage(np.full((32, 32), 3.0), 0.5, 8.0)
        decoded = decode_bv_image(encode_bv_image(bv))
        np.testing.assert_allclose(decoded.image, 3.0, rtol=0.01)

    def test_rejects_wrong_magic(self):
        with pytest.raises(ValueError):
            decode_bv_image(b"XXXX" + b"\x00" * 20)

    def test_rejects_truncated(self, small_scan):
        bv = height_map(small_scan, 0.8, 76.8)
        data = encode_bv_image(bv)
        with pytest.raises(ValueError):
            decode_bv_image(data[:len(data) // 2])

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_random_sparse(self, seed):
        rng = np.random.default_rng(seed)
        image = np.zeros((48, 48))
        n = rng.integers(0, 300)
        rows = rng.integers(0, 48, n)
        cols = rng.integers(0, 48, n)
        image[rows, cols] = rng.uniform(0.1, 5.0, n)
        bv = BVImage(image, 0.4, 9.6)
        decoded = decode_bv_image(encode_bv_image(bv))
        np.testing.assert_array_equal(decoded.image > 0, image > 0)
        assert np.abs(decoded.image - image).max() <= 5.0 / 255 + 1e-9

    def test_long_zero_run_split(self):
        # > 65535 consecutive zeros exercises the run splitting.
        image = np.zeros((300, 300))
        image[-1, -1] = 1.0
        bv = BVImage(image, 0.5, 75.0)
        decoded = decode_bv_image(encode_bv_image(bv))
        assert decoded.image[-1, -1] > 0
        assert (decoded.image > 0).sum() == 1


class TestBoxCodec:
    def test_roundtrip(self):
        boxes = [Box2D(1.5, -2.25, 4.5, 1.9, 0.7),
                 Box2D(-10.0, 3.0, 5.0, 2.1, -1.2)]
        decoded = decode_boxes(encode_boxes(boxes))
        assert len(decoded) == 2
        for a, b in zip(boxes, decoded):
            assert a.center_x == pytest.approx(b.center_x, abs=1e-5)
            assert a.yaw == pytest.approx(b.yaw, abs=1e-5)

    def test_empty_list(self):
        assert decode_boxes(encode_boxes([])) == []

    def test_rejects_wrong_magic(self):
        with pytest.raises(ValueError):
            decode_boxes(b"YYYY\x00\x00")


class TestV2VMessage:
    """The paper's message (Algorithm 1, line 3): the BV-image tier."""

    def test_roundtrip(self, small_scan):
        bv = height_map(small_scan, 0.8, 76.8)
        boxes = [Box2D(5.0, 2.0, 4.5, 1.9, 0.1)]
        message = TieredMessage(Tier.BV_IMAGE, boxes, bv_image=bv)
        parsed = decode_message(encode_message(message, record=False))
        assert parsed.bv_image.size == bv.size
        assert len(parsed.boxes) == 1

    def test_size_far_below_raw_cloud(self, small_scan):
        from repro.core.pipeline import BBAlign
        bv = height_map(small_scan, 0.8, 76.8)
        message = TieredMessage(Tier.BV_IMAGE, [], bv_image=bv)
        assert message.size_bytes < BBAlign.raw_cloud_bytes(small_scan) / 10

    def test_recovery_works_on_decoded_message(self, frame_pair,
                                               bv_matcher):
        """End-to-end: stage 1 run on the *transmitted* (quantized,
        decoded) BV image still matches."""
        bv_other = bv_matcher.make_bv_image(frame_pair.other_cloud)
        message = TieredMessage(Tier.BV_IMAGE, [], bv_image=bv_other)
        received = decode_message(encode_message(message, record=False))
        ego_features = bv_matcher.extract_from_cloud(frame_pair.ego_cloud)
        other_features = bv_matcher.extract(received.bv_image)
        result = bv_matcher.match(other_features, ego_features, rng=0)
        assert result.success
        err = result.transform.translation_distance(frame_pair.gt_relative)
        assert err < 1.5

    def test_rejects_garbage(self):
        with pytest.raises(CodecError):
            decode_message(b"nope")


class TestCompressedCodec:
    def test_compressed_roundtrip(self, small_scan):
        from repro.bev.projection import height_map
        from repro.comms import decode_bv_image, encode_bv_image
        bv = height_map(small_scan, 0.8, 76.8)
        plain = encode_bv_image(bv)
        packed = encode_bv_image(bv, compress=True)
        assert len(packed) < len(plain)
        a = decode_bv_image(plain)
        b = decode_bv_image(packed)
        np.testing.assert_allclose(a.image, b.image)

    def test_corrupt_compressed_rejected(self, small_scan):
        from repro.bev.projection import height_map
        from repro.comms import decode_bv_image, encode_bv_image
        bv = height_map(small_scan, 0.8, 76.8)
        data = bytearray(encode_bv_image(bv, compress=True))
        data[40] ^= 0xFF
        with pytest.raises(ValueError):
            decode_bv_image(bytes(data))
