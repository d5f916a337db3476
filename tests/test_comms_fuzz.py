"""Codec hardening: property/fuzz tests for the wire format.

The contract under test is absolute: for *any* byte buffer, the
decoders either return a faithfully reconstructed value or raise
:class:`~repro.comms.CodecError` — never a crash, never silent garbage.
Exhaustive truncation (every prefix of a real message) plus seeded
byte-flip fuzzing pin it down.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bev.projection import BVImage
from repro.boxes.box import Box2D
from repro.comms import (
    CodecError,
    Tier,
    TieredMessage,
    V2VMessage,
    decode_message,
    encode_message,
)
from repro.comms.codec import (
    decode_boxes,
    decode_bv_image,
    encode_boxes,
    encode_bv_image,
)
from repro.comms.envelope import (
    ServiceRequest,
    ServiceResponse,
    ShmPairRef,
    decode_request,
    decode_response,
)
from repro.comms.tiers import KeypointPayload
from repro.pointcloud.cloud import PointCloud


def small_bv_image(seed=0):
    rng = np.random.default_rng(seed)
    image = np.zeros((16, 16))
    occupied = rng.random((16, 16)) < 0.2
    image[occupied] = rng.uniform(0.5, 5.0, occupied.sum())
    return BVImage(image, cell_size=0.4, lidar_range=3.2)


def some_boxes(seed=0):
    rng = np.random.default_rng(seed)
    return [Box2D(*rng.uniform(-30, 30, 2), 4.5, 1.9,
                  rng.uniform(-3, 3)) for _ in range(5)]


def small_keypoints(seed=0, n=6):
    rng = np.random.default_rng(seed)
    desc = rng.random((n, 2 * 2 * 3))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    return KeypointPayload(
        xy=rng.integers(0, 16, (n, 2)).astype(np.int64),
        scores=rng.random(n), descriptors=desc, image_size=16,
        cell_size=0.4, lidar_range=3.2, grid_size=2, num_orientations=3)


def tier_message(tier: Tier) -> bytes:
    """A small valid encoded message of the requested tier."""
    boxes = some_boxes()
    if tier is Tier.FULL_SCAN:
        rng = np.random.default_rng(2)
        message = TieredMessage(tier, boxes,
                                cloud=PointCloud(rng.uniform(
                                    -10, 10, (40, 3))))
    elif tier is Tier.BV_IMAGE:
        message = TieredMessage(tier, boxes, bv_image=small_bv_image())
    elif tier is Tier.KEYPOINTS:
        message = TieredMessage(tier, boxes, keypoints=small_keypoints())
    else:
        message = TieredMessage(tier, boxes)
    return encode_message(message, record=False)


def service_request(kind: str) -> bytes:
    """A small valid encoded service request of the requested kind."""
    if kind == "shm-pair":
        return ServiceRequest(
            request_id=7, deadline_ms=250,
            shm=ShmPairRef(name="psm_fuzz", ego_len=64,
                           other_len=96)).encode()
    scans = TieredMessage(Tier.BOXES_ONLY, some_boxes())
    return ServiceRequest(request_id=8, ego=scans, other=scans).encode()


def service_response() -> bytes:
    """A small valid encoded service response."""
    return ServiceResponse(
        request_id=7, status="ok", success=True, failure_reason=None,
        degradation="full", inliers_bv=12, inliers_box=5,
        tx=0.5, ty=-0.25, theta=0.01).encode()


class TestRoundTrip:
    @pytest.mark.parametrize("compress", [False, True])
    def test_bv_round_trip(self, compress):
        bv = small_bv_image()
        decoded = decode_bv_image(encode_bv_image(bv, compress=compress))
        assert decoded.size == bv.size
        assert decoded.cell_size == bv.cell_size
        assert decoded.lidar_range == bv.lidar_range
        # Lossy only by 8-bit quantization.
        assert np.max(np.abs(decoded.image - bv.image)) \
            < bv.image.max() / 255.0 + 1e-9

    def test_boxes_round_trip(self):
        boxes = some_boxes()
        decoded = decode_boxes(encode_boxes(boxes))
        assert len(decoded) == len(boxes)
        for a, b in zip(decoded, boxes):  # float32 wire precision
            assert abs(a.center_x - b.center_x) < 1e-5
            assert abs(a.center_y - b.center_y) < 1e-5
            assert abs(a.yaw - b.yaw) < 1e-6

    def test_message_round_trip(self):
        message = V2VMessage(small_bv_image(), some_boxes())
        decoded = V2VMessage.from_bytes(message.to_bytes())
        assert len(decoded.boxes) == len(message.boxes)
        assert decoded.bv_image.size == message.bv_image.size


class TestEveryTruncationPoint:
    """Cutting a valid message at *any* byte must raise CodecError.

    This sweeps every prefix — header boundaries, the CRC field, RLE
    run tokens, mid-payload — so no truncation length has a crash or
    silent-garbage path.
    """

    def test_bv_image_all_prefixes(self):
        data = encode_bv_image(small_bv_image())
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_bv_image(data[:cut])

    def test_bv_image_compressed_all_prefixes(self):
        data = encode_bv_image(small_bv_image(), compress=True)
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_bv_image(data[:cut])

    def test_boxes_all_prefixes(self):
        data = encode_boxes(some_boxes())
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_boxes(data[:cut])

    def test_v2v_message_all_prefixes(self):
        data = V2VMessage(small_bv_image(), some_boxes()).to_bytes()
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                V2VMessage.from_bytes(data[:cut])

    @pytest.mark.parametrize("tier", list(Tier))
    def test_tiered_message_all_prefixes(self, tier):
        """Every tier magic gets the same total-decoder guarantee."""
        data = tier_message(tier)
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_message(data[:cut])

    @pytest.mark.parametrize("kind", ["scan-pair", "shm-pair"])
    def test_service_request_all_prefixes(self, kind):
        """The service's SQ01 envelope is total like every other codec
        — a truncated request must never crash a service worker."""
        data = service_request(kind)
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_request(data[:cut])

    def test_service_response_all_prefixes(self):
        data = service_response()
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_response(data[:cut])


class TestByteFlips:
    """Any single-byte XOR damage must be detected.

    Header bytes are covered by the CRC (it runs over header + payload),
    magic damage is a magic check, and payload damage is a CRC failure —
    there is no byte whose flip decodes silently.
    """

    @given(st.integers(0, 10 ** 9), st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    def test_bv_image_single_flip_detected(self, position_seed, flip):
        data = bytearray(encode_bv_image(small_bv_image()))
        data[position_seed % len(data)] ^= flip
        with pytest.raises(CodecError):
            decode_bv_image(bytes(data))

    @given(st.integers(0, 10 ** 9), st.integers(1, 255))
    @settings(max_examples=60, deadline=None)
    def test_v2v_message_single_flip_detected(self, position_seed, flip):
        data = bytearray(V2VMessage(small_bv_image(),
                                    some_boxes()).to_bytes())
        data[position_seed % len(data)] ^= flip
        with pytest.raises(CodecError):
            V2VMessage.from_bytes(bytes(data))

    @pytest.mark.parametrize("tier", list(Tier))
    @given(position_seed=st.integers(0, 10 ** 9),
           flip=st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_tiered_single_flip_detected(self, tier, position_seed, flip):
        data = bytearray(tier_message(tier))
        data[position_seed % len(data)] ^= flip
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    @pytest.mark.parametrize("kind", ["scan-pair", "shm-pair"])
    @given(position_seed=st.integers(0, 10 ** 9),
           flip=st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_service_request_single_flip_detected(self, kind,
                                                  position_seed, flip):
        data = bytearray(service_request(kind))
        data[position_seed % len(data)] ^= flip
        with pytest.raises(CodecError):
            decode_request(bytes(data))

    @given(position_seed=st.integers(0, 10 ** 9),
           flip=st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_service_response_single_flip_detected(self, position_seed,
                                                   flip):
        data = bytearray(service_response())
        data[position_seed % len(data)] ^= flip
        with pytest.raises(CodecError):
            decode_response(bytes(data))

    @given(st.binary(max_size=2048))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_garbage_never_crashes(self, garbage):
        """Random buffers raise CodecError from every decoder."""
        with pytest.raises(CodecError):
            decode_bv_image(garbage)
        with pytest.raises(CodecError):
            decode_boxes(garbage)
        with pytest.raises(CodecError):
            V2VMessage.from_bytes(garbage)
        with pytest.raises(CodecError):
            decode_message(garbage)
        with pytest.raises(CodecError):
            decode_request(garbage)
        with pytest.raises(CodecError):
            decode_response(garbage)

    @given(st.binary(max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_garbage_behind_valid_tier_magic(self, garbage):
        """A correct magic with arbitrary bytes after it still fails
        cleanly — the magic is a claim, the CRC is the verdict."""
        for magic in (b"TF01", b"TB01", b"TK01", b"TX01"):
            with pytest.raises(CodecError):
                decode_message(magic + garbage)

    @given(st.binary(max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_garbage_behind_valid_service_magic(self, garbage):
        with pytest.raises(CodecError):
            decode_request(b"SQ01" + garbage)
        with pytest.raises(CodecError):
            decode_response(b"SP01" + garbage)

    def test_codec_error_is_value_error(self):
        """Pre-hardening callers caught ValueError; that must keep
        working."""
        assert issubclass(CodecError, ValueError)
