"""Codec hardening: property/fuzz tests for the wire format.

The contract under test is absolute: for *any* byte buffer, the
decoders either return a faithfully reconstructed value or raise
:class:`~repro.comms.CodecError` — never a crash, never silent garbage.
Exhaustive truncation (every prefix of a real message) plus seeded
byte-flip fuzzing pin it down.
"""

import tracemalloc
import zlib

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
    decode_message,
    encode_message,
)
from repro.comms.codec import (
    _BV_HEAD,
    MAX_BV_SIZE,
    _frame,
    decode_boxes,
    decode_bv_image,
    encode_boxes,
    encode_bv_image,
)
from repro.comms.envelope import (
    ServiceRequest,
    ServiceResponse,
    decode_request,
    decode_response,
)
from repro.comms.tiers import (
    _BOX64_HEAD,
    _KP_HEAD,
    _SCAN_HEAD,
    _TIER_HEAD,
    MAX_INFLATION,
    KeypointPayload,
)
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


def service_request() -> bytes:
    """A small valid encoded scan-pair service request."""
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
        message = TieredMessage(Tier.BV_IMAGE, some_boxes(),
                                bv_image=small_bv_image())
        decoded = decode_message(encode_message(message, record=False))
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

    @pytest.mark.parametrize("tier", list(Tier))
    def test_tiered_message_all_prefixes(self, tier):
        """Every tier magic gets the same total-decoder guarantee."""
        data = tier_message(tier)
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_message(data[:cut])

    @pytest.mark.parametrize("kind", ["scan-pair"])
    def test_service_request_all_prefixes(self, kind):
        """The service's SQ01 envelope is total like every other codec
        — a truncated request must never crash a service worker."""
        data = service_request()
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

    @pytest.mark.parametrize("tier", list(Tier))
    @given(position_seed=st.integers(0, 10 ** 9),
           flip=st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_tiered_single_flip_detected(self, tier, position_seed, flip):
        data = bytearray(tier_message(tier))
        data[position_seed % len(data)] ^= flip
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    @pytest.mark.parametrize("kind", ["scan-pair"])
    @given(position_seed=st.integers(0, 10 ** 9),
           flip=st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_service_request_single_flip_detected(self, kind,
                                                  position_seed, flip):
        data = bytearray(service_request())
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


#: 8 MiB of zeros deflated to ~8 KiB: far more than any test header
#: below allows.
ZLIB_BOMB = zlib.compress(bytes(8 << 20), 9)


def peak_while_refused(decode, data: bytes, match: str) -> int:
    """Peak traced allocation (bytes) while ``decode`` refuses ``data``."""
    tracemalloc.start()
    try:
        with pytest.raises(CodecError, match=match):
            decode(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tier_frame(magic: bytes, sense: bytes, boxes: bytes) -> bytes:
    return _frame(_TIER_HEAD.pack(magic, len(sense), len(boxes)),
                  sense + boxes)


class TestDecoderBounds:
    """CRC-valid headers cannot make a decoder allocate beyond what
    they legitimately describe: each case raises CodecError before any
    large allocation (traced peak under 1 MiB)."""

    def test_oversized_bv_image_refused(self):
        """A 65535-cell edge (a 32 GiB float64 image) with a 3-byte
        payload: refused by the size limit, not a MemoryError."""
        data = _frame(_BV_HEAD.pack(b"BV02", 0xFFFF, 0.4, 51.2, 1.0),
                      b"\x00\xff\xff")
        assert peak_while_refused(decode_bv_image, data,
                                  "decoder limit") < 1 << 20

    def test_uncovering_payload_refused_before_allocation(self):
        """An edge within the limit (a 32 MiB image) that the payload
        cannot cover is refused before the image exists."""
        data = _frame(_BV_HEAD.pack(b"BV02", MAX_BV_SIZE, 0.4, 51.2, 1.0),
                      b"\x00\xff\xff")
        assert peak_while_refused(decode_bv_image, data,
                                  "covers 65535 of") < 1 << 20

    def test_compressed_bv_payload_inflation_bounded(self):
        data = _frame(_BV_HEAD.pack(b"BVZ2", 16, 0.4, 3.2, 1.0), ZLIB_BOMB)
        assert peak_while_refused(decode_bv_image, data,
                                  "inflates past the 768 bytes") < 1 << 20

    def test_full_scan_inflation_bounded(self):
        data = tier_frame(b"TF01", _SCAN_HEAD.pack(1) + ZLIB_BOMB,
                          _BOX64_HEAD.pack(0))
        assert peak_while_refused(decode_message, data,
                                  "inflates past the 24 bytes") < 1 << 20

    def test_oversized_keypoint_image_refused(self):
        """A keypoint header's image size obeys the BV image's limit."""
        header = _KP_HEAD.pack(MAX_BV_SIZE + 1, 0.4, 3.2, 0, 1, 1, 8, 0,
                               1.0)
        data = tier_frame(b"TK01", header + zlib.compress(b""),
                          encode_boxes([]))
        with pytest.raises(CodecError, match="decoder limit"):
            decode_message(data)

    def test_keypoint_inflation_bounded(self):
        # One keypoint, a 1x1 grid of one 8-bit orientation: 7 bytes.
        header = _KP_HEAD.pack(16, 0.4, 3.2, 1, 1, 1, 8, 0, 1.0)
        data = tier_frame(b"TK01", header + ZLIB_BOMB, encode_boxes([]))
        assert peak_while_refused(decode_message, data,
                                  "inflates past the 7 bytes") < 1 << 20


class TestSenseBlockInflationBound:
    """A tier header's own counts cannot license a zlib bomb: a sense
    block claiming more than MAX_INFLATION times its stream is refused
    before inflating, so the traced peak stays a small multiple of the
    frame (about 3x here; it was ~2,900x when only the header bounded
    the inflate)."""

    @staticmethod
    def assert_refused_small(data: bytes) -> None:
        assert peak_while_refused(
            decode_message, data,
            f"more than {MAX_INFLATION}x") < 4 * len(data)

    def test_full_scan_count_beyond_frame(self):
        data = tier_frame(b"TF01", _SCAN_HEAD.pack(0xFFFFFFFF) + ZLIB_BOMB,
                          _BOX64_HEAD.pack(0))
        self.assert_refused_small(data)

    def test_full_scan_consistent_bomb(self):
        """Header and stream agree (349,525 zero points in ~8 KB), so
        only the ratio bound refuses it."""
        count = (8 << 20) // 24
        data = tier_frame(
            b"TF01", _SCAN_HEAD.pack(count)
            + zlib.compress(bytes(count * 24), 9), _BOX64_HEAD.pack(0))
        self.assert_refused_small(data)

    def test_keypoints_count_beyond_frame(self):
        header = _KP_HEAD.pack(16, 0.4, 3.2, 0xFFFF, 16, 16, 8, 0, 1.0)
        data = tier_frame(b"TK01", header + ZLIB_BOMB, encode_boxes([]))
        self.assert_refused_small(data)
