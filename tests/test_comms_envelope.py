"""Service envelope (SQ01/SP01) round trips and validation."""

import struct

import numpy as np
import pytest

from repro.boxes.box import Box2D
from repro.comms import (
    CodecError,
    ServiceRequest,
    ServiceResponse,
    Tier,
    TieredMessage,
    decode_message,
    decode_request,
    decode_response,
)
from repro.comms.codec import _frame
from repro.comms.envelope import _REQ_HEAD, REQUEST_MAGIC


def some_boxes(seed=0):
    rng = np.random.default_rng(seed)
    return [Box2D(*rng.uniform(-30, 30, 2), 4.5, 1.9,
                  rng.uniform(-3, 3)) for _ in range(4)]


class TestRequestRoundTrip:
    def test_scan_pair(self):
        scans = TieredMessage(Tier.BOXES_ONLY, some_boxes())
        request = ServiceRequest(request_id=5, ego=scans, other=scans)
        decoded = decode_request(request.encode())
        assert decoded.request_id == 5
        assert decoded.ego.tier is Tier.BOXES_ONLY
        assert len(decoded.ego.boxes) == len(scans.boxes)
        # Boxes travel at float32 wire precision through the tier codec.
        for a, b in zip(decoded.other.boxes, scans.boxes):
            assert abs(a.center_x - b.center_x) < 1e-4
            assert abs(a.yaw - b.yaw) < 1e-6

    def test_request_id_and_deadline_survive(self):
        scans = TieredMessage(Tier.BOXES_ONLY, [])
        request = ServiceRequest(request_id=0xFFFFFFFF, ego=scans,
                                 other=scans, deadline_ms=0xFFFFFFFF)
        decoded = decode_request(request.encode())
        assert decoded.request_id == 0xFFFFFFFF
        assert decoded.deadline_ms == 0xFFFFFFFF

    def test_exactly_one_body_enforced(self):
        """The scan pair is the one request body: both messages are
        required fields."""
        scans = TieredMessage(Tier.BOXES_ONLY, [])
        with pytest.raises(TypeError):
            ServiceRequest(request_id=1)
        with pytest.raises(TypeError):
            ServiceRequest(request_id=1, ego=scans)

    def test_unknown_kind_rejected(self):
        header = _REQ_HEAD.pack(REQUEST_MAGIC, 1, 9, 0, 0)
        with pytest.raises(CodecError, match="unknown request kind"):
            decode_request(_frame(header, b"\x00\x00\x00\x00"))

    def test_oversized_index_block_rejected(self):
        """Kinds 0 (a dataset index) and 2 (a shared-memory pair
        descriptor) are retired: a frame carrying either's block decodes
        like any kind the envelope never had."""
        name = b"psm_abc123"
        for kind, block in ((0, b"\x00" * 4), (0, b"\x00" * 8),
                            (2, struct.pack("<IIB", 1024, 2048, len(name))
                             + name)):
            header = _REQ_HEAD.pack(REQUEST_MAGIC, 1, kind, 0, 0)
            with pytest.raises(CodecError, match="unknown request kind"):
                decode_request(_frame(header, block))

    def test_scan_pair_length_mismatch_rejected(self):
        """A scan-pair block whose promised lengths disagree with the
        payload is rejected before the embedded decoders run."""
        scans = TieredMessage(Tier.BOXES_ONLY, some_boxes())
        request = ServiceRequest(request_id=5, ego=scans, other=scans)
        data = bytearray(request.encode())
        # Grow the claimed ego length; re-frame so the CRC is valid and
        # the *structural* check has to catch it.
        head_len = _REQ_HEAD.size
        payload = bytes(data[head_len + 4:])
        bad = bytearray(payload)
        bad[0] ^= 0x01
        with pytest.raises(CodecError):
            decode_request(_frame(bytes(data[:head_len]), bytes(bad)))


class TestResponseRoundTrip:
    @pytest.mark.parametrize("status,degradation,reason", [
        ("ok", "full", None),
        ("ok", "boxes-only", "stage1-low-inliers"),
        ("deadline", None, "deadline-exceeded"),
        ("exhausted", None, "worker-crash"),
        ("shed", None, "service-shutdown"),
    ])
    def test_round_trip(self, status, degradation, reason):
        response = ServiceResponse(
            request_id=12, status=status, success=status == "ok",
            failure_reason=reason, degradation=degradation,
            inliers_bv=7, inliers_box=3, tx=1.25, ty=-0.5, theta=0.125)
        assert decode_response(response.encode()) == response

    def test_pose_is_exact(self):
        """Poses cross the wire as float64 — byte-exact, which the
        service's sweep-parity guarantee depends on."""
        tx, ty, theta = 0.1 + 0.2, -1.0 / 3.0, np.pi / 7
        response = ServiceResponse(
            request_id=1, status="ok", success=True, failure_reason=None,
            degradation="full", inliers_bv=1, inliers_box=1,
            tx=tx, ty=ty, theta=theta)
        decoded = decode_response(response.encode())
        assert decoded.tx == tx and decoded.ty == ty \
            and decoded.theta == theta

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            ServiceResponse(request_id=1, status="maybe", success=False,
                            failure_reason=None, degradation=None,
                            inliers_bv=0, inliers_box=0,
                            tx=0.0, ty=0.0, theta=0.0)

    def test_unknown_degradation_rejected(self):
        with pytest.raises(ValueError):
            ServiceResponse(request_id=1, status="ok", success=True,
                            failure_reason=None, degradation="psychic",
                            inliers_bv=0, inliers_box=0,
                            tx=0.0, ty=0.0, theta=0.0)

    def test_non_finite_pose_rejected_on_decode(self):
        response = ServiceResponse(
            request_id=1, status="ok", success=True, failure_reason=None,
            degradation="full", inliers_bv=0, inliers_box=0,
            tx=float("nan"), ty=0.0, theta=0.0)
        with pytest.raises(CodecError, match="non-finite"):
            decode_response(response.encode())


class TestSniff:
    def test_service_magics_invisible_to_tier_sniffer(self):
        """The two namespaces stay disjoint: a service frame is not a
        tier, and a tier frame is not a service envelope."""
        scans = TieredMessage(Tier.BOXES_ONLY, [])
        request = ServiceRequest(request_id=1, ego=scans,
                                 other=scans).encode()
        with pytest.raises(CodecError, match="unknown message tier"):
            decode_message(request)
        with pytest.raises(CodecError):
            decode_response(request)
