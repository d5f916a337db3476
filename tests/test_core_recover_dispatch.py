"""The unified ``BBAlign.recover`` entry point: dispatch and tiers.

One method, three input shapes (clouds/features, wire payloads, decoded
messages) — these tests pin the dispatch rules and the tier-aware
fallback ladder.
"""

import tracemalloc

import numpy as np
import pytest

from repro.comms import (
    KeypointPayload,
    Tier,
    TieredMessage,
    V2VMessage,
    build_message,
    encode_message,
)
from repro.comms.channel import Delivery
from repro.comms.codec import MAX_BV_SIZE
from repro.core import DegradationLevel, FailureReason
from repro.core.pipeline import BBAlign
from repro.detection.simulated import SimulatedDetector
from repro.geometry.se2 import SE2


@pytest.fixture(scope="module")
def pair_boxes(frame_pair):
    detector = SimulatedDetector()
    ego = [d.box for d in detector.detect(frame_pair.ego_visible, rng=0)]
    other = [d.box for d in detector.detect(frame_pair.other_visible,
                                            rng=1)]
    return ego, other


@pytest.fixture()
def aligner():
    return BBAlign()


class TestDispatch:
    def test_cloud_and_feature_inputs_agree(self, aligner, frame_pair,
                                            pair_features, pair_boxes):
        ego_boxes, other_boxes = pair_boxes
        from_clouds = aligner.recover(frame_pair.ego_cloud,
                                      frame_pair.other_cloud,
                                      ego_boxes, other_boxes, rng=0)
        from_features = BBAlign().recover(*pair_features, ego_boxes,
                                          other_boxes, rng=0)
        assert from_clouds.success == from_features.success
        assert from_clouds.transform.theta == from_features.transform.theta
        assert from_clouds.transform.tx == from_features.transform.tx

    def test_mixed_cloud_and_features(self, aligner, frame_pair,
                                      pair_features, pair_boxes):
        ego_boxes, other_boxes = pair_boxes
        result = aligner.recover(pair_features[0], frame_pair.other_cloud,
                                 ego_boxes, other_boxes, rng=0)
        assert result.diagnostics.ego_keypoints > 0

    def test_rejects_junk_ego(self, aligner):
        with pytest.raises(TypeError, match="ego"):
            aligner.recover(42, b"payload", [])

    def test_rejects_junk_other(self, aligner, pair_features):
        with pytest.raises(TypeError, match="other"):
            aligner.recover(pair_features[0], 3.14, [])

    def test_rejects_boxes_alongside_payload(self, aligner, pair_features,
                                             pair_boxes):
        ego_boxes, other_boxes = pair_boxes
        payload = encode_message(
            TieredMessage(Tier.BOXES_ONLY, other_boxes), record=False)
        with pytest.raises(TypeError, match="inside the message"):
            aligner.recover(pair_features[0], payload, ego_boxes,
                            other_boxes)


class TestPayloadLadder:
    def test_none_payload_is_dropped(self, aligner, pair_features,
                                     pair_boxes):
        result = aligner.recover(pair_features[0], None, pair_boxes[0])
        assert not result.success
        assert result.failure_reason is FailureReason.MESSAGE_DROPPED

    def test_dropped_delivery(self, aligner, pair_features, pair_boxes):
        delivery = Delivery(payload=None, dropped=True)
        result = aligner.recover(pair_features[0], delivery, pair_boxes[0])
        assert result.failure_reason is FailureReason.MESSAGE_DROPPED

    def test_stale_delivery(self, aligner, pair_features, pair_boxes):
        delivery = Delivery(payload=b"anything", delay_frames=2)
        result = aligner.recover(pair_features[0], delivery, pair_boxes[0])
        assert result.failure_reason is FailureReason.MESSAGE_STALE

    def test_garbage_bytes_undecodable(self, aligner, pair_features,
                                       pair_boxes):
        result = aligner.recover(pair_features[0], b"\x00" * 64,
                                 pair_boxes[0])
        assert not result.success
        assert result.failure_reason is FailureReason.MESSAGE_UNDECODABLE
        assert result.message_bytes == 64


class TestTierPaths:
    def _payload(self, tier, frame_pair, pair_features, pair_boxes,
                 config):
        _, other_features = pair_features
        _, other_boxes = pair_boxes
        message = build_message(
            tier, other_boxes,
            cloud=frame_pair.other_cloud if tier is Tier.FULL_SCAN
            else None,
            features=other_features if tier in (Tier.BV_IMAGE,
                                                Tier.KEYPOINTS) else None,
            config=config)
        return encode_message(message, config, record=False)

    @pytest.mark.parametrize("tier", [Tier.FULL_SCAN, Tier.BV_IMAGE,
                                      Tier.KEYPOINTS])
    def test_tier_labels_and_bytes(self, aligner, frame_pair,
                                   pair_features, pair_boxes, tier):
        payload = self._payload(tier, frame_pair, pair_features,
                                pair_boxes, aligner.config.comms)
        result = aligner.recover(pair_features[0], payload, pair_boxes[0],
                                 rng=0)
        assert result.diagnostics.tier == tier.value
        assert result.message_bytes == len(payload)

    def test_full_scan_matches_direct_recovery(self, frame_pair,
                                               pair_features, pair_boxes):
        """The lossless tier reproduces a local feature run exactly."""
        payload = self._payload(Tier.FULL_SCAN, frame_pair, pair_features,
                                pair_boxes, None)
        via_wire = BBAlign().recover(pair_features[0], payload,
                                     pair_boxes[0], rng=0)
        direct = BBAlign().recover(pair_features[0],
                                   frame_pair.other_cloud, pair_boxes[0],
                                   pair_boxes[1], rng=0)
        assert via_wire.success == direct.success
        assert via_wire.transform.theta == direct.transform.theta
        assert via_wire.transform.tx == direct.transform.tx
        assert via_wire.transform.ty == direct.transform.ty

    def test_boxes_only_skips_bv_matching(self, aligner, pair_features,
                                          pair_boxes):
        payload = self._payload(Tier.BOXES_ONLY, None, pair_features,
                                pair_boxes, None)
        result = aligner.recover(pair_features[0], payload, pair_boxes[0],
                                 rng=0)
        # No stage-1 evidence either way: the result is labeled
        # boxes-only and stage 1 is the empty placeholder.
        assert result.diagnostics.tier == Tier.BOXES_ONLY.value
        assert result.stage1.num_matches == 0
        if result.success:
            assert result.degradation is DegradationLevel.BOXES_ONLY
        else:
            assert result.failure_reason in (
                FailureReason.BOXES_ONLY_NO_CONSENSUS,
                FailureReason.STAGE2_ERROR)

    def test_boxes_only_uses_last_good_prior(self, frame_pair,
                                             pair_features, pair_boxes):
        """After a successful full recovery, a boxes-only message aligns
        around the remembered pose instead of identity."""
        aligner = BBAlign()
        ego_boxes, other_boxes = pair_boxes
        warm = aligner.recover(*pair_features, ego_boxes, other_boxes,
                               rng=0)
        payload = encode_message(
            TieredMessage(Tier.BOXES_ONLY, other_boxes), record=False)
        result = aligner.recover(pair_features[0], payload, ego_boxes,
                                 rng=0)
        if warm.success and result.success:
            assert result.transform.translation_distance(
                warm.transform) < 4.0

    def test_decoded_message_accepted(self, aligner, pair_features,
                                      pair_boxes):
        message = TieredMessage(Tier.BOXES_ONLY, pair_boxes[1])
        result = aligner.recover(pair_features[0], message, pair_boxes[0],
                                 rng=0)
        assert result.diagnostics.tier == Tier.BOXES_ONLY.value
        assert result.message_bytes == message.size_bytes

    def test_legacy_v2v_frame_still_decodes(self, aligner, pair_features,
                                            pair_boxes):
        _, other_features = pair_features
        bev_boxes = [b.to_bev() if hasattr(b, "to_bev") else b
                     for b in pair_boxes[1]]
        frame = V2VMessage(other_features.bv_image, bev_boxes).to_bytes()
        assert frame[:4] == b"V2V1"
        result = aligner.recover(pair_features[0], frame, pair_boxes[0],
                                 rng=0)
        # Legacy frames keep the historical dense estimate, not the
        # actual wire size.
        assert result.diagnostics.tier is None
        assert result.message_bytes != len(frame)


class TestKeypointTier:
    def test_claimed_image_size_allocates_nothing(self, pair_features):
        """The keypoint header's image size is the sender's word: a
        73-byte message claiming the largest image a decoder accepts
        recovers without allocating that image (this was 134 MB at a
        claimed 4096 px)."""
        payload = encode_message(TieredMessage(
            Tier.KEYPOINTS, [], keypoints=KeypointPayload(
                xy=np.array([[1, 2], [3, 4]]), scores=np.ones(2),
                descriptors=np.full((2, 27), 0.2), image_size=MAX_BV_SIZE,
                cell_size=0.8, lidar_range=76.8, grid_size=3,
                num_orientations=3)), record=False)
        tracemalloc.start()
        try:
            result = BBAlign().recover(pair_features[0], payload, [],
                                       rng=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.diagnostics.tier == Tier.KEYPOINTS.value
        assert peak < 1 << 20

    def test_keypoints_carry_enough_to_match(self, frame_pair,
                                             pair_features, pair_boxes):
        """On an easy pair the 1.5 KB keypoint message still recovers a
        pose close to the full-fidelity answer when it succeeds."""
        config = BBAlign().config.comms
        _, other_features = pair_features
        message = build_message(Tier.KEYPOINTS, pair_boxes[1],
                                features=other_features, config=config)
        payload = encode_message(message, config, record=False)
        assert len(payload) < 4096
        result = BBAlign().recover(pair_features[0], payload,
                                   pair_boxes[0], rng=0)
        assert result.diagnostics.tier == Tier.KEYPOINTS.value
        if result.success:
            reference = BBAlign().recover(*pair_features, pair_boxes[0],
                                          pair_boxes[1], rng=0)
            if reference.success:
                assert result.transform.translation_distance(
                    reference.transform) < 5.0
