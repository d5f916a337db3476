"""Failure-injection and degenerate-input robustness tests.

A plug-and-play module gets fed garbage in the field; every entry point
must degrade gracefully (flagged failure, empty result) rather than
crash or return a confident wrong answer.
"""

import numpy as np
import pytest

from repro.boxes.box import Box2D, Box3D
from repro.core import DegradationLevel, FailureReason
from repro.core.config import BBAlignConfig
from repro.core.pipeline import BBAlign
from repro.core.bv_matching import BVMatcher
from repro.geometry.se2 import SE2
from repro.pointcloud.cloud import PointCloud


@pytest.fixture(scope="module")
def aligner():
    return BBAlign()


def ground_only_cloud(n=5000, seed=0):
    """A scan with nothing but ground returns (featureless open area)."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-60, 60, (n, 2))
    return PointCloud(np.column_stack([xy, np.zeros(n)]))


class TestDegenerateClouds:
    def test_empty_both(self, aligner):
        result = aligner.recover(PointCloud.empty(), PointCloud.empty(),
                                 [], [], rng=0)
        assert not result.success
        assert result.transform.is_close(SE2.identity())

    def test_empty_one_side(self, aligner, frame_pair):
        result = aligner.recover(frame_pair.ego_cloud, PointCloud.empty(),
                                 [], [], rng=0)
        assert not result.success

    def test_ground_only_scene_flagged_failure(self, aligner):
        """The paper's failure mode: vast open areas without landmarks."""
        result = aligner.recover(ground_only_cloud(seed=1),
                                 ground_only_cloud(seed=2), [], [], rng=0)
        assert not result.success

    def test_single_point_clouds(self, aligner):
        one = PointCloud(np.array([[1.0, 2.0, 3.0]]))
        result = aligner.recover(one, one, [], [], rng=0)
        assert not result.success

    def test_identical_clouds_match_at_identity(self, aligner, frame_pair):
        result = aligner.recover(frame_pair.ego_cloud,
                                 frame_pair.ego_cloud, [], [], rng=0)
        assert result.stage1.success
        assert result.stage1.transform.translation_distance(
            SE2.identity()) < 0.5

    def test_all_points_out_of_range(self, aligner):
        far = PointCloud(np.full((100, 3), 1e6))
        result = aligner.recover(far, far, [], [], rng=0)
        assert not result.success


class TestDegenerateBoxes:
    def test_hundreds_of_false_boxes(self, aligner, frame_pair):
        """A malfunctioning detector flooding boxes must not produce a
        confidently wrong pose."""
        rng = np.random.default_rng(3)
        junk = [Box3D(*rng.uniform(-50, 50, 2), 0.8, 4.5, 1.9, 1.6,
                      rng.uniform(-3, 3)) for _ in range(150)]
        result = aligner.recover(frame_pair.ego_cloud,
                                 frame_pair.other_cloud, junk, junk, rng=0)
        # Stage 1 is unaffected; the combined answer must stay within the
        # stage-2 correction guard of the stage-1 estimate.
        drift = result.transform.translation_distance(
            result.stage1.transform)
        assert drift <= BBAlignConfig().box_align.max_correction_meters

    def test_degenerate_thin_boxes(self, aligner, frame_pair):
        thin = [Box2D(5.0, 5.0, 0.2, 0.1, 0.0)]
        result = aligner.recover(frame_pair.ego_cloud,
                                 frame_pair.other_cloud, thin, thin, rng=0)
        assert result.stage1.success  # stage 1 untouched

    def test_mixed_box_types(self, aligner, frame_pair):
        boxes = [Box2D(1, 1, 4.0, 2.0, 0.0),
                 Box3D(5, 5, 0.8, 4.0, 2.0, 1.6, 0.0)]
        result = aligner.recover(frame_pair.ego_cloud,
                                 frame_pair.other_cloud, boxes, [], rng=0)
        assert result is not None


class TestExtremeGeometry:
    @pytest.mark.parametrize("yaw_deg", [-180.0, -90.0, 90.0, 179.9])
    def test_extreme_relative_yaw_handled(self, yaw_deg):
        """Synthetic pure-rotation pairs across the full yaw range."""
        rng = np.random.default_rng(5)
        parts = []
        for _ in range(12):
            x0, y0 = rng.uniform(-40, 40, 2)
            ang = rng.uniform(0, np.pi)
            t = np.linspace(0, rng.uniform(10, 25), 100)
            for f in (0.4, 0.7, 1.0):
                parts.append(np.stack([x0 + np.cos(ang) * t,
                                       y0 + np.sin(ang) * t,
                                       np.full_like(t, 8 * f)], 1))
        world = np.vstack(parts)
        gt = SE2(np.deg2rad(yaw_deg), 4.0, -2.0)
        ego = PointCloud(world)
        xy = gt.inverse().apply(world[:, :2])
        other = PointCloud(np.column_stack([xy, world[:, 2]]))
        matcher = BVMatcher(BBAlignConfig())
        result = matcher.match_clouds(other, ego, rng=0)
        assert result.success
        assert np.degrees(result.transform.rotation_distance(gt)) < 3.0

    def test_nan_points_rejected_or_ignored(self, aligner):
        bad = np.zeros((10, 3))
        bad[0] = np.nan
        # NaNs must not crash the pipeline (they fall outside every BV
        # cell and every box test).
        result = aligner.recover(PointCloud(bad), PointCloud(bad), [], [],
                                 rng=0)
        assert not result.success


@pytest.fixture(scope="module")
def wire_setup():
    """A frame pair, its ego boxes, and the other car's encoded message."""
    from repro.comms.tiers import Tier, build_message, encode_message
    from repro.detection.simulated import SimulatedDetector
    from repro.simulation.scenario import ScenarioConfig, make_frame_pair

    # rng=6 gives a pair that clears the paper's success thresholds
    # through the full wire path (quantized image, decoded boxes).
    pair = make_frame_pair(ScenarioConfig(distance=20.0), rng=6)
    detector = SimulatedDetector()
    ego_dets = detector.detect(pair.ego_visible, np.random.default_rng(1))
    other_dets = detector.detect(pair.other_visible,
                                 np.random.default_rng(2))
    sender = BBAlign()
    other_features = sender.extract_features(pair.other_cloud)
    payload = encode_message(build_message(
        Tier.BV_IMAGE, [d.box.to_bev() for d in other_dets],
        features=other_features), record=False)
    return pair, [d.box for d in ego_dets], payload


class TestDegradationLadder:
    """Every rung of the receiver-side recover() returns a flagged
    result — drop, staleness, undecodable bytes, stage errors — and the
    temporal rung actually reuses the last good pose."""

    def test_drop_without_history_is_flagged_identity(self, wire_setup):
        pair, ego_boxes, _ = wire_setup
        result = BBAlign().recover(pair.ego_cloud, None, ego_boxes, rng=0)
        assert not result.success
        assert result.failure_reason is FailureReason.MESSAGE_DROPPED
        assert result.degradation is DegradationLevel.IDENTITY
        assert result.transform.is_close(SE2.identity())
        assert result.degraded

    def test_clean_message_recovers(self, wire_setup):
        pair, ego_boxes, payload = wire_setup
        result = BBAlign().recover(pair.ego_cloud, payload, ego_boxes,
                                   rng=0)
        assert result.success
        assert result.failure_reason is None
        assert result.degradation is DegradationLevel.FULL
        assert result.translation_error(pair.gt_relative) < 1.5

    def test_drop_after_success_reuses_last_good_pose(self, wire_setup):
        pair, ego_boxes, payload = wire_setup
        aligner = BBAlign()
        good = aligner.recover(pair.ego_cloud, payload, ego_boxes, rng=0)
        assert good.success
        dropped = aligner.recover(pair.ego_cloud, None, ego_boxes, rng=0)
        assert not dropped.success
        assert dropped.degradation is DegradationLevel.TEMPORAL
        assert dropped.failure_reason is FailureReason.MESSAGE_DROPPED
        assert dropped.transform.is_close(good.transform)
        # Clearing the memory drops back to the identity rung.
        aligner.reset_temporal()
        cleared = aligner.recover(pair.ego_cloud, None, ego_boxes, rng=0)
        assert cleared.degradation is DegradationLevel.IDENTITY

    def test_stale_message_not_used(self, wire_setup):
        pair, ego_boxes, payload = wire_setup
        result = BBAlign().recover(pair.ego_cloud, payload, ego_boxes,
                                   rng=0, stale=True)
        assert not result.success
        assert result.failure_reason is FailureReason.MESSAGE_STALE
        assert result.message_bytes == len(payload)

    def test_garbage_bytes_flagged_undecodable(self, wire_setup):
        pair, ego_boxes, _ = wire_setup
        result = BBAlign().recover(
            pair.ego_cloud, b"not a v2v message at all", ego_boxes, rng=0)
        assert not result.success
        assert result.failure_reason is FailureReason.MESSAGE_UNDECODABLE
        assert result.diagnostics.decode_error

    def test_corrupted_payload_flagged_undecodable(self, wire_setup):
        pair, ego_boxes, payload = wire_setup
        damaged = bytearray(payload)
        damaged[len(damaged) // 2] ^= 0xFF
        result = BBAlign().recover(pair.ego_cloud, bytes(damaged),
                                   ego_boxes, rng=0)
        assert result.failure_reason is FailureReason.MESSAGE_UNDECODABLE

    def test_stage2_error_keeps_stage1_estimate(self, wire_setup,
                                                monkeypatch):
        pair, ego_boxes, payload = wire_setup
        aligner = BBAlign()

        def broken_align(*args, **kwargs):
            raise RuntimeError("stage 2 exploded (test)")

        monkeypatch.setattr(aligner.box_aligner, "align", broken_align)
        result = aligner.recover(pair.ego_cloud, payload, ego_boxes, rng=0)
        assert result.failure_reason is FailureReason.STAGE2_ERROR
        assert result.degradation is DegradationLevel.STAGE1_ONLY
        assert result.transform.is_close(result.stage1.transform)
        assert "stage 2 exploded" in result.diagnostics.stage2_error

    def test_stage1_error_degrades(self, wire_setup, monkeypatch):
        pair, ego_boxes, payload = wire_setup
        aligner = BBAlign()

        def broken_match(*args, **kwargs):
            raise RuntimeError("stage 1 exploded (test)")

        monkeypatch.setattr(aligner.bv_matcher, "match", broken_match)
        result = aligner.recover(pair.ego_cloud, payload, ego_boxes, rng=0)
        assert not result.success
        assert result.failure_reason is FailureReason.STAGE1_ERROR
        assert "stage 1 exploded" in result.diagnostics.stage1_error

    def test_extraction_error_degrades(self, frame_pair, monkeypatch):
        aligner = BBAlign()

        def broken_extract(*args, **kwargs):
            raise RuntimeError("extraction exploded (test)")

        # make_bv_image is the seam shared by the single-cloud and the
        # batched-pair extraction paths.
        monkeypatch.setattr(aligner.bv_matcher, "make_bv_image",
                            broken_extract)
        result = aligner.recover(frame_pair.ego_cloud,
                                 frame_pair.other_cloud, [], [], rng=0)
        assert not result.success
        assert result.failure_reason is FailureReason.EXTRACTION_ERROR


class TestNonFiniteDiagnostics:
    def test_nonfinite_points_counted_and_filtered(self, frame_pair):
        aligner = BBAlign()
        points = frame_pair.ego_cloud.points.copy()
        points[:7, 0] = np.nan
        points[7:10, 2] = np.inf
        features = aligner.extract_features(PointCloud(points))
        assert features.bv_image.num_nonfinite == 10
        assert np.isfinite(features.bv_image.image).all()

    def test_counts_surface_in_result_diagnostics(self, frame_pair):
        aligner = BBAlign()
        points = frame_pair.ego_cloud.points.copy()
        points[:5] = np.nan
        ego = aligner.extract_features(PointCloud(points))
        other = aligner.extract_features(frame_pair.other_cloud)
        result = aligner.recover(ego, other, [], [], rng=0)
        assert result.diagnostics.nonfinite_ego_points == 5
        assert result.diagnostics.nonfinite_other_points == 0


class TestSuccessCriterionHonesty:
    def test_failed_recoveries_not_reported_successful(self, aligner):
        """Across hostile scenes, no flagged-successful recovery may be
        wildly wrong (the criterion's purpose)."""
        from repro.simulation import ScenarioConfig, WorldConfig, make_frame_pair
        from repro.simulation.world import ScenarioKind
        for seed in (1, 2, 3):
            pair = make_frame_pair(ScenarioConfig(
                world=WorldConfig(kind=ScenarioKind.OPEN),
                distance=50.0), rng=seed)
            result = aligner.recover(pair.ego_cloud, pair.other_cloud,
                                     [v.box for v in pair.ego_visible],
                                     [v.box for v in pair.other_visible],
                                     rng=0)
            if result.success:
                assert result.translation_error(pair.gt_relative) < 5.0


class TestRobustnessSweep:
    def test_zero_impairment_cell_is_the_control(self):
        """The clean-channel cell equals a direct recovery loop over the
        decoded messages with the same recovery streams: the channel
        and wire plumbing perturb nothing."""
        from repro.comms.tiers import (
            Tier,
            build_message,
            decode_message,
            encode_message,
        )
        from repro.detection.simulated import SimulatedDetector
        from repro.experiments.common import default_dataset, detect_for_pair
        from repro.experiments.robustness_sweep import run_robustness_sweep
        from repro.metrics.pose_error import pose_errors

        seed = 2024
        cell = run_robustness_sweep(3, seed).cell(0.0, 0.0)
        detector = SimulatedDetector()
        sender, receiver = BBAlign(), BBAlign()
        translation, rotation = [], []
        for record in default_dataset(3, seed):
            pair = record.pair
            ego_dets, other_dets = detect_for_pair(pair, detector, seed,
                                                   record.index)
            message = decode_message(encode_message(build_message(
                Tier.BV_IMAGE, [d.box.to_bev() for d in other_dets],
                features=sender.extract_features(pair.other_cloud)),
                record=False))
            result = receiver.recover(
                sender.extract_features(pair.ego_cloud),
                receiver.bv_matcher.extract(message.bv_image),
                [d.box for d in ego_dets], message.boxes,
                rng=np.random.default_rng([seed, record.index, 2]))
            if result.success:
                errors = pose_errors(result.transform, pair.gt_relative)
                translation.append(errors.translation)
                rotation.append(errors.rotation_deg)
        assert translation, "no clean recovery to compare"
        assert cell.num_pairs == 3
        assert cell.successes == len(translation)
        assert cell.mean_translation_error == float(np.mean(translation))
        assert cell.mean_rotation_error_deg == float(np.mean(rotation))
