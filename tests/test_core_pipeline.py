"""Tests for repro.core.pipeline (Algorithm 1 end to end)."""

import numpy as np
import pytest

from repro.boxes.box import Box2D, Box3D
from repro.core.config import BBAlignConfig
from repro.core.pipeline import BBAlign
from repro.detection.simulated import SimulatedDetector


@pytest.fixture(scope="module")
def recovered(frame_pair_module):
    pair, result = frame_pair_module
    return pair, result


@pytest.fixture(scope="module")
def frame_pair_module():
    from repro.simulation.scenario import ScenarioConfig, make_frame_pair
    pair = make_frame_pair(ScenarioConfig(distance=20.0), rng=5)
    detector = SimulatedDetector()
    ego_dets = detector.detect(pair.ego_visible, np.random.default_rng(1))
    other_dets = detector.detect(pair.other_visible, np.random.default_rng(2))
    aligner = BBAlign()
    result = aligner.recover(pair.ego_cloud, pair.other_cloud,
                             [d.box for d in ego_dets],
                             [d.box for d in other_dets], rng=0)
    return pair, result


class TestRecovery:
    def test_accurate_on_close_pair(self, recovered):
        pair, result = recovered
        assert result.translation_error(pair.gt_relative) < 1.0
        assert result.rotation_error_deg(pair.gt_relative) < 1.0

    def test_3d_lift_consistent(self, recovered):
        _, result = recovered
        lifted = result.transform_3d
        assert lifted.yaw == pytest.approx(result.transform.theta)
        np.testing.assert_allclose(lifted.translation[:2],
                                   result.transform.translation, atol=1e-9)

    def test_diagnostics_populated(self, recovered):
        _, result = recovered
        assert result.inliers_bv == result.stage1.inliers_bv
        assert result.inliers_box == result.stage2.inliers_box
        assert result.message_bytes > 0
        assert result.alpha == result.transform.theta
        assert result.t_x == result.transform.tx

    def test_message_far_smaller_than_raw_cloud(self, recovered):
        pair, result = recovered
        raw = BBAlign.raw_cloud_bytes(pair.other_cloud)
        assert result.message_bytes < raw / 2

    def test_success_criterion_applied(self, recovered):
        _, result = recovered
        config = BBAlignConfig()
        expected = config.success.is_success(result.inliers_bv,
                                             result.inliers_box)
        assert result.success == (expected and result.stage1.success)


class TestAblationMode:
    def test_box_alignment_disabled(self, frame_pair_module):
        pair, _ = frame_pair_module
        config = BBAlignConfig(enable_box_alignment=False)
        aligner = BBAlign(config)
        result = aligner.recover(pair.ego_cloud, pair.other_cloud, [], [],
                                 rng=0)
        assert result.stage2.num_matched_boxes == 0
        assert result.transform.is_close(result.stage1.transform)


class TestInputHandling:
    def test_accepts_box3d_and_box2d(self, frame_pair_module):
        pair, _ = frame_pair_module
        aligner = BBAlign()
        boxes_3d = [v.box for v in pair.ego_visible]
        boxes_2d = [b.to_bev() for b in boxes_3d]
        r3 = aligner.recover(pair.ego_cloud, pair.other_cloud, boxes_3d,
                             [v.box for v in pair.other_visible], rng=0)
        r2 = aligner.recover(pair.ego_cloud, pair.other_cloud, boxes_2d,
                             [v.box.to_bev() for v in pair.other_visible],
                             rng=0)
        assert r3.transform.is_close(r2.transform, atol_translation=1e-9)

    def test_rejects_garbage_boxes(self, frame_pair_module):
        pair, _ = frame_pair_module
        with pytest.raises(TypeError):
            BBAlign().recover(pair.ego_cloud, pair.other_cloud,
                              ["not a box"], [], rng=0)

    def test_unreliable_stage2_not_applied(self, frame_pair_module):
        """With a single other box, stage 2 cannot meet its criterion and
        the output must equal the stage-1 transform."""
        pair, _ = frame_pair_module
        aligner = BBAlign()
        one_box = [pair.other_visible[0].box] if pair.other_visible else []
        result = aligner.recover(pair.ego_cloud, pair.other_cloud,
                                 [v.box for v in pair.ego_visible],
                                 one_box, rng=0)
        assert result.inliers_box <= 6
        assert result.transform.is_close(result.stage1.transform)
        assert not result.success

    def test_deterministic_by_default_seed(self, frame_pair_module):
        pair, _ = frame_pair_module
        aligner = BBAlign()
        boxes_e = [v.box for v in pair.ego_visible]
        boxes_o = [v.box for v in pair.other_visible]
        r1 = aligner.recover(pair.ego_cloud, pair.other_cloud, boxes_e,
                             boxes_o)
        r2 = aligner.recover(pair.ego_cloud, pair.other_cloud, boxes_e,
                             boxes_o)
        assert r1.transform.is_close(r2.transform)
